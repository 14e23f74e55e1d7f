"""Polynomial planes, Wronskians, ramification, and the degree-2 solver.

Cross-module faithfulness: the coefficient dictionary must translate the
polynomial-side ramification data into matrix-side Schubert membership at the
osculating flag of the same point, for every plane and every rational point.
"""

import random
from fractions import Fraction

import pytest

from schubert.errors import DegenerateConfiguration, ZeroPolynomial
from schubert.flags import GroupKind, osculating_flag
from schubert.grassmann import (cell_interior, codim, iota, membership,
                                small_solver_gr24, transversality_certificate)
from schubert.linalg import Matrix, det, rank
from schubert.poly import PolyQ
from schubert.wronski import (EHReport, PolyPlane, check_eh_identity,
                              plane_to_grpoint, plane_vanishing_orders,
                              ramification_condition, random_plane,
                              vanishing_order, wronski_solver_gr24, wronskian)

F = Fraction


def _plane(m, *coeff_lists):
    return PolyPlane(m, len(coeff_lists), tuple(PolyQ(c) for c in coeff_lists))


# -- Wronskians ------------------------------------------------------------------


def test_wronskian_frozen_small_cases():
    assert wronskian(_plane(4, [1], [0, 1])) == PolyQ([1])
    assert wronskian(_plane(4, [1], [0, 0, 1])) == PolyQ([0, 2])
    assert wronskian(_plane(4, [0, 1], [0, 0, 1])) == PolyQ([0, 0, 1])


def test_wronskian_scales_by_determinant_under_basis_change():
    rng = random.Random(4)
    planes = [random_plane(k, m, rng) for k, m in [(2, 5), (3, 6), (4, 8)]
              for _ in range(10)]
    planes.append(wronski_solver_gr24([0, 1, 2, 3])[0])  # over Q(sqrt(13))
    for plane in planes:
        k = plane.k
        while True:
            g = [[F(rng.randint(-3, 3)) for _ in range(k)] for _ in range(k)]
            detg = det(Matrix(g))
            if detg:
                break
        changed = PolyPlane(plane.m, k, tuple(
            sum((p * c for p, c in zip(plane.basis, row)), PolyQ())
            for row in g))
        assert wronskian(changed) == wronskian(plane) * detg


def test_wronskian_degree_bound():
    rng = random.Random(6)
    for k, m in [(2, 4), (2, 5), (3, 6)]:
        for _ in range(10):
            W = wronskian(random_plane(k, m, rng))
            assert not W.is_zero
            assert W.degree() <= k * (m - k)


# -- vanishing orders ---------------------------------------------------------------


def test_vanishing_order_simple():
    assert vanishing_order(PolyQ([0, 2]), F(0)) == 1
    assert vanishing_order(PolyQ([1]), F(17)) == 0
    # (t-1)^3 (t+2)
    p = PolyQ([-2, 5, -3, -1, 1])
    assert vanishing_order(p, F(1)) == 3
    assert vanishing_order(p, F(-2)) == 1
    assert vanishing_order(p, F(5)) == 0


def test_vanishing_order_rejects_zero():
    with pytest.raises(ZeroPolynomial):
        vanishing_order(PolyQ(), F(0))


def test_sum_of_orders_bounded_by_degree():
    rng = random.Random(14)
    for _ in range(10):
        plane = random_plane(2, 5, rng)
        W = wronskian(plane)
        total = sum(vanishing_order(W, F(t)) for t in range(-6, 7))
        assert total <= W.degree() <= 2 * 3


def test_plane_vanishing_orders():
    assert plane_vanishing_orders(_plane(4, [1], [0, 1]), F(0)) == (0, 1)
    assert plane_vanishing_orders(_plane(4, [1], [0, 0, 1]), F(0)) == (0, 2)
    assert plane_vanishing_orders(_plane(4, [0, 1], [0, 0, 1]), F(0)) == (1, 2)
    # orders are a property of the plane, not the chosen basis
    tilted = _plane(4, [1, 0, 5], [0, 0, 1])
    assert plane_vanishing_orders(tilted, F(0)) == (0, 2)


# -- ramification conditions and the codimension identity -----------------------------


def test_ramification_condition_frozen():
    vac = ramification_condition(_plane(4, [1], [0, 1]), F(0))
    assert vac.indices == (3, 4) and codim(vac) == 0
    c1 = ramification_condition(_plane(4, [1], [0, 0, 1]), F(0))
    assert c1.indices == (2, 4) and codim(c1) == 1
    c2 = ramification_condition(_plane(4, [0, 1], [0, 0, 1]), F(0))
    assert c2.indices == (2, 3) and codim(c2) == 2


def test_check_eh_identity_frozen():
    assert check_eh_identity(_plane(4, [1], [0, 0, 1]), F(0)) == EHReport(1, 1, True)
    assert check_eh_identity(_plane(4, [0, 1], [0, 0, 1]), F(0)) == EHReport(2, 2, True)


def test_check_eh_identity_generic_plane():
    rng = random.Random(100)
    plane = random_plane(2, 4, rng)
    rep = check_eh_identity(plane, F(7))
    assert rep == EHReport(0, 0, True)


def test_check_eh_identity_sampled():
    rng = random.Random(55)
    for k, m in [(2, 4), (2, 5), (3, 6)]:
        for _ in range(25):
            plane = random_plane(k, m, rng)
            for t0 in (F(0), F(1), F(-2)):
                assert check_eh_identity(plane, t0).equal, (k, m, plane, t0)


# -- the coefficient dictionary ---------------------------------------------------------


def test_plane_to_grpoint_symmetric_example():
    V = plane_to_grpoint(_plane(3, [1], [0, 0, 1]))
    # spans e1 and e3 up to the dictionary's divided-power rescaling
    target = Matrix.from_columns([[1, 0, 0], [0, 0, 1]])
    assert rank(V.basis.hstack(target)) == 2


def test_membership_round_trip():
    rng = random.Random(77)
    for k, m in [(2, 4), (2, 5), (3, 5)]:
        for _ in range(12):
            plane = random_plane(k, m, rng)
            for t0 in (F(0), F(1), F(-1), F(2, 3)):
                cond = ramification_condition(plane, t0)
                V = plane_to_grpoint(plane)
                flag = osculating_flag(GroupKind.sl(m), t0)
                assert membership(V, cond, flag), (plane, t0)
                assert cell_interior(V, cond, flag), (plane, t0)


def test_dictionary_translates_deep_osculation():
    # vanishing to order >= 3 at t0 = 2 puts the line inside E_1(2)
    shifted_cube = PolyQ([-8, 12, -6, 1])  # (t - 2)^3
    plane = PolyPlane(4, 2, (shifted_cube, PolyQ([1])))
    cond = ramification_condition(plane, F(2))
    assert cond.indices == (1, 4)
    assert membership(plane_to_grpoint(plane), cond,
                      osculating_flag(GroupKind.sl(4), F(2)))


# -- the Wronski solver -------------------------------------------------------------


def test_wronski_solver_frozen_instance():
    planes = wronski_solver_gr24([F(0), F(1), F(2), F(3)])
    assert len(planes) == 2
    target = PolyQ([0, -6, 11, -6, 1])  # t(t-1)(t-2)(t-3)
    for plane in planes:
        W = wronskian(plane)
        assert W * target.coeffs[-1] == target * W.coeffs[-1]
        for r in range(4):
            rep = check_eh_identity(plane, F(r))
            assert rep.equal and rep.codim == 1
    # the cubic member has a quadratic coefficient living in Q(sqrt(13))
    quads = {p.basis[1].coeffs[0].d for p in planes
             if hasattr(p.basis[1].coeffs[0], "d")}
    assert quads == {13}


def test_wronski_solver_repeated_root():
    with pytest.raises(DegenerateConfiguration):
        wronski_solver_gr24([F(0), F(1), F(2), F(2)])


@pytest.mark.parametrize("build, match", [
    (lambda: PolyPlane(4, 0, ()), "k >= 1"),
    (lambda: wronski_solver_gr24([F(0), F(1), F(2)]), "exactly four"),
], ids=["empty-plane", "three-points"])
def test_plane_and_solver_reject_bad_sizes(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_cross_solver_agreement():
    points = [F(0), F(1), F(2), F(3)]
    planes = wronski_solver_gr24(points)
    flags = [osculating_flag(GroupKind.sl(4), t) for t in points]
    matrix_sols = small_solver_gr24(flags)
    assert len(matrix_sols) == 2
    matched = set()
    for plane in planes:
        V = plane_to_grpoint(plane)
        for i, W in enumerate(matrix_sols):
            if rank(V.basis.hstack(W.basis)) == 2:
                matched.add(i)
    assert matched == {0, 1}
    # and every solution, in either model, is certified transverse
    cond = iota(2, 4)
    for W in matrix_sols:
        assert transversality_certificate(
            W, [(cond, fl) for fl in flags]).transverse


def test_wronski_solver_scaling_audit():
    base = wronski_solver_gr24([F(0), F(1), F(2), F(3)])
    scaled = wronski_solver_gr24([F(0), F(2), F(4), F(6)])
    # f(t) -> f(2t) halves every Wronskian root, carrying scaled solutions
    # onto base solutions
    def shrink(plane):
        return PolyPlane(plane.m, plane.k, tuple(
            PolyQ([c * 2**j for j, c in enumerate(p.coeffs)])
            for p in plane.basis))
    base_points = [plane_to_grpoint(p) for p in base]
    for plane in scaled:
        V = plane_to_grpoint(shrink(plane))
        assert any(rank(V.basis.hstack(B.basis)) == 2 for B in base_points)


def test_wronski_solver_symmetry_audit():
    planes = wronski_solver_gr24([F(-3), F(-1), F(1), F(3)])
    assert len(planes) == 2

    def negate(plane):
        return PolyPlane(plane.m, plane.k, tuple(
            PolyQ([c * (-1)**j for j, c in enumerate(p.coeffs)])
            for p in plane.basis))
    points = [plane_to_grpoint(p) for p in planes]
    for plane in planes:
        V = plane_to_grpoint(negate(plane))
        assert any(rank(V.basis.hstack(B.basis)) == 2 for B in points)


def test_random_plane_properties():
    rng = random.Random(1)
    for _ in range(10):
        plane = random_plane(2, 5, rng)
        assert plane.k == 2 and plane.m == 5
        assert rank(Matrix([list(p.coeffs) + [F(0)] * (5 - len(p.coeffs))
                            for p in plane.basis])) == 2
        assert all(p.degree() < 5 for p in plane.basis)


class _CountingRng:
    """A stand-in for random.Random that counts its draws, always draws the
    low end, and gives up after 10,000 draws instead of running forever."""

    def __init__(self):
        self.draws = 0

    def randint(self, a, b):
        self.draws += 1
        if self.draws > 10_000:
            raise RuntimeError("random_plane kept drawing")
        return a


@pytest.mark.parametrize("k, m", [(5, 3), (2, 1), (0, 4)])
def test_random_plane_refuses_k_outside_1_to_m_before_drawing(k, m):
    rng = _CountingRng()
    with pytest.raises(ValueError, match="need 1 <= k <= m"):
        random_plane(k, m, rng)
    assert rng.draws == 0


def test_plane_validation():
    with pytest.raises(ValueError):
        PolyPlane(4, 2, (PolyQ([1]), PolyQ([2])))  # dependent
    with pytest.raises(ValueError):
        PolyPlane(3, 2, (PolyQ([1]), PolyQ([0, 0, 0, 1])))  # degree too big
