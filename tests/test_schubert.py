"""Schubert conditions, membership, tangent spaces, certificates, solvers.

The codimension-one condition is cross-checked by enumerating every k-subset
and keeping the ones of codimension 1 (there is exactly one).  Cell-interior
sample points are built directly from the cell parametrization: column j is
the flag column at position i_j plus arbitrary contributions from earlier
flag columns at positions outside the condition, which realizes every
incidence with equality.
"""

import json
import random
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import schubert
from schubert.errors import (DegenerateConfiguration, DimensionMismatch,
                             InfinitelyMany, NegativeExpectedDimension,
                             NotInCellInterior, NotMember)
from schubert.flags import Flag, GroupKind, osculating_flag
from schubert.grassmann import (ExpectedDimReport, GrPoint, PermCondition,
                                SchubertCondition, cell_interior, codim,
                                condition_codim, expected_dim_report,
                                flag_manifold_dim, iota, membership,
                                pad_to_zero_dimensional, perm_codim,
                                small_solver_gr24, tangent_space,
                                transversality_certificate)
from schubert.linalg import Matrix, rank

F = Fraction


def _coord_point(m, rows):
    return GrPoint(Matrix.from_columns(
        [[F(i == r) for i in range(m)] for r in rows]))


def _cell_point(cond, flag, rng):
    """A point of the open cell of cond relative to flag."""
    cols = []
    inside = set(cond.indices)
    for j, ij in enumerate(cond.indices):
        vec = list(flag.basis.column(ij - 1))
        for a in range(1, ij):
            if a in inside:
                continue
            c = F(rng.randint(-4, 4), rng.randint(1, 3))
            col = flag.basis.column(a - 1)
            vec = [v + c * x for v, x in zip(vec, col)]
        cols.append(vec)
    return GrPoint(Matrix.from_columns(cols))


def _random_flag(m, rng):
    while True:
        M = Matrix([[F(rng.randint(-4, 4)) for _ in range(m)]
                    for _ in range(m)])
        if rank(M) == m:
            return Flag(m, M)


# -- conditions and codimension -------------------------------------------------


def test_codim_frozen_values():
    assert codim(SchubertCondition(2, 4, (3, 4))) == 0
    assert codim(SchubertCondition(2, 4, (2, 4))) == 1
    assert codim(SchubertCondition(2, 4, (1, 2))) == 4


def test_condition_validation():
    with pytest.raises(ValueError):
        SchubertCondition(2, 4, (4, 2))
    with pytest.raises(ValueError):
        SchubertCondition(2, 4, (0, 3))
    with pytest.raises(ValueError):
        SchubertCondition(3, 4, (1, 2))


def test_iota_is_the_unique_codim_one_condition():
    for m in range(2, 7):
        for k in range(1, m):
            codim_one = [I for I in combinations(range(1, m + 1), k)
                         if codim(SchubertCondition(k, m, I)) == 1]
            assert codim_one == [iota(k, m).indices]


def test_iota_frozen_values():
    assert iota(2, 4).indices == (2, 4)
    assert iota(1, 3).indices == (2,)
    assert iota(3, 6).indices == (3, 5, 6)


# -- membership and cell interior -------------------------------------------------


def test_membership_vacuous_condition():
    rng = random.Random(0)
    F5 = _random_flag(5, rng)
    V = _cell_point(iota(2, 5), F5, rng)
    assert membership(V, SchubertCondition(2, 5, (4, 5)), F5)


def test_membership_prefix_point():
    flag = Flag.coordinate(4)
    V = _coord_point(4, (0, 1))
    assert membership(V, SchubertCondition(2, 4, (1, 2)), flag)


def test_membership_negative_case():
    V = _coord_point(4, (2, 3))  # span(e3, e4)
    assert not membership(V, SchubertCondition(2, 4, (2, 4)),
                          Flag.coordinate(4))


def test_membership_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        membership(_coord_point(4, (0, 1)), SchubertCondition(2, 4, (2, 4)),
                   Flag.coordinate(5))


@pytest.mark.parametrize("build, error, match", [
    (lambda: SchubertCondition(3, 2, (1, 2, 3)), ValueError,
     "need 1 <= k <= m"),
    (lambda: GrPoint(Matrix.from_columns([[1, 0, 0, 0], [2, 0, 0, 0]])),
     ValueError, "^basis columns are linearly dependent$"),
    (lambda: membership(_coord_point(4, (0,)), SchubertCondition(2, 4, (2, 4)),
                        Flag.coordinate(4)), DimensionMismatch,
     "condition needs k=2"),
    (lambda: pad_to_zero_dimensional([(iota(2, 4), F(0)), (iota(2, 5), F(1))],
                                     [F(2)]), DimensionMismatch,
     "different Grassmannians"),
    (lambda: pad_to_zero_dimensional([(iota(2, 4), F(0))],
                                     [F(1), F(1), F(2)]), ValueError,
     "pairwise distinct"),
    (lambda: flag_manifold_dim((0, 2), 4), ValueError, "strictly between"),
    (lambda: flag_manifold_dim((1, 4), 4), ValueError, "strictly between"),
    (lambda: flag_manifold_dim((2, 1), 4), ValueError, "increase strictly"),
], ids=["k-above-m", "dependent-columns", "k-disagrees", "two-grassmannians",
        "repeated-fresh-points", "dim-zero", "dim-m", "dims-decrease"])
def test_geometry_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_grpoint_keeps_the_columns_completing_it():
    V, W = (GrPoint(Matrix.from_columns([[0, 1, 0, 0], [0, 0, 0, 1]]))
            for _ in range(2))  # e_2 and e_4 in C^4, two equal bases
    assert V._complement == (0, 2)
    assert V == W and hash(V) == hash(W)
    assert "_complement" not in repr(V)


def test_membership_basis_invariant():
    rng = random.Random(21)
    flag = _random_flag(4, rng)
    cond = iota(2, 4)
    V = _cell_point(cond, flag, rng)
    # change of basis on the right leaves the span, hence the verdict, alone
    for _ in range(5):
        while True:
            g = Matrix([[F(rng.randint(-3, 3)) for _ in range(2)]
                        for _ in range(2)])
            if rank(g) == 2:
                break
        W = GrPoint(V.basis * g)
        assert membership(W, cond, flag)
        assert cell_interior(W, cond, flag)


def test_cell_interior_prefix_point():
    flag = Flag.coordinate(4)
    assert cell_interior(_coord_point(4, (0, 1)),
                         SchubertCondition(2, 4, (1, 2)), flag)


def test_cell_interior_false_when_too_deep():
    # V = E_k satisfies more than the vacuous condition asks
    flag = Flag.coordinate(4)
    V = _coord_point(4, (0, 1))
    assert membership(V, SchubertCondition(2, 4, (3, 4)), flag)
    assert not cell_interior(V, SchubertCondition(2, 4, (3, 4)), flag)


def test_cell_interior_requires_membership():
    with pytest.raises(NotMember):
        cell_interior(_coord_point(4, (2, 3)), SchubertCondition(2, 4, (2, 4)),
                      Flag.coordinate(4))


def _cap_dim_by_rank(V, flag, i):
    """Reference intersection dimension: dim(V cap E_i) = k + i - rank([V | E_i])."""
    return V.k + i - rank(V.basis.hstack(flag.prefix(i)))


def test_membership_and_interior_match_rank_oracle():
    # sparse seeded points and flags, so most points lie off the open cells
    entries = [F(0), F(0), F(1), F(-1), F(2), F(1, 3)]
    rng = random.Random(77)

    def draw(rows, cols):
        while True:
            M = Matrix([[rng.choice(entries) for _ in range(cols)]
                        for _ in range(rows)])
            if rank(M) == cols:
                return M

    seen = set()
    for _ in range(60):
        m = rng.randint(2, 5)
        k = rng.randint(1, m)
        flag, V = Flag(m, draw(m, m)), GrPoint(draw(m, k))
        dims = [_cap_dim_by_rank(V, flag, i) for i in range(m + 1)]
        for indices in combinations(range(1, m + 1), k):
            cond = SchubertCondition(k, m, indices)
            member = all(dims[i] >= j for j, i in enumerate(indices, 1))
            assert membership(V, cond, flag) == member
            if not member:
                with pytest.raises(NotMember):
                    cell_interior(V, cond, flag)
                seen.add("outside")
                continue
            interior = all(dims[i] == j and dims[i - 1] == j - 1
                           for j, i in enumerate(indices, 1))
            assert cell_interior(V, cond, flag) == interior
            seen.add("interior" if interior else "boundary")
    assert seen == {"outside", "boundary", "interior"}


def test_cell_parametrization_lands_in_interior():
    rng = random.Random(3)
    for _ in range(25):
        m = rng.randint(2, 6)
        k = rng.randint(1, m - 1)
        indices = tuple(sorted(rng.sample(range(1, m + 1), k)))
        cond = SchubertCondition(k, m, indices)
        flag = _random_flag(m, rng)
        V = _cell_point(cond, flag, rng)
        assert membership(V, cond, flag)
        assert cell_interior(V, cond, flag)


# -- tangent spaces ----------------------------------------------------------------


def test_tangent_space_vacuous_condition():
    flag = Flag.coordinate(4)
    rng = random.Random(9)
    cond = SchubertCondition(2, 4, (3, 4))
    V = _cell_point(cond, flag, rng)
    T = tangent_space(V, cond, flag)
    assert T.constraints.cols == 4  # dim Hom(V, C^4/V)
    assert T.constraints.rows == 0 or rank(T.constraints) == 0


def test_tangent_space_iota_gr24():
    flag = Flag.coordinate(4)
    V = _coord_point(4, (1, 3))  # span(e2, e4), interior for (2,4)
    T = tangent_space(V, iota(2, 4), flag)
    assert rank(T.constraints) == 1
    assert T.constraints.cols == 4


def test_tangent_space_rejects_non_interior():
    flag = Flag.coordinate(4)
    with pytest.raises(NotInCellInterior):
        tangent_space(_coord_point(4, (0, 1)), SchubertCondition(2, 4, (3, 4)),
                      flag)
    with pytest.raises(NotInCellInterior):
        tangent_space(_coord_point(4, (2, 3)), SchubertCondition(2, 4, (2, 4)),
                      flag)


def test_tangent_rank_equals_codim_sampled():
    # every (k, m) with k(m-k) <= 9, 100 seeded interior samples each
    pairs = [(k, m) for m in range(2, 11) for k in range(1, m)
             if k * (m - k) <= 9]
    rng = random.Random(2024)
    for k, m in pairs:
        for _ in range(100):
            indices = tuple(sorted(rng.sample(range(1, m + 1), k)))
            cond = SchubertCondition(k, m, indices)
            flag = _random_flag(m, rng)
            V = _cell_point(cond, flag, rng)
            T = tangent_space(V, cond, flag)
            got = rank(T.constraints) if T.constraints.rows else 0
            assert got == codim(cond), (k, m, indices)
            assert T.constraints.rows == codim(cond), (k, m, indices)


# -- transversality certificates ------------------------------------------------------


def test_certificate_single_condition_always_transverse():
    rng = random.Random(33)
    for _ in range(10):
        m = rng.randint(3, 5)
        k = rng.randint(1, m - 1)
        indices = tuple(sorted(rng.sample(range(1, m + 1), k)))
        cond = SchubertCondition(k, m, indices)
        flag = _random_flag(m, rng)
        V = _cell_point(cond, flag, rng)
        cert = transversality_certificate(V, [(cond, flag)])
        assert cert.transverse
        assert cert.tangent_codim == cert.codim_sum == codim(cond)


def test_certificate_repeated_condition_fails():
    flag = Flag.coordinate(4)
    V = _coord_point(4, (1, 3))
    cond = iota(2, 4)
    cert = transversality_certificate(V, [(cond, flag), (cond, flag)])
    assert not cert.transverse
    assert cert.tangent_codim == 1 and cert.codim_sum == 2


def test_certificate_reports_offending_condition():
    flag = Flag.coordinate(4)
    V = _coord_point(4, (0, 1))
    good = SchubertCondition(2, 4, (1, 2))
    vacuous = SchubertCondition(2, 4, (3, 4))
    with pytest.raises(NotInCellInterior, match="condition 1"):
        transversality_certificate(V, [(good, flag), (vacuous, flag)])


# -- the four-lines solver ---------------------------------------------------------


def _osc_flags(points):
    kind = GroupKind.sl(4)
    return [osculating_flag(kind, F(p)) for p in points]


def test_solver_osculating_instance():
    flags = _osc_flags((0, 1, 2, 3))
    sols = small_solver_gr24(flags)
    assert len(sols) == 2
    cond = iota(2, 4)
    for V in sols:
        for fl in flags:
            assert membership(V, cond, fl)
    # the two solutions are distinct 2-planes
    stacked = sols[0].basis.hstack(sols[1].basis)
    assert rank(stacked) > 2
    for V in sols:
        cert = transversality_certificate(V, [(cond, fl) for fl in flags])
        assert cert.transverse and cert.tangent_codim == 4


def test_solver_repeated_point_degenerate():
    with pytest.raises(DegenerateConfiguration):
        small_solver_gr24(_osc_flags((0, 1, 2, 2)))


def test_solver_shared_plane_degenerate():
    flags = _osc_flags((0, 1, 2, 3))
    flags[3] = Flag(4, flags[2].basis.take_columns(range(2)).hstack(
        Flag.coordinate(4).basis.take_columns([0, 3])))
    if rank(flags[3].basis) == 4:
        with pytest.raises(DegenerateConfiguration):
            small_solver_gr24(flags)


def test_solver_random_rational_flags():
    rng = random.Random(101)
    for _ in range(5):
        flags = [_random_flag(4, rng) for _ in range(4)]
        try:
            sols = small_solver_gr24(flags)
        except DegenerateConfiguration:
            continue  # a non-generic draw is allowed, just not miscounted
        assert len(sols) == 2
        cond = iota(2, 4)
        for V in sols:
            for fl in flags:
                assert membership(V, cond, fl)


def test_solver_root_at_infinity():
    # C and D have second flag vectors a2 + lam*b2 and a2 + mu*b2, so the
    # line span(a2, b2) meets all four planes; it is the solution with
    # a = a2, x = (0, 1), where the quadratic in x1 loses its x1^2 term
    rng = random.Random(2)

    def vec(bound):
        return [F(rng.randint(-bound, bound)) for _ in range(4)]

    cond = iota(2, 4)
    for _ in range(20):
        a1, a2, b1, b2, c1, d1 = (vec(5) for _ in range(6))
        lam, mu = rng.randint(1, 5), rng.randint(-5, -1)
        firsts = [(a1, a2), (b1, b2),
                  (c1, [x + lam * y for x, y in zip(a2, b2)]),
                  (d1, [x + mu * y for x, y in zip(a2, b2)])]
        flags = [Flag(4, Matrix.from_columns([p, q, vec(999), vec(999)]))
                 for p, q in firsts]
        sols = small_solver_gr24(flags)
        assert len(sols) == 2
        assert rank(sols[0].basis.hstack(sols[1].basis)) > 2
        line = Matrix.from_columns([a2, b2])
        assert [rank(V.basis.hstack(line)) for V in sols].count(2) == 1
        for V in sols:
            assert all(membership(V, cond, fl) for fl in flags)
            cert = transversality_certificate(V, [(cond, fl) for fl in flags])
            assert cert.transverse and cert.tangent_codim == 4


def _plane_flag(p, q):
    """A flag whose 2-plane is span(p, q), completed by e3 and e4."""
    return Flag(4, Matrix.from_columns(
        [p, q, [0, 0, 1, 0], [0, 0, 0, 1]]))


def test_solver_one_ruling_infinitely_many():
    # span((1,0,a,0), (0,1,0,a)) are lines of one ruling of the quadric
    # x0*x3 = x1*x2; every line of the other ruling meets all four
    flags = [_plane_flag([1, 0, a, 0], [0, 1, 0, a]) for a in range(4)]
    with pytest.raises(InfinitelyMany):
        small_solver_gr24(flags)


def test_solver_tangent_line_double_solution():
    # the lines meeting the first three planes form the other ruling of
    # x0*x3 = x1*x2; the fourth line touches the quadric at (1,1,3,3) only
    # (it lies in the tangent plane 3x0 - 3x1 - x2 + x3 = 0 there), so the
    # two solutions coincide
    flags = [_plane_flag([1, 0, a, 0], [0, 1, 0, a]) for a in range(3)]
    flags.append(_plane_flag([1, 1, 3, 3], [2, 1, 3, 0]))
    with pytest.raises(DegenerateConfiguration, match="double solution"):
        small_solver_gr24(flags)


def test_solver_needs_four_flags_in_dim_four():
    with pytest.raises(ValueError):
        small_solver_gr24(_osc_flags((0, 1, 2)))
    with pytest.raises(DimensionMismatch):
        small_solver_gr24([Flag.coordinate(5)] * 4)


# -- padding -----------------------------------------------------------------------


def test_pad_appends_fresh_iota_conditions():
    cond = iota(2, 4)
    out = pad_to_zero_dimensional([(cond, F(0)), (cond, F(1))], [F(2), F(3)])
    assert [(c.indices, t) for c, t in out] == [
        ((2, 4), F(0)), ((2, 4), F(1)), ((2, 4), F(2)), ((2, 4), F(3))]


def test_pad_zero_dimensional_input_unchanged():
    cond = iota(2, 4)
    given = [(cond, F(t)) for t in range(4)]
    assert pad_to_zero_dimensional(given, [F(10)]) == given


def test_pad_negative_expected_dimension():
    point = SchubertCondition(2, 4, (1, 2))
    with pytest.raises(NegativeExpectedDimension):
        pad_to_zero_dimensional([(point, F(0)), (iota(2, 4), F(1))], [F(2)])


def test_pad_fresh_point_collisions():
    cond = iota(2, 4)
    with pytest.raises(ValueError):
        pad_to_zero_dimensional([(cond, F(0))], [F(0), F(1), F(2)])
    with pytest.raises(ValueError):
        pad_to_zero_dimensional([(cond, F(0))], [F(1)])  # needs 3
    with pytest.raises(ValueError):
        pad_to_zero_dimensional([], [F(1)])  # k, m unknown


@pytest.mark.parametrize("k, m", [(-1, 5), (0, 5), (3, 2), (4, 4)])
def test_pad_checks_k_and_m_before_counting_dimensions(k, m):
    # k = -1 or k > m would read as a negative expected dimension
    with pytest.raises(ValueError, match="need 1 <= k < m"):
        pad_to_zero_dimensional([], [F(1)], k=k, m=m)


def test_pad_without_conditions_needs_explicit_sizes():
    out = pad_to_zero_dimensional([], [F(0), F(1), F(2), F(3), F(9)], k=2, m=4)
    assert len(out) == 4
    assert all(c.indices == (2, 4) for c, _ in out)


# -- permutations and dimension bookkeeping ------------------------------------------


def test_perm_codim_frozen():
    fl = (1, 3)
    assert perm_codim(PermCondition(5, (3, 2, 5, 1, 4), fl)) == 5
    assert perm_codim(PermCondition(5, (2, 1, 4, 3, 5), fl)) == 2
    assert perm_codim(PermCondition(5, (1, 2, 3, 4, 5), fl)) == 0


def test_perm_codim_duality_with_reversal():
    rng = random.Random(12)
    for _ in range(20):
        m = rng.randint(2, 7)
        perm = list(range(1, m + 1))
        rng.shuffle(perm)
        full = tuple(range(1, m))
        w = PermCondition(m, tuple(perm), full)
        w_rev = PermCondition(m, tuple(reversed(perm)), full)
        assert perm_codim(w) + perm_codim(w_rev) == m * (m - 1) // 2


def test_perm_condition_descent_validation():
    with pytest.raises(ValueError):
        PermCondition(5, (3, 2, 5, 1, 4), (1,))  # descent at 3 not allowed
    with pytest.raises(ValueError):
        PermCondition(4, (1, 2, 4, 3), (5,))
    with pytest.raises(ValueError):
        PermCondition(3, (1, 1, 2), (1, 2))


def test_flag_manifold_dims():
    assert flag_manifold_dim((1, 3), 5) == 8
    for m in range(2, 7):
        for k in range(1, m):
            assert flag_manifold_dim((k,), m) == k * (m - k)
        assert flag_manifold_dim(tuple(range(1, m)), m) == m * (m - 1) // 2
    rng = random.Random(5)
    for _ in range(200):
        m = rng.randint(2, 30)
        dims = sorted(rng.sample(range(1, m), rng.randint(1, m - 1)))
        gaps = [b - a for a, b in zip([0] + dims, dims + [m])]
        assert flag_manifold_dim(dims, m) == sum(
            g * h for i, g in enumerate(gaps) for h in gaps[i + 1:])


def test_expected_dim_report_flag_example():
    fl = (1, 3)
    conds = [PermCondition(5, (3, 2, 5, 1, 4), fl),
             PermCondition(5, (2, 1, 4, 3, 5), fl),
             PermCondition(5, (2, 1, 4, 3, 5), fl)]
    rep = expected_dim_report(conds, flag_manifold_dim((1, 3), 5))
    assert rep == ExpectedDimReport(expected=-1, empty_for_general=True)


def test_expected_dim_report_grassmann_cases():
    conds = [iota(2, 4)] * 4
    rep = expected_dim_report(conds, flag_manifold_dim((2,), 4))
    assert rep.expected == 0 and not rep.empty_for_general
    rep2 = expected_dim_report([], 8)
    assert rep2.expected == 8 and not rep2.empty_for_general


def test_condition_codim_dispatch():
    assert condition_codim(iota(2, 4)) == 1
    assert condition_codim(PermCondition(5, (3, 2, 5, 1, 4), (1, 3))) == 5
    with pytest.raises(TypeError):
        condition_codim("not a condition")


# -- the public API ----------------------------------------------------------------


def test_public_api_is_pinned():
    # any change to schubert.__all__ shows up as a diff to this file
    pinned = Path(__file__).with_name("data") / "public_api.json"
    want = json.loads(pinned.read_text(encoding="utf-8"))
    assert sorted(schubert.__all__) == want
    for name in schubert.__all__:
        assert getattr(schubert, name) is not None, name
