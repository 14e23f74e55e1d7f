"""The integer Wronskian and vanishing-order paths against independent oracles.

`wronskian` is compared with sympy's Wronskian of the same polynomials, and
`plane_vanishing_orders` with the rref pivots of the derivative-jet matrix
evaluated at t0, on seeded planes (k <= 5, m <= 8), on planes built from
powers of (t - t0), and on a Q(sqrt(13)) plane of the Gr(2, 4) Wronski solver.
"""

import random
from fractions import Fraction

import pytest

from schubert.linalg import Matrix, QuadExt, rref
from schubert.poly import PolyQ
from schubert.wronski import (PolyPlane, plane_vanishing_orders, random_plane,
                              wronski_solver_gr24, wronskian)

F = Fraction
POINTS = (F(0), F(1), F(-2), F(3, 2), F(-5, 7))


def _jet_pivots(plane, t0):
    # row c holds the values at t0 of basis polynomial c and its derivatives
    rows = []
    for p in plane.basis:
        vals = []
        for _ in range(plane.m):
            vals.append(p(t0))
            p = p.derivative()
        rows.append(vals)
    return rref(Matrix(rows, shape=(plane.k, plane.m)))[1]


def _seeded_planes():
    rng = random.Random(8)
    shapes = [(1, 3), (2, 4), (2, 6), (3, 5), (3, 8), (4, 6), (4, 8), (5, 7),
              (5, 8)]
    return [random_plane(k, m, rng) for k, m in shapes]


def _power_planes():
    """(plane, t0) with basis (t - t0)^e * (small cofactor) for k distinct
    orders e, so the plane vanishes to high order at t0."""
    rng = random.Random(21)
    out = []
    for t0 in (F(0), F(-3), F(1, 3), F(-4, 5)):
        root = PolyQ([-t0, 1])
        for k, m in [(2, 5), (3, 6), (4, 8), (5, 8)]:
            exps = sorted(rng.sample(range(m), k), reverse=True)
            basis = []
            for e in exps:
                p = PolyQ.one()
                for _ in range(e):
                    p = p * root
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                if e < m - 1 and c != -t0:
                    # a cofactor t + c nonzero at t0 keeps the order e
                    p = p * PolyQ([c, 1])
                basis.append(p)
            out.append((PolyPlane(m, k, tuple(basis)), t0))
    return out


def _sqrt13_plane():
    plane = wronski_solver_gr24([F(0), F(1), F(2), F(3)])[0]
    assert any(isinstance(c, QuadExt) and c.d == 13
               for p in plane.basis for c in p.coeffs)
    return plane


def test_wronskian_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def expr(p):
        terms = []
        for j, c in enumerate(p.coeffs):
            if isinstance(c, QuadExt):
                c = (sympy.Rational(c.a.numerator, c.a.denominator)
                     + sympy.Rational(c.b.numerator, c.b.denominator)
                     * sympy.sqrt(c.d))
            else:
                c = sympy.Rational(c.numerator, c.denominator)
            terms.append(c * t ** j)
        return sympy.Add(*terms)

    planes = (_seeded_planes() + [p for p, _ in _power_planes()]
              + [_sqrt13_plane()])
    for plane in planes:
        # sympy's elimination over its polynomial domain; its default
        # method takes minutes on these planes
        ref = sympy.wronskian([expr(p) for p in plane.basis], t,
                              method="domain-ge")
        assert sympy.expand(expr(wronskian(plane)) - ref) == 0, plane


def test_vanishing_orders_match_jet_pivots():
    for plane in _seeded_planes() + [_sqrt13_plane()]:
        for t0 in POINTS:
            assert plane_vanishing_orders(plane, t0) == _jet_pivots(plane, t0)
    deep = 0
    for plane, t0 in _power_planes():
        for t in POINTS + (t0,):
            orders = plane_vanishing_orders(plane, t)
            assert orders == _jet_pivots(plane, t), (plane, t)
        deep += orders[-1] >= plane.m - 2
    assert deep >= 4
