"""The integer Wronskian and vanishing-order paths against independent oracles.

`wronskian` is compared with sympy's Wronskian of the same polynomials,
`poly._taylor_coefficients` with sympy's derivatives at t0,
`plane_vanishing_orders` with the rref pivots of the derivative-jet matrix
evaluated at t0, and `vanishing_order` with repeated Fraction division by
(t - t0), on seeded planes (k <= 5, m <= 8), on planes and polynomials built
from powers of (t - t0), and on a Q(sqrt(13)) plane of the Gr(2, 4) Wronski
solver.  `wronskian` is also compared with the Laplace expansion of the
k x k grid of derivatives that it replaced, for every 1 <= k <= m <= 8.
The eh-check route, `_eh_report` on the undivided integer Wronskian of
`_scaled_wronskian`, is compared with the public route and with both
oracles, on seeded planes for every 1 <= k < m <= 8, on planted planes and
on Q(sqrt(d)) solver planes.
"""

import random
from dataclasses import fields
from fractions import Fraction
from math import factorial

import pytest

from schubert.errors import ZeroPolynomial
from schubert.grassmann import codim
from schubert.linalg import Matrix, QuadExt, rref
from schubert.poly import PolyQ, _poly_mul, _taylor_coefficients
from schubert.wronski import (PolyPlane, _eh_report, _root_order,
                              _scaled_wronskian, plane_vanishing_orders,
                              ramification_condition, random_plane,
                              vanishing_order, wronski_solver_gr24, wronskian)

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
    return rref(Matrix(rows))[1]


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


def _sympy_scalar(sympy, c):
    # an int, a Fraction or a QuadExt
    if isinstance(c, QuadExt):
        return (sympy.Rational(c.a.numerator, c.a.denominator)
                + sympy.Rational(c.b.numerator, c.b.denominator)
                * sympy.sqrt(c.d))
    return sympy.Rational(c.numerator, c.denominator)


def test_wronskian_matches_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")

    def expr(p):
        return sympy.Add(*(_sympy_scalar(sympy, c) * t ** j
                           for j, c in enumerate(p.coeffs)))

    planes = (_seeded_planes() + [p for p, _ in _power_planes()]
              + [_sqrt13_plane()])
    for plane in planes:
        # sympy's elimination over its polynomial domain; its default
        # method takes minutes on these planes
        ref = sympy.wronskian([expr(p) for p in plane.basis], t,
                              method="domain-ge")
        assert sympy.expand(expr(wronskian(plane)) - ref) == 0, plane


def _poly_det(grid):
    # determinant of a square matrix of coefficient lists (lowest degree
    # first), by first-row Laplace expansion
    n = len(grid)
    if n == 1:
        return grid[0][0]
    out = []
    for c in range(n):
        if not grid[0][c]:
            continue
        minor = [row[:c] + row[c + 1:] for row in grid[1:]]
        term = _poly_mul(grid[0][c], _poly_det(minor))
        out += [0] * (len(term) - len(out))
        for i, x in enumerate(term):
            out[i] = out[i] - x if c % 2 else out[i] + x
    return out


def _grid_wronskian(plane):
    # the expansion `wronskian` replaced: row a of the grid holds the a-th
    # derivatives of the scaled basis rows, and the determinant is divided
    # by the k-th power of their common scale
    grid = [plane._rows]
    for _ in range(plane.k - 1):
        grid.append([[j * c for j, c in enumerate(cs)][1:] for cs in grid[-1]])
    return PolyQ([c / F(plane._scale ** plane.k) for c in _poly_det(grid)])


def test_wronskian_matches_derivative_grid():
    rng = random.Random(13)
    shapes = [(k, m) for m in range(1, 9) for k in range(1, m + 1)]
    seeded = [random_plane(k, m, rng) for k, m in shapes for _ in range(2)]
    solver = [plane for roots in ([0, 1, 2, 3], [0, 1, -1, 5], [F(1, 2), 2, 3, -7])
              for plane in wronski_solver_gr24(roots)]
    assert sum(any(type(c) is QuadExt for p in plane.basis for c in p.coeffs)
               for plane in solver) >= 4
    for plane in seeded + [p for p, _ in _power_planes()] + solver:
        W = wronskian(plane)
        assert W == _grid_wronskian(plane), plane
        if plane.k == 1:
            assert W == plane.basis[0]
        if plane.k == plane.m:
            assert W.degree() == 0


def test_taylor_coefficients_match_sympy():
    # h_j = v^(d-j) * p^(j)(t0) / j! at t0 = u/v, for the scaled rows of
    # planes (zero-padded to degree m - 1, one over Q(sqrt(13))) and for
    # extra zero padding on top
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    rng = random.Random(55)
    rows = [row for plane in (_seeded_planes()
                              + [p for p, _ in _power_planes()]
                              + [_sqrt13_plane()])
            for row in plane._rows]
    rows += [row + [0] * rng.randint(1, 3) for row in rows[::7]] + [[0], [5]]
    for row in rows:
        t0 = F(-rng.randint(1, 9), rng.randint(2, 9))
        while t0.denominator == 1:
            t0 = F(-rng.randint(1, 9), rng.randint(2, 9))
        d = len(row) - 1
        p = sympy.Add(*(_sympy_scalar(sympy, c) * t ** i
                        for i, c in enumerate(row)))
        hs = list(_taylor_coefficients(row, t0))
        assert len(hs) == d + 1
        if all(isinstance(c, int) for c in row):
            assert all(isinstance(h, int) for h in hs), row
        for j, h in enumerate(hs):
            ref = (sympy.diff(p, t, j).subs(t, _sympy_scalar(sympy, t0))
                   / sympy.factorial(j) * t0.denominator ** (d - j))
            assert sympy.expand(_sympy_scalar(sympy, h) - ref) == 0, (row, t0)


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


def _divide_linear_order(f, t0):
    # the Fraction loop vanishing_order replaced: divide by (t - t0) until
    # the remainder is nonzero
    order = 0
    while True:
        f, rem = f.divide_linear(t0)
        if rem:
            return order
        order += 1


def _planted_polys():
    """(f, t0, r): a seeded cofactor times (v*t - u)^r for t0 = u/v, over Q
    and over Q(sqrt(13))."""
    rng = random.Random(34)
    surds = [p for plane in wronski_solver_gr24([F(0), F(1), F(2), F(3)])
             for p in plane.basis]
    out = []
    for t0 in (F(0), F(1), F(-2), F(1, 3), F(-4, 5)):
        factor = PolyQ([-t0.numerator, t0.denominator])
        for r in range(6):
            cofactors = [PolyQ([F(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(rng.randint(1, 6))]),
                         rng.choice(surds)]
            for f in cofactors:
                if f.is_zero:
                    continue
                for _ in range(r):
                    f = f * factor
                out.append((f, t0, r))
    return out


def test_vanishing_order_matches_divide_linear():
    exact = 0
    for f, t0, r in _planted_polys():
        for t in POINTS + (t0,):
            assert vanishing_order(f, t) == _divide_linear_order(f, t), (f, t)
        order = vanishing_order(f, t0)
        assert order >= r
        exact += order == r
    assert exact >= 40
    W = wronskian(_sqrt13_plane())
    for t in POINTS + (F(2), F(3), F(1, 3)):
        assert vanishing_order(W, t) == _divide_linear_order(W, t), t
    with pytest.raises(ZeroPolynomial):
        vanishing_order(PolyQ(), F(1))


def test_plane_identity_ignores_scaled_rows():
    plane = _sqrt13_plane()
    private = {f.name for f in fields(PolyPlane) if f.name.startswith("_")}
    assert private == {"_rows", "_scale"}
    for p in _seeded_planes() + [plane]:
        twin = PolyPlane(p.m, p.k, list(p.basis))
        object.__setattr__(twin, "_rows", [[0] * p.m] * p.k)
        object.__setattr__(twin, "_scale", 7)
        assert twin == p and hash(twin) == hash(p)
        assert repr(twin) == repr(p) == (
            f"PolyPlane(m={p.m}, k={p.k}, basis={p.basis!r})")


def _derivative_taylor(row, t0):
    # h_j = v^(d-j) * p^(j)(t0) / j! through PolyQ.derivative and evaluation
    p, d, v = PolyQ(row), len(row) - 1, t0.denominator
    out = []
    for j in range(d + 1):
        out.append(p(t0) / factorial(j) * v ** (d - j))
        p = p.derivative()
    return out


def test_taylor_coefficients_match_derivatives():
    # at t0 = 0 (the shortcut h_j = cs[j]) and at nonzero t0, over Z and
    # over Q(sqrt(13))
    surds = _sqrt13_plane()._rows
    assert any(isinstance(c, QuadExt) and c.d == 13 for row in surds for c in row)
    rows = ([row for plane in _seeded_planes() for row in plane._rows]
            + surds + [[0], [5], [0, 0, 3, 0], [-4, 0, 0]])
    for row in rows:
        for t0 in (F(0), F(1), F(-2), F(1, 3), F(-4, 5), F(7, 2)):
            hs = list(_taylor_coefficients(row, t0))
            assert hs == _derivative_taylor(row, t0), (row, t0)
            if all(type(c) is int for c in row):
                assert all(type(h) is int for h in hs), (row, t0)
        assert list(_taylor_coefficients(row, F(0))) == row


def test_vanishing_orders_at_zero_leave_plane_rows_alone():
    # at t0 = 0 the Taylor coefficients are the entries of the plane's own
    # rows, which the elimination of the jet rows must not reach
    planes = (_seeded_planes() + [p for p, _ in _power_planes()]
              + [_sqrt13_plane()])
    for plane in planes:
        before = [list(row) for row in plane._rows]
        orders = plane_vanishing_orders(plane, F(0))
        assert plane._rows == before, plane
        assert plane_vanishing_orders(plane, 0) == orders


@pytest.mark.parametrize("t0", [F(0), F(1), F(1, 3), F(-4, 5)])
def test_root_order_of_zero_list_raises_zero_polynomial(t0):
    for cs in ([], [0], [0, 0, 0], [F(0), 0]):
        with pytest.raises(ZeroPolynomial):
            _root_order(cs, t0)
    with pytest.raises(ZeroPolynomial):
        vanishing_order(PolyQ([]), t0)
    with pytest.raises(ZeroPolynomial):
        vanishing_order(PolyQ([]), 0)


EH_POINTS = (F(0), F(1), F(-2), F(1, 3), F(-4, 5))


def _eh_cases():
    """(plane, points): seeded planes for every 1 <= k < m <= 8, planted
    planes with their deep point added, and the Q(sqrt(d)) solver planes
    with their four roots added."""
    rng = random.Random(89)
    seeded = [(random_plane(k, m, rng), EH_POINTS)
              for m in range(2, 9) for k in range(1, m)]
    planted = [(plane, EH_POINTS + (t0,)) for plane, t0 in _power_planes()]
    solver = [(plane, EH_POINTS + tuple(F(r) for r in roots))
              for roots in ([0, 1, 2, 3], [0, 1, -1, 5], [F(1, 2), 2, 3, -7],
                            [1, -2, F(1, 3), F(-4, 5)])
              for plane in wronski_solver_gr24(roots)]
    assert all(any(isinstance(c, QuadExt) for p in plane.basis for c in p.coeffs)
               for plane, _ in solver)
    return seeded + planted + solver


def test_eh_report_on_scaled_wronskian_matches_public_route():
    ramified = 0
    for plane, points in _eh_cases():
        W = wronskian(plane)
        scaled = _scaled_wronskian(plane)
        D = F(plane._scale ** plane.k)
        padded = list(W.coeffs) + [0] * (len(scaled) - len(W.coeffs))
        assert [c / D for c in scaled] == padded, plane
        for t0 in points:
            rep = _eh_report(plane, scaled, t0)
            public = (codim(ramification_condition(plane, t0)),
                      vanishing_order(W, t0))
            # the jet-matrix pivots a_0 < ... < a_(k-1) have codim
            # sum(a_i - i); repeated division reads the root order
            oracle = (sum(a - i for i, a in enumerate(_jet_pivots(plane, t0))),
                      _divide_linear_order(W, t0))
            assert (rep.codim, rep.wronski_order) == public == oracle, (plane, t0)
            assert rep.equal
            ramified += rep.wronski_order > 0
    assert ramified >= 60
