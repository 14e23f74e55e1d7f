"""Wronskians of polynomial planes and their Schubert-condition dictionary.

A k-plane P of polynomials of degree below m corresponds to a point of
Gr(k, m) via the basis

    q_j(t) = (-1)^j * C(m-1, j) * t^(m-1-j),          j = 0, ..., m-1,

the coefficient expansion of (t - s)^(m-1) in powers of s.  Under this map
the span of the first i derivative columns of the moment-curve flag at t0
pulls back to the polynomials divisible by (t - t0)^(m-i), so intersection
conditions against osculating flags become vanishing-order conditions, at
every rational t0 simultaneously.

The vanishing orders of P at t0 reproduce the order of vanishing of the
Wronskian there: ord(W, t0) equals the codimension of the ramification
condition of P at t0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm, prod

from .errors import DegenerateConfiguration, ZeroPolynomial
from .flags import Flag, osculating_flag
from .grassmann import GrPoint, SchubertCondition, codim
from .linalg import (Matrix, _bareiss_pivots, rank, rref, simplify_scalar,
                     solve_quadratic)
from .poly import PolyQ

__all__ = [
    "PolyPlane",
    "wronskian",
    "vanishing_order",
    "plane_vanishing_orders",
    "ramification_condition",
    "check_eh_identity",
    "EHReport",
    "plane_to_grpoint",
    "wronski_solver_gr24",
    "random_plane",
]


@dataclass(frozen=True)
class PolyPlane:
    """A k-dimensional space of polynomials of degree < m."""

    m: int
    k: int
    basis: tuple[PolyQ, ...]

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        if self.k < 1 or len(self.basis) != self.k:
            raise ValueError("basis size must equal k >= 1")
        for p in self.basis:
            if p.degree() >= self.m:
                raise ValueError(f"degree {p.degree()} is not below m = {self.m}")
        if rank(self.coefficient_matrix()) != self.k:
            raise ValueError("basis polynomials are linearly dependent")

    def coefficient_matrix(self) -> Matrix:
        """k x m matrix whose rows are the coefficient vectors (low degree first)."""
        rows = []
        for p in self.basis:
            row = list(p.coeffs) + [Fraction(0)] * (self.m - len(p.coeffs))
            rows.append(row)
        return Matrix(rows, shape=(self.k, self.m))


def _integer_coeffs(p: PolyQ) -> tuple[list[int], int] | None:
    """p's coefficients times the lcm of their denominators, with that lcm;
    None when a coefficient is irrational."""
    if not all(isinstance(c, Fraction) for c in p.coeffs):
        return None
    scale = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (scale // c.denominator) for c in p.coeffs], scale


def _poly_mul(p: list, q: list) -> list:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _poly_det(grid: list[list[list]]) -> list:
    """Determinant of a square matrix of polynomials, each a coefficient list
    (lowest degree first) of ints or exact scalars, by first-row expansion."""
    n = len(grid)
    if n == 1:
        return grid[0][0]
    out: list = []
    for c in range(n):
        if not grid[0][c]:
            continue
        minor = [row[:c] + row[c + 1:] for row in grid[1:]]
        term = _poly_mul(grid[0][c], _poly_det(minor))
        out += [0] * (len(term) - len(out))
        for i, x in enumerate(term):
            out[i] = out[i] - x if c % 2 else out[i] + x
    return out


def wronskian(plane: PolyPlane) -> PolyQ:
    """det of the k x k matrix of derivatives (row a holds the a-th derivative).

    Nonzero for any plane, of degree at most k*(m-k) after the forced factor
    structure; invariant up to scale under change of basis.  For a rational
    plane each basis polynomial is scaled by the lcm of its denominators, the
    determinant is taken over Z[t], and the result divided once by the
    product of the scales; a plane over Q(sqrt(d)) takes the same determinant
    of its own coefficients.
    """
    scaled = [_integer_coeffs(p) for p in plane.basis]
    rational = all(sc is not None for sc in scaled)
    row = ([cs for cs, _ in scaled] if rational
           else [list(p.coeffs) for p in plane.basis])
    grid = [row]
    for _ in range(plane.k - 1):
        grid.append([[j * c for j, c in enumerate(cs)][1:] for cs in grid[-1]])
    det = _poly_det(grid)
    if rational:
        scale = prod(s for _, s in scaled)
        det = [Fraction(c, scale) for c in det]
    return PolyQ(det)


def vanishing_order(f: PolyQ, t0) -> int:
    """Multiplicity of t0 as a root of f; 0 when f(t0) != 0."""
    if f.is_zero:
        raise ZeroPolynomial("the zero polynomial vanishes to all orders")
    t0 = Fraction(t0)
    order = 0
    while True:
        q, rem = f.divide_linear(t0)
        if rem:
            return order
        order += 1
        f = q


def _taylor_shift(cs: list, u) -> list:
    """Coefficients of p(x + u) from those of p (lowest degree first)."""
    cs = list(cs)
    for i in range(len(cs) - 1):
        for j in range(len(cs) - 2, i - 1, -1):
            cs[j] += u * cs[j + 1]
    return cs


def plane_vanishing_orders(plane: PolyPlane, t0) -> tuple[int, ...]:
    """The k distinct vanishing orders at t0 achieved by nonzero elements.

    They are the pivot columns of the k x m jet matrix, whose row c holds the
    Taylor coefficients of basis polynomial c at t0; nonzero row and column
    scales leave them unchanged.  For a rational plane and t0 = u/v each row
    is integral: with p scaled by the lcm of its denominators,
    v^(m-1)*p(x/v) is shifted by u and its x^j coefficient multiplied by v^j,
    and the pivots come from fraction-free elimination.  A plane over
    Q(sqrt(d)) is shifted by t0 itself and row-reduced exactly.
    """
    t0 = Fraction(t0)
    m = plane.m
    scaled = [_integer_coeffs(p) for p in plane.basis]
    if any(sc is None for sc in scaled):
        rows = [_taylor_shift(list(p.coeffs) + [0] * (m - len(p.coeffs)), t0)
                for p in plane.basis]
        return rref(Matrix(rows, shape=(plane.k, m)))[1]
    u, v = t0.numerator, t0.denominator
    vp = [v ** j for j in range(m)]
    rows = []
    for cs, _ in scaled:
        cs = cs + [0] * (m - len(cs))
        shifted = _taylor_shift([c * vp[m - 1 - i] for i, c in enumerate(cs)], u)
        rows.append([c * vp[j] for j, c in enumerate(shifted)])
    return tuple(_bareiss_pivots(rows, m))


def ramification_condition(plane: PolyPlane, t0) -> SchubertCondition:
    """The condition (against the osculating flag at t0) that the plane satisfies.

    Vanishing orders a_1 < ... < a_k translate to indices m - a_k < ... < m - a_1.
    """
    orders = plane_vanishing_orders(plane, t0)
    return SchubertCondition(plane.k, plane.m,
                             tuple(sorted(plane.m - a for a in orders)))


@dataclass(frozen=True)
class EHReport:
    codim: int
    wronski_order: int
    equal: bool


def check_eh_identity(plane: PolyPlane, t0) -> EHReport:
    """Compare the ramification codimension with the Wronskian's root order."""
    c = codim(ramification_condition(plane, t0))
    w = vanishing_order(wronskian(plane), t0)
    return EHReport(codim=c, wronski_order=w, equal=(c == w))


def plane_to_grpoint(plane: PolyPlane) -> GrPoint:
    """The Gr(k, m) point of the plane in the divided-power basis above.

    A polynomial with coefficients c_0, ..., c_(m-1) maps to the column with
    entries (-1)^j * c_(m-1-j) / C(m-1, j).
    """
    m = plane.m
    cols = []
    for p in plane.basis:
        c = list(p.coeffs) + [Fraction(0)] * (m - len(p.coeffs))
        col = [simplify_scalar(c[m - 1 - j] * Fraction((-1) ** j, comb(m - 1, j)))
               for j in range(m)]
        cols.append(col)
    return GrPoint(Matrix.from_columns(cols, rows=m))


def wronski_solver_gr24(roots) -> list[PolyPlane]:
    """All 2-planes of cubics whose Wronskian vanishes at four given points.

    Every solution has one monic quadratic and one monic cubic basis element;
    normalizing the cubic to have no quadratic term leaves four unknowns that
    the Wronskian identity pins down to a single quadratic equation, solved
    exactly.  Returns the generic count of 2 planes, over Q(sqrt(d)).
    """
    rs = [Fraction(r) for r in roots]
    if len(rs) != 4:
        raise ValueError("exactly four points are required")
    if len(set(rs)) != 4:
        raise DegenerateConfiguration("the four points must be pairwise distinct")
    w0 = PolyQ.one()
    for r in rs:
        w0 = w0 * PolyQ([-r, 1])
    e0, e1, e2, e3 = w0.coeffs[0], w0.coeffs[1], w0.coeffs[2], w0.coeffs[3]
    # with f = t^3 + p t + q and g = t^2 + u t + v the Wronskian f g' - f' g is
    # -t^4 - 2u t^3 + (p - 3v) t^2 + 2q t + (q u - p v), matched against -w0
    u = e3 / 2
    q = -e1 / 2
    vs = solve_quadratic(3, -e2, -(q * u + e0))
    if vs[0] == vs[1]:
        raise DegenerateConfiguration("double solution: the discriminant vanishes")
    out = []
    for v in vs:
        p = 3 * v - e2
        f = PolyQ([q, simplify_scalar(p), 0, 1])
        g = PolyQ([simplify_scalar(v), u, 1])
        out.append(PolyPlane(4, 2, (f, g)))
    return out


def random_plane(k: int, m: int, rng: random.Random) -> PolyPlane:
    """A seeded random k-plane of polynomials of degree < m."""
    while True:
        polys = tuple(
            PolyQ([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                   for _ in range(m)])
            for _ in range(k))
        try:
            return PolyPlane(m, k, polys)
        except ValueError:
            continue


def osculating_point_flag(m: int, t0) -> Flag:
    """Shorthand for the moment-curve osculating flag in C^m at t0."""
    from .flags import GroupKind

    return osculating_flag(GroupKind.sl(m), t0)
