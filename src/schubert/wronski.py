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

Everything runs over Z.  A plane's primary form is its integer coefficient
rows, from which a drawn plane builds its basis on first read; the
Wronskian, the plane's vanishing orders and a polynomial's root orders all
read integer rows.  The Wronskian is a Cauchy-Binet sum over the maximal
minors of the rows, the plane's Pluecker coordinates, with Vandermonde
weights: D^k * W over Z for rows scaled by D.  :func:`wronskian` divides it
by D^k; the Eisenbud-Harris check reads the undivided sum, as a nonzero
scale changes no root order, and the codimension from the vanishing orders.
Both orders come from one expansion, :func:`poly._taylor_coefficients`: the
Taylor coefficients at t0 = u/v, scaled by powers of v to stay integers.
A plane over Q(sqrt(d)) runs the same ring operations on its own entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm, prod

from .errors import DegenerateConfiguration, ZeroPolynomial
from .grassmann import GrPoint, SchubertCondition
from .linalg import (Matrix, _echelon, _integer_rows, _rank_rows, _ratio,
                     _rational, _require_ints, solve_quadratic)
from .poly import PolyQ, _taylor_coefficients

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
    """A k-dimensional space of polynomials of degree < m.

    ``_rows`` holds the basis's coefficient rows (lowest degree first, padded
    to m), all scaled by their common denominator ``_scale``: built from the
    basis here, or taken by :func:`_plane_of`, whose basis is built from them
    on first read.  Neither takes part in equality, hashing or the repr.
    """

    m: int
    k: int
    basis: tuple[PolyQ, ...]
    _rows: list = field(init=False, repr=False, compare=False)
    _scale: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))
        _require_ints("m and k", self.m, self.k)
        if self.k < 1 or len(self.basis) != self.k:
            raise ValueError("basis size must equal k >= 1")
        for p in self.basis:
            if not isinstance(p, PolyQ):
                raise TypeError(f"basis entry is a {type(p).__name__}, not a PolyQ")
            if p.degree() >= self.m:
                raise ValueError(f"degree {p.degree()} is not below m = {self.m}")
        rows, scale = _integer_rows([p.coeffs for p in self.basis])
        rows = [row + [0] * (self.m - len(row)) for row in rows]
        if _rank_rows([list(row) for row in rows], self.m) != self.k:
            raise ValueError("basis polynomials are linearly dependent")
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_scale", scale)

    def __getattr__(self, name):  # only for names not stored: a lazy basis
        if name != "basis":
            raise AttributeError(f"'PolyPlane' object has no attribute {name!r}")
        self.__dict__["basis"] = basis = tuple(
            PolyQ([_ratio(x, self._scale) for x in row]) for row in self._rows)
        return basis


def _plane_of(m: int, k: int, rows: list[list[int]], scale: int) -> PolyPlane:
    """The PolyPlane of k independent int ``rows`` (length m) over ``scale``."""
    plane = object.__new__(PolyPlane)
    plane.__dict__.update(m=m, k=k, _rows=rows, _scale=scale)
    return plane


@lru_cache(maxsize=8)
def _cauchy_binet_table(k: int, m: int) -> tuple[list, list]:
    """The Laplace steps and the Cauchy-Binet terms of a k x m plane.

    ``steps[r]`` is (moves, size): ``moves[i]`` holds a pair (c', j) per
    column c outside the i-th r-subset S, where j indexes S + {c} among the
    ``size`` (r+1)-subsets and c' indexes row r's signed entry in the row
    followed by its negation: c, or c + m when #{s in S : s > c} is odd.
    ``terms[j]`` is the exponent of t and the Vandermonde weight of the
    j-th k-subset.
    """
    steps, level = [], [()]
    for _ in range(k):
        index: dict = {}
        moves = [[(c + m * (sum(s > c for s in S) % 2),
                   index.setdefault(tuple(sorted(S + (c,))), len(index)))
                  for c in range(m) if c not in S] for S in level]
        steps.append((moves, len(index)))
        level = list(index)
    terms = [(sum(S) - k * (k - 1) // 2,
              prod(b - a for a, b in combinations(S, 2))) for S in level]
    return steps, terms


def _scaled_wronskian(plane: PolyPlane) -> list:
    """The coefficients of D^k * W, lowest degree first, padded to degree
    k*(m-k); W is the plane's Wronskian and D its ``_scale``.

    By Cauchy-Binet on W = det(A M(t)), with A the plane's k x m coefficient
    rows scaled by D (integers unless the plane is irrational) and M(t)[j][b]
    the b-th derivative of t^j,

        D^k * W(t) = sum over k-subsets S of columns of
            Delta_S(A) * prod_{a < b in S} (b - a) * t^(sum(S) - k(k-1)/2).

    The maximal minors Delta_S come from one pass over the rows, each
    expanding the minors of the rows before it along itself; zero entries
    and zero minors are skipped.
    """
    k, m = plane.k, plane.m
    steps, terms = _cauchy_binet_table(k, m)
    minors = [1]
    for row, (moves, size) in zip(plane._rows, steps):
        signed = row + [-x for x in row]
        expanded = [0] * size
        for minor, targets in zip(minors, moves):
            if minor:
                for c, j in targets:
                    x = signed[c]
                    if x:
                        expanded[j] += x * minor
        minors = expanded
    out = [0] * (k * (m - k) + 1)
    for minor, (e, weight) in zip(minors, terms):
        if minor:
            out[e] += weight * minor
    return out


def wronskian(plane: PolyPlane) -> PolyQ:
    """det of the k x k matrix of derivatives (row a holds the a-th derivative).

    Nonzero for any plane, of degree at most k*(m-k) after the forced factor
    structure; invariant up to scale under change of basis.  It is the
    integer Cauchy-Binet sum of :func:`_scaled_wronskian` divided once by
    D^k; the eh-check reads that sum undivided.
    """
    scale = _rational(plane._scale ** plane.k)
    return PolyQ([c / scale for c in _scaled_wronskian(plane)])


def _root_order(cs: list, t0: Fraction) -> int:
    """The index of the first nonzero :func:`_taylor_coefficients` of the
    coefficient list cs at t0: the multiplicity of t0 as a root.  A nonzero
    scale of cs, or zero padding above its degree, leaves it unchanged.
    """
    for j, h in enumerate(_taylor_coefficients(cs, t0)):
        if h:
            return j
    raise ZeroPolynomial("the zero polynomial vanishes to all orders")


def vanishing_order(f: PolyQ, t0) -> int:
    """Multiplicity of t0 as a root of f; 0 when f(t0) != 0.

    :func:`_root_order` of f scaled to integer coefficients (or kept over
    Q(sqrt(d))); the expansion stops at the first nonzero Taylor
    coefficient.  The eh-check hands the integer sum D^k * W of
    :func:`_scaled_wronskian` to :func:`_root_order` undivided.
    """
    t0 = _rational(t0)
    (cs,), _ = _integer_rows([f.coeffs])
    return _root_order(cs, t0)


def plane_vanishing_orders(plane: PolyPlane, t0) -> tuple[int, ...]:
    """The k distinct vanishing orders at t0 achieved by nonzero elements.

    They are the pivot columns of the k x m jet matrix, whose row c holds
    the :func:`_taylor_coefficients` at t0 of scaled basis row c; nonzero
    row and column scales leave them unchanged, and rows padded to one
    degree m - 1 share their column scales.  Rows are integers for a
    rational plane, whose pivots come from fraction-free elimination, and
    over Q(sqrt(d)) otherwise.
    """
    t0 = _rational(t0)
    rows = [list(_taylor_coefficients(row, t0)) for row in plane._rows]
    return tuple(_echelon(rows, plane.m)[0])


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


def _eh_report(plane: PolyPlane, W: list, t0) -> EHReport:
    """check_eh_identity with W = :func:`_scaled_wronskian` of the plane
    given, so that a caller checking many points computes it once; a scale
    changes no root order.  Codimension: sum of the orders - k(k-1)/2."""
    t0 = _rational(t0)
    c = sum(plane_vanishing_orders(plane, t0)) - plane.k * (plane.k - 1) // 2
    w = _root_order(W, t0)
    return EHReport(codim=c, wronski_order=w, equal=(c == w))


def check_eh_identity(plane: PolyPlane, t0) -> EHReport:
    """Compare the ramification codimension with the Wronskian's root order."""
    return _eh_report(plane, _scaled_wronskian(plane), t0)


def plane_to_grpoint(plane: PolyPlane) -> GrPoint:
    """The Gr(k, m) point of the plane in the divided-power basis above.

    A polynomial with coefficients c_0, ..., c_(m-1) maps to the column with
    entries (-1)^j * c_(m-1-j) / C(m-1, j).
    """
    m = plane.m
    cols = []
    for p in plane.basis:
        c = list(p.coeffs) + [_rational(0)] * (m - len(p.coeffs))
        col = [c[m - 1 - j] * _ratio((-1) ** j, comb(m - 1, j))
               for j in range(m)]
        cols.append(col)
    return GrPoint(Matrix.from_columns(cols))


def wronski_solver_gr24(roots) -> list[PolyPlane]:
    """All 2-planes of cubics whose Wronskian vanishes at four given points.

    Every solution has one monic quadratic and one monic cubic basis element;
    normalizing the cubic to have no quadratic term leaves four unknowns that
    the Wronskian identity pins down to a single quadratic equation, solved
    exactly.  Returns the generic count of 2 planes, over Q(sqrt(d)).
    """
    rs = [_rational(r) for r in roots]
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
        f = PolyQ([q, p, 0, 1])
        g = PolyQ([v, u, 1])
        out.append(PolyPlane(4, 2, (f, g)))
    return out


def random_plane(k: int, m: int, rng: random.Random) -> PolyPlane:
    """A seeded random k-plane of degree < m polynomials: integer rows of
    draws a/b, a then b in [-9, 9] x [1, 9], its basis built on first read.
    Raises ValueError unless 1 <= k <= m, before the first draw."""
    _require_ints("k and m", k, m)
    if not 1 <= k <= m:
        raise ValueError(f"need 1 <= k <= m, got k={k}, m={m}")
    while True:
        draws = [[(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
                 for _ in range(k)]
        D = lcm(*(b // gcd(a, b) for row in draws for a, b in row))
        rows = [[a * D // b for a, b in row] for row in draws]
        if len(_echelon([list(row) for row in rows], m)[0]) == k:
            return _plane_of(m, k, rows, D)
