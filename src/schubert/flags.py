"""Rational normal curves, osculating flags, bilinear forms and nilpotents.

Supported groups act on C^m for m = ambient dimension:

* SL(m)       -- no form; the curve is the moment curve (1, t, ..., t^(m-1)).
* Sp(2n)      -- alternating form; curve entries t^j/j! with signs flipping
                 alternately past entry n.
* SO(2n+1)    -- symmetric form (anti-diagonal ones); same divided-power
                 curve shape, one entry longer.
* SO(2n)      -- only a principal nilpotent is constructed; no curve, flag
                 or form is attached to this kind.

All osculating flags here are exact: curve entries are polynomials over Q,
and their derivatives at rational points are computed over Z.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import factorial
from operator import mul

from .errors import DimensionMismatch, UnsupportedGroup
from .linalg import (Matrix, _echelon, _exp_rows, _integer_rows, _matrix,
                     _nilpotent_powers, _ratio, _rational, _require_ints,
                     _unit_rows, rank)
from .poly import PolyQ

__all__ = [
    "GroupKind",
    "Flag",
    "BilinearForm",
    "curve_polynomials",
    "curve_point",
    "osculating_flag",
    "gram_matrix",
    "is_isotropic_flag",
    "principal_nilpotent",
    "nilpotency_index",
    "exp_translate_flag",
    "flags_equal",
    "random_isotropic_flag",
]

_TAGS = ("SL", "Sp", "SO_odd", "SO_even")


@dataclass(frozen=True)
class GroupKind:
    """A classical group tag with its size parameter (m for SL, n otherwise)."""

    tag: str
    param: int

    def __post_init__(self):
        if self.tag not in _TAGS:
            raise ValueError(f"unknown group tag {self.tag!r}")
        _require_ints("the group parameter", self.param)
        low = 2 if self.tag == "SL" else 1
        if self.param < low:
            raise ValueError(f"{self.tag} needs parameter >= {low}")

    @classmethod
    def sl(cls, m: int) -> "GroupKind":
        return cls("SL", m)

    @classmethod
    def sp(cls, n: int) -> "GroupKind":
        return cls("Sp", n)

    @classmethod
    def so_odd(cls, n: int) -> "GroupKind":
        return cls("SO_odd", n)

    @classmethod
    def so_even(cls, n: int) -> "GroupKind":
        return cls("SO_even", n)

    @property
    def ambient_dim(self) -> int:
        if self.tag == "SL":
            return self.param
        if self.tag == "Sp":
            return 2 * self.param
        if self.tag == "SO_odd":
            return 2 * self.param + 1
        return 2 * self.param

    def __str__(self):
        return f"{'SO' if self.tag.startswith('SO') else self.tag}({self.ambient_dim})"


@dataclass(frozen=True)
class Flag:
    """A complete flag in C^m, stored as an invertible basis matrix.

    Column i spans the new direction of the i-th subspace: the j-th subspace
    of the flag is the span of the first j columns.  The bases this module
    builds (coordinate, osculating, exp(t*eta)) hold the shared Fraction of
    ``linalg._rational`` for each whole entry in -256..256.  ``_rows``, not
    a field and so unseen by equality, hashing and repr, holds the basis rows over
    one common denominator; for a rational basis, ints equal to the basis
    times some positive integer: :func:`_integer_rows` of it, computed on
    first use, or the rows :func:`_flag_of` was given.
    """

    ambient_dim: int
    basis: Matrix

    def __post_init__(self):
        m = self.ambient_dim
        _require_ints("the ambient dimension", m)
        if self.basis.rows != m or self.basis.cols != m:
            raise DimensionMismatch(
                f"flag basis must be {m}x{m}, got {self.basis.rows}x{self.basis.cols}")
        if rank(self.basis) != m:
            raise ValueError("flag basis matrix is singular")

    @classmethod
    def coordinate(cls, m: int) -> "Flag":
        return cls(m, Matrix.identity(m))

    def prefix(self, i: int) -> Matrix:
        """Basis of the i-dimensional subspace, as an m x i matrix."""
        return self.basis.take_columns(range(i))

    @cached_property
    def _rows(self) -> tuple[tuple, ...]:
        """The rows of :func:`_integer_rows`; only read."""
        return tuple(map(tuple, _integer_rows(self.basis._data)[0]))


def _flag_of(m: int, rows: list[list[int]], den: int) -> Flag:
    """The Flag with basis ``rows / den`` and ``_rows`` the m x m integer
    ``rows`` themselves, den > 0 (see :class:`Flag`).  Both callers build
    rows lower triangular with a nonzero diagonal for every t, so
    invertible; any other rows, singular ones among them, raise ValueError.
    That check proves the entries above the diagonal zero: they are the
    shared 0, and the rest, built by :func:`linalg._ratio`, share theirs."""
    if any(not row[i] or any(row[i + 1:]) for i, row in enumerate(rows)):
        raise ValueError("flag rows are singular or not lower triangular")
    flag = object.__new__(Flag)
    object.__setattr__(flag, "ambient_dim", m)
    object.__setattr__(flag, "basis", _matrix(
        [[_ratio(x, den) for x in row[:i + 1]] + [_rational(0)] * (m - 1 - i)
         for i, row in enumerate(rows)], m, m))
    flag.__dict__["_rows"] = tuple(map(tuple, rows))
    return flag


@dataclass(frozen=True)
class BilinearForm:
    """A nondegenerate bilinear form given by its Gram matrix."""

    kind: str  # "alternating" | "symmetric"
    gram: Matrix

    def __post_init__(self):
        if self.kind not in ("alternating", "symmetric"):
            raise ValueError(f"unknown form kind {self.kind!r}")
        g = self.gram
        if g.rows != g.cols:
            raise DimensionMismatch("Gram matrix must be square")
        want = -g if self.kind == "alternating" else g
        if g.transpose() != want:
            raise ValueError(f"Gram matrix is not {self.kind}")
        if rank(g) != g.rows:
            raise ValueError("Gram matrix is degenerate")

    @property
    def ambient_dim(self) -> int:
        return self.gram.rows

    @cached_property
    def _rows(self) -> tuple[tuple, ...]:
        """:func:`_integer_rows` of the Gram matrix, built once; only read."""
        return tuple(map(tuple, _integer_rows(self.gram._data)[0]))


# -- curves and osculating flags -------------------------------------------


def curve_polynomials(kind: GroupKind) -> tuple[PolyQ, ...]:
    """The m coordinate polynomials of the group's rational normal curve.

    For SL(m) these are 1, t, ..., t^(m-1).  For Sp(2n) and SO(2n+1) the
    j-th entry is t^j/j!, with the sign flipping on each step past j = n.
    """
    if kind.tag == "SL":
        return tuple(PolyQ.monomial(j) for j in range(kind.param))
    if kind.tag in ("Sp", "SO_odd"):
        n = kind.param
        m = kind.ambient_dim
        out = []
        for j in range(m):
            sign = 1 if j <= n else (-1) ** (j - n)
            out.append(PolyQ.monomial(j, _ratio(sign, factorial(j))))
        return tuple(out)
    raise UnsupportedGroup(f"{kind} carries no distinguished curve")


def curve_point(kind: GroupKind, t) -> Matrix:
    """The curve evaluated at rational t, as an m x 1 column."""
    t = _rational(t)
    return Matrix.from_columns([[p(t) for p in curve_polynomials(kind)]])


@lru_cache(maxsize=32)
def _curve_rows(kind: GroupKind) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Row j: a_j * j!/(j-i)! for i = 0..j, curve entry j being the monomial
    a_j * t^j / L, a_j an int; and the common denominator L."""
    (lead,), L = _integer_rows([[p.coeffs[-1] for p in curve_polynomials(kind)]])
    return tuple(tuple(a * factorial(j) // factorial(j - i) for i in range(j + 1))
                 for j, a in enumerate(lead)), L


def osculating_flag(kind: GroupKind, t) -> Flag:
    """The flag of derivative spans of the curve at t.

    Column i holds the (i-1)-st derivative of the curve.  Every curve entry
    is one monomial a_j * t^j / L, a_j an int and L the common denominator,
    so with t = u/v its i-th derivative (from 0) at t is the closed form
    a_j * j!/(j-i)! * u^(j-i) / (L * v^(j-i)), and 0 for i > j.  Over
    L * v^(m-1) that is the integer a_j * j!/(j-i)! * u^(j-i) * v^(m-1-j+i)
    (a coefficient of :func:`_curve_rows` times one of m products of
    powers of u and v), so row j ends at its diagonal a_j * j! * v^(m-1),
    nonzero for every t: the shape :func:`_flag_of` checks.
    """
    t = _rational(t)
    u, v = t.numerator, t.denominator
    m = kind.ambient_dim
    curve, L = _curve_rows(kind)
    z = [u ** k * v ** (m - 1 - k) for k in range(m)]
    rows = [[c * z[j - i] for i, c in enumerate(cs)] + [0] * (m - 1 - j)
            for j, cs in enumerate(curve)]
    return _flag_of(m, rows, L * z[0])


# -- bilinear forms ----------------------------------------------------------


@lru_cache(maxsize=32)
def gram_matrix(kind: GroupKind) -> BilinearForm:
    """The preserved bilinear form: alternating for Sp, symmetric for SO(2n+1).

    Sp(2n): anti-diagonal with +1 in the first n rows and -1 in the last n.
    SO(2n+1): anti-diagonal ones.  Cached per kind: the form is immutable.
    """
    if kind.tag not in ("Sp", "SO_odd"):
        raise UnsupportedGroup(f"{kind} preserves no bilinear form here")
    m, sp = kind.ambient_dim, kind.tag == "Sp"
    g = [[_rational(0)] * m for _ in range(m)]
    for i in range(m):
        g[i][m - 1 - i] = _rational(-1 if sp and i >= kind.param else 1)
    return BilinearForm("alternating" if sp else "symmetric", _matrix(g, m, m))


def is_isotropic_flag(flag: Flag, form: BilinearForm) -> bool:
    """Whether the i-dim subspace pairs to zero with the (m-i)-dim one, all i.

    Equivalently, with P = basis^T * gram * basis, every entry P[a][b] with
    (1-indexed) a + b <= m vanishes.  P is formed from the columns of the
    flag's ``_rows`` (see :class:`Flag`) and the form's ``_rows``, the
    Gram matrix scaled once per form; nonzero scalings of the
    basis and of the Gram matrix leave the zero pattern of P unchanged.
    """
    m = flag.ambient_dim
    if form.ambient_dim != m:
        raise DimensionMismatch(
            f"flag in dimension {m}, form in dimension {form.ambient_dim}")
    cols = list(zip(*flag._rows))
    nonzeros = [[(b, g) for b, g in enumerate(row) if g] for row in form._rows]
    # column j of gram * basis, for the columns some pairing needs
    gcols = [[sum(g * col[b] for b, g in row) for row in nonzeros]
             for col in cols[:m - 1]]
    # BilinearForm admits only symmetric or alternating Gram matrices, so P
    # is symmetric or antisymmetric and the pairings with i <= j suffice
    return not any(sum(map(mul, cols[i], gcols[j]))
                   for j in range(m - 1) for i in range(min(j, m - 2 - j) + 1))


# -- principal nilpotents -----------------------------------------------------


def principal_nilpotent(kind: GroupKind) -> Matrix:
    """A principal nilpotent element of the group's Lie algebra.

    SL(m): subdiagonal (1, 2, ..., m-1).
    Sp(2n): subdiagonal of n ones then n-1 minus-ones.
    SO(2n+1): subdiagonal of n ones then n minus-ones.
    SO(2n): subdiagonal (1, ..., 1, 0, -1, ..., -1), plus +1 at row n+1,
    column n-1 and -1 at row n+2, column n (1-indexed), the orientation for
    which the (2n-1)-st power vanishes.
    """
    m = kind.ambient_dim
    a = [[_rational(0)] * m for _ in range(m)]
    if kind.tag == "SL":
        sub = list(range(1, m))
    elif kind.tag == "Sp":
        n = kind.param
        sub = [1] * n + [-1] * (n - 1)
    elif kind.tag == "SO_odd":
        n = kind.param
        sub = [1] * n + [-1] * n
    else:  # SO_even
        n = kind.param
        sub = [1] * (n - 1) + [0] + [-1] * (n - 1)
        if n >= 2:
            a[n][n - 2] = _rational(1)
            a[n + 1][n - 1] = _rational(-1)
    for i, v in enumerate(sub):
        if v:
            a[i + 1][i] = _rational(v)
    return _matrix(a, m, m)


def nilpotency_index(N: Matrix) -> int:
    """The least p >= 1 with N^p = 0; NotNilpotent when there is none.

    One more than the number of nonzero powers that the power loop shared
    with :func:`exp_nilpotent` lists.
    """
    return len(_nilpotent_powers(N)[1]) + 1


@lru_cache(maxsize=32)
def _principal_powers(kind: GroupKind) -> tuple[int, tuple]:
    """:func:`_nilpotent_powers` of :func:`principal_nilpotent`, each
    power's rows of ``(column, entry)`` pairs as tuples."""
    D, powers = _nilpotent_powers(principal_nilpotent(kind))
    return D, tuple(tuple(map(tuple, P)) for P in powers)


def exp_translate_flag(kind: GroupKind, t) -> Flag:
    """The flag exp(t * eta) applied to the coordinate flag, which equals the
    osculating flag at t (the tests check every kind).  Its rows are den * I
    plus multiples of powers of the strictly lower-triangular eta: the shape
    :func:`_flag_of` checks.
    """
    if kind.tag == "SO_even":
        raise UnsupportedGroup(f"{kind} has no attached flag family")
    t = _rational(t)
    m = kind.ambient_dim
    return _flag_of(m, *_exp_rows(*_principal_powers(kind), m, t))


def flags_equal(F: Flag, G: Flag) -> bool:
    """Whether two bases present the same flag (equal prefix spans for all i).

    That holds iff F^-1 * G is upper triangular.  One echelon form of
    [F | G] leaves rows E * [F | G] with E * F upper triangular and
    invertible, so it is enough that the strictly lower part of E * G
    vanishes.  When both flags are rational the echelon form is
    fraction-free on their ``_rows`` (see :class:`Flag`) side by side, which
    scale F and G by a positive integer each; otherwise it runs on the rows of
    :func:`_integer_rows`, which never sets ints beside irrational entries.
    """
    if F.ambient_dim != G.ambient_dim:
        raise DimensionMismatch(
            f"flags in dimensions {F.ambient_dim} and {G.ambient_dim}")
    m = F.ambient_dim
    rows = [[*f, *g] for f, g in zip(F._rows, G._rows)]
    if not all(type(x) is int for row in rows for x in row):
        rows, _ = _integer_rows([F.basis.row(i) + G.basis.row(i)
                                 for i in range(m)])
    _echelon(rows, 2 * m)
    return not any(rows[i][m + j] for j in range(m) for i in range(j + 1, m))


# -- random isotropic flags ---------------------------------------------------


def random_isotropic_flag(kind: GroupKind, seed: int) -> Flag:
    """A seeded random isotropic flag for Sp(2n) or SO(2n+1).

    The coordinate flag is moved by exp(c*X) for each root element X in
    turn (upper roots first, each half row-major) with small random
    rational c, so the flag is exactly isotropic and fixed by the seed.
    The root at (a, b) is X = E_ab + k*E_(pa,pb) with partner (pa, pb) =
    (m-1-b, m-1-a) and k = -1 for SO(2n+1), -eps_a*eps_b for Sp(2n) (eps
    is +1 on the first n coordinates, -1 on the rest); an anti-diagonal
    root is its own partner and is E_ab alone.  Right multiplication by
    exp(c*X) = 1 + c*X + (c^2/2)*X^2 adds c*col_a to col_b and c*k*col_pa
    to col_pb; X^2 is k*E_(a,pb) when b == pa, k*E_(pa,b) when pb == a,
    and 0 otherwise.
    """
    _require_ints("the seed", seed)
    if kind.tag not in ("Sp", "SO_odd"):
        raise UnsupportedGroup(f"{kind} has no isotropic flags here")
    m, n = kind.ambient_dim, kind.param
    roots = sorted(((a, b) for a in range(m) for b in range(m)
                    if a != b and (m - 1 - b, m - 1 - a) >= (a, b)
                    and not (kind.tag == "SO_odd" and a + b == m - 1)),
                   key=lambda r: r[0] > r[1])
    rng = random.Random(seed)
    g = _unit_rows(m)  # columns
    for a, b in roots:
        c = _ratio(rng.randint(-9, 9), rng.randint(1, 9))
        pa, pb = m - 1 - b, m - 1 - a
        col_b = [x + c * y for x, y in zip(g[b], g[a])]
        if (pa, pb) != (a, b):
            ck = c if kind.tag == "Sp" and (a < n) != (b < n) else -c
            col_pb = [x + ck * y for x, y in zip(g[pb], g[pa])]
            h = ck * c / 2  # the coefficient of X^2
            if b == pa:
                col_pb = [x + h * y for x, y in zip(col_pb, g[a])]
            elif pb == a:
                col_b = [x + h * y for x, y in zip(col_b, g[pa])]
            g[pb] = col_pb
        g[b] = col_b
    return Flag(m, Matrix.from_columns(g))
