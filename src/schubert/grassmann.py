"""Schubert conditions on Grassmannians: membership, tangents, certificates.

Conventions.  A condition I = (i_1 < ... < i_k) on Gr(k, m) relative to a
flag E is

    dim(V  cap  E_{i_j}) >= j        for j = 1, ..., k,

with codimension sum(m - k + j - i_j).  The open cell consists of the V
whose intersection dimensions jump exactly at the i_j.  At an open-cell
point the tangent space of the Schubert variety inside Hom(V, C^m/V) is cut
out by

    phi(V cap E_{i_j})  subset  (E_{i_j} + V) / V     for every j,

and a list of conditions is transverse at V when the stacked constraint
rows have rank equal to the sum of the codimensions.  Every query reads
one echelon form (Fulton, Young Tableaux, ch. 9): V written in the flag's
basis, its columns reduced to distinct lowest nonzero rows p_1 < ... < p_k.
Then dim(V cap E_i) = #{j : p_j <= i}; V satisfies I iff p_j <= i_j for
every j, and lies in the open cell iff p = I.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import (DegenerateConfiguration, DimensionMismatch, InfinitelyMany,
                     NegativeExpectedDimension, NotInCellInterior, NotMember)
from .flags import Flag
from .linalg import (Matrix, _coerce, _echelon, _integer_rows, _matrix,
                     _rational, _require_ints, _rref_rows, _unit_rows, det,
                     rank, solve_quadratic)

__all__ = [
    "SchubertCondition",
    "GrPoint",
    "PermCondition",
    "TangentSpace",
    "TransversalityCertificate",
    "codim",
    "iota",
    "membership",
    "cell_interior",
    "tangent_space",
    "transversality_certificate",
    "small_solver_gr24",
    "pad_to_zero_dimensional",
    "perm_codim",
    "flag_manifold_dim",
    "expected_dim_report",
    "ExpectedDimReport",
    "condition_codim",
]


@dataclass(frozen=True)
class SchubertCondition:
    """Indices 1 <= i_1 < ... < i_k <= m defining a condition on Gr(k, m)."""

    k: int
    m: int
    indices: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(self.indices))
        _require_ints("k, m and the indices", self.k, self.m, *self.indices)
        if self.k < 1 or self.k > self.m:
            raise ValueError(f"need 1 <= k <= m, got k={self.k}, m={self.m}")
        if len(self.indices) != self.k:
            raise ValueError("index count must equal k")
        prev = 0
        for i in self.indices:
            if not prev < i <= self.m:
                raise ValueError(f"indices must increase strictly within 1..{self.m}")
            prev = i


def codim(cond: SchubertCondition) -> int:
    """Codimension of the condition in Gr(k, m)."""
    return sum(cond.m - cond.k + j - i for j, i in enumerate(cond.indices, 1))


def _require_gr_sizes(k: int, m: int) -> None:
    """Raise unless k and m are ints (TypeError) with 1 <= k < m."""
    _require_ints("k and m", k, m)
    if not 1 <= k < m:
        raise ValueError(f"need 1 <= k < m, got k={k}, m={m}")


def iota(k: int, m: int) -> SchubertCondition:
    """The unique codimension-one condition (m-k, m-k+2, m-k+3, ..., m)."""
    _require_gr_sizes(k, m)
    return SchubertCondition(k, m, (m - k,) + tuple(range(m - k + 2, m + 1)))


@dataclass(frozen=True)
class GrPoint:
    """A point of Gr(k, m): an m x k basis matrix of full column rank.

    The rank is read from one echelon form of the basis columns, whose
    non-pivot columns, the standard basis vectors completing V, are kept
    as ``_complement``; it takes no part in equality, hashing or the repr.
    """

    basis: Matrix
    _complement: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, m = self.basis.cols, self.basis.rows
        vt, _ = _integer_rows([self.basis.column(a) for a in range(k)])
        pivots, _ = _echelon(vt, m)
        if len(pivots) != k:
            raise ValueError("basis columns are linearly dependent")
        object.__setattr__(self, "_complement",
                           tuple(c for c in range(m) if c not in pivots))

    @property
    def ambient_dim(self) -> int:
        return self.basis.rows

    @property
    def k(self) -> int:
        return self.basis.cols


def _check_compatible(V: GrPoint, cond: SchubertCondition, F: Flag) -> None:
    if V.ambient_dim != cond.m or F.ambient_dim != cond.m:
        raise DimensionMismatch(
            f"condition lives on Gr({cond.k},{cond.m}); point has m={V.ambient_dim},"
            f" flag has m={F.ambient_dim}")
    if V.k != cond.k:
        raise DimensionMismatch(f"condition needs k={cond.k}, point has k={V.k}")


def _position(V: GrPoint, F: Flag):
    """Jump rows and adapted basis of V relative to F, from echelon forms.

    ``_rref_rows`` reduces the row list [F | V | W], W the standard columns
    completing V (``V._complement``), to [I | C | X] with C = F^-1 V and
    X = F^-1 W.  The rows of the rref of
    [C^T with its columns reversed | I_k] are c_a followed by alpha_a: c_a,
    read bottom-up, has its last nonzero entry c_a[p_a] = 1 and is zero at
    the other jump rows, and V alpha_a = F c_a.  Returns the jump rows
    p_1 < ... < p_k, the columns c_a each followed by alpha_a, and X's rows.
    """
    k, m = V.k, V.ambient_dim
    one, zero = _rational(1), _rational(0)
    R = [[*F.basis.row(r), *V.basis.row(r),
          *(one if r == c else zero for c in V._complement)]
         for r in range(m)]
    _rref_rows(R, 2 * m)
    # row a: column a of C, bottom row first, then e_a to track alpha_a
    T = [[R[r][m + a] for r in reversed(range(m))] + unit
         for a, unit in enumerate(_unit_rows(k))]
    lows = _rref_rows(T, m + k)
    # pivot column j is row m - 1 - j of C (jump row m - j), so the pivot
    # rows come in decreasing jump order; each is read back top-down
    return (tuple(m - j for j in reversed(lows)),
            [row[m - 1::-1] + row[m:] for row in reversed(T)],
            [row[m + k:] for row in R])


def _satisfies(jumps: tuple[int, ...], cond: SchubertCondition) -> bool:
    return all(p <= i for p, i in zip(jumps, cond.indices))


def membership(V: GrPoint, cond: SchubertCondition, F: Flag) -> bool:
    """Whether dim(V cap E_{i_j}) >= j for every j, i.e. p_j <= i_j."""
    _check_compatible(V, cond, F)
    return _satisfies(_position(V, F)[0], cond)


def cell_interior(V: GrPoint, cond: SchubertCondition, F: Flag) -> bool:
    """Whether V's jump rows are exactly the i_j; raises NotMember off the variety."""
    _check_compatible(V, cond, F)
    jumps = _position(V, F)[0]
    if not _satisfies(jumps, cond):
        raise NotMember(f"point is not in the Schubert variety of {cond.indices}")
    return jumps == cond.indices


@dataclass(frozen=True)
class TangentSpace:
    """Linear constraints cutting the tangent space inside Hom(V, C^m/V).

    C^m/V is spanned by the standard basis vectors that complete V.
    ``constraints`` has k*(m-k) columns; the coordinate phi_{r,c} (image
    coordinate r of basis vector c of V) sits in column c*(m-k) + r.  Its
    codim(cond) rows are linearly independent.
    """

    point: GrPoint
    constraints: Matrix


def _primitive(vec: Sequence) -> list:
    """A rational vector scaled to a primitive integer one; others unchanged."""
    (row,), _ = _integer_rows([vec])
    if not all(type(n) is int for n in row):
        return row
    g = gcd(*row) or 1
    return [n // g for n in row]


def tangent_space(V: GrPoint, cond: SchubertCondition, F: Flag) -> TangentSpace:
    """Constraint rows for the tangent space at an open-cell point.

    There c_a (see _position) lies in E_{i_a}, and the conditions become
    lambda(phi(c_a)) = 0 for the functionals lambda on C^m/V vanishing on
    E_{i_a}; mu_r = e_r - sum_{p_l > r} c_l[r] e_{p_l}, for the non-jump
    rows r > i_a, are a basis of them in flag coordinates.  So there is one
    row alpha_a (x) (mu_r X) per such (a, r): codim(cond) independent rows,
    each a primitive integer vector when rational.  Raises NotInCellInterior
    away from the open cell.
    """
    _check_compatible(V, cond, F)
    jumps, cols, X = _position(V, F)
    if not _satisfies(jumps, cond):
        raise NotInCellInterior("point is not even in the Schubert variety")
    if jumps != cond.indices:
        raise NotInCellInterior(
            "point satisfies deeper incidences than the condition requires")
    k, m = V.k, V.ambient_dim
    functionals = {}
    for r in range(cond.indices[0], m):
        if r + 1 in jumps:
            continue
        mu_x = X[r]
        for c, p in zip(cols, jumps):
            if p > r + 1 and c[r]:
                mu_x = [x - c[r] * y for x, y in zip(mu_x, X[p - 1])]
        functionals[r] = _primitive(mu_x)
    rows_out = [[_coerce(x * y or 0)
                 for x in _primitive(c[m:]) for y in q]
                for c, i in zip(cols, cond.indices)
                for r, q in functionals.items() if r >= i]
    return TangentSpace(point=V,
                        constraints=_matrix(rows_out, len(rows_out), k * (m - k)))


@dataclass(frozen=True)
class TransversalityCertificate:
    transverse: bool
    tangent_codim: int
    codim_sum: int


def transversality_certificate(
        V: GrPoint,
        conditions: Sequence[tuple[SchubertCondition, Flag]]) -> TransversalityCertificate:
    """Stack all tangent constraints at V and compare rank with codim sum."""
    k, m = V.k, V.ambient_dim
    rows = []
    total = 0
    for idx, (cond, F) in enumerate(conditions):
        try:
            T = tangent_space(V, cond, F)
        except NotInCellInterior as e:
            raise NotInCellInterior(f"condition {idx}: {e}") from None
        rows.extend(T.constraints._data)
        total += codim(cond)
    r = len(_echelon(_integer_rows(rows)[0], k * (m - k))[0])
    return TransversalityCertificate(transverse=(r == total),
                                     tangent_codim=r, codim_sum=total)


# -- the four-lines solver ---------------------------------------------------


def small_solver_gr24(flags: Sequence[Flag]) -> list[GrPoint]:
    """All V in Gr(2, 4) meeting the 2-plane of each of four flags.

    Writes V = span(a, b) with a in the first flag's 2-plane A and b in the
    second's B (valid whenever A and B are transverse), turns the remaining
    two incidences into a bilinear equation each on P^1 x P^1, eliminates
    the second factor, and solves the resulting quadratic exactly over a
    quadratic extension.  Generically returns 2 points.

    Raises DegenerateConfiguration when two of the 2-planes meet or when the
    quadratic has a double root, and InfinitelyMany when the solution set is
    positive-dimensional.
    """
    flags = list(flags)
    if len(flags) != 4:
        raise ValueError("exactly four flags are required")
    for f in flags:
        if f.ambient_dim != 4:
            raise DimensionMismatch("flags must live in C^4")
    planes = [f.prefix(2) for f in flags]
    for i in range(4):
        for j in range(i + 1, 4):
            if rank(planes[i].hstack(planes[j])) != 4:
                raise DegenerateConfiguration(
                    f"2-planes of flags {i} and {j} are not transverse")

    a1, a2 = planes[0].column(0), planes[0].column(1)
    b1, b2 = planes[1].column(0), planes[1].column(1)

    def pencil_matrix(cplane: Matrix) -> list[list]:
        c1, c2 = cplane.column(0), cplane.column(1)
        return [[det(Matrix.from_columns([ap, bq, c1, c2]))
                 for bq in (b1, b2)] for ap in (a1, a2)]

    M = pencil_matrix(planes[2])
    N = pencil_matrix(planes[3])

    # Q(x0, x1) = (x^T M)_0 (x^T N)_1 - (x^T M)_1 (x^T N)_0
    c00 = M[0][0] * N[0][1] - M[0][1] * N[0][0]
    c01 = M[0][0] * N[1][1] + M[1][0] * N[0][1] - M[0][1] * N[1][0] - M[1][1] * N[0][0]
    c11 = M[1][0] * N[1][1] - M[1][1] * N[1][0]
    if not (c00 or c01 or c11):
        raise InfinitelyMany("every line through the first two planes works")
    disc = c01 * c01 - 4 * c00 * c11
    if not disc:
        raise DegenerateConfiguration("double solution: the discriminant vanishes")

    xs: list[tuple] = []
    if c11:
        for r in solve_quadratic(c11, c01, c00):
            xs.append((_rational(1), r))
    else:
        xs.append((_rational(1), -c00 / c01))
        xs.append((_rational(0), _rational(1)))

    out = []
    for x0, x1 in xs:
        # u = 0 would put B and C in the 3-space span(a, C), so they would
        # meet; the transversality checks above rule that out
        u = (x0 * M[0][0] + x1 * M[1][0], x0 * M[0][1] + x1 * M[1][1])
        y0, y1 = u[1], -u[0]
        col_a = [x0 * a1[r] + x1 * a2[r] for r in range(4)]
        col_b = [y0 * b1[r] + y1 * b2[r] for r in range(4)]
        out.append(GrPoint(Matrix.from_columns([col_a, col_b])))
    return out


# -- padding and dimension bookkeeping ----------------------------------------


def pad_to_zero_dimensional(
        conditions: Sequence[tuple[SchubertCondition, Fraction]],
        fresh_points: Sequence,
        k: int | None = None,
        m: int | None = None) -> list[tuple[SchubertCondition, Fraction]]:
    """Append codimension-one conditions at fresh points until expected dim 0.

    ``conditions`` pairs each condition with the rational parameter of the
    flag it is imposed at.  Raises ValueError unless 1 <= k < m, then
    NegativeExpectedDimension when the conditions exceed dim Gr(k, m), and
    ValueError when the fresh points collide with existing ones or run out.
    """
    conditions = [(c, _rational(t)) for c, t in conditions]
    if conditions:
        k = conditions[0][0].k if k is None else k
        m = conditions[0][0].m if m is None else m
    if k is None or m is None:
        raise ValueError("k and m are required when no conditions are given")
    _require_gr_sizes(k, m)
    for c, _ in conditions:
        if (c.k, c.m) != (k, m):
            raise DimensionMismatch("conditions live on different Grassmannians")
    r = expected_dim_report([c for c, _ in conditions], k * (m - k)).expected
    if r < 0:
        raise NegativeExpectedDimension(
            f"codimensions exceed dim Gr({k},{m}) by {-r}")
    fresh = [_rational(u) for u in fresh_points]
    if len(set(fresh)) != len(fresh):
        raise ValueError("fresh points must be pairwise distinct")
    used = {t for _, t in conditions}
    clash = used.intersection(fresh)
    if clash:
        raise ValueError(f"fresh points collide with condition points: {sorted(clash)}")
    if len(fresh) < r:
        raise ValueError(f"need {r} fresh points, got {len(fresh)}")
    pad = iota(k, m)  # last: its k indices cost no more than the input
    return conditions + [(pad, u) for u in fresh[:r]]


@dataclass(frozen=True)
class PermCondition:
    """A permutation condition on a partial flag manifold.

    ``perm`` is in one-line notation on 1..m; its descent positions must lie
    in ``descent_bound`` (the dimension steps of the flag manifold).
    """

    m: int
    perm: tuple[int, ...]
    descent_bound: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(self.perm))
        object.__setattr__(self, "descent_bound", tuple(self.descent_bound))
        _require_ints("m, the permutation and the descent bound",
                      self.m, *self.perm, *self.descent_bound)
        # the length check comes first: m may be huge, and range(1, m + 1)
        # is only built once it equals len(perm)
        if (len(self.perm) != self.m
                or sorted(self.perm) != list(range(1, self.m + 1))):
            raise ValueError(f"not a permutation of 1..{self.m}: {self.perm}")
        bound = set(self.descent_bound)
        if not all(1 <= d < self.m for d in bound):
            raise ValueError("descent bound positions must lie in 1..m-1")
        descents = {i + 1 for i in range(self.m - 1)
                    if self.perm[i] > self.perm[i + 1]}
        if not descents <= bound:
            raise ValueError(
                f"permutation {self.perm} has descents {sorted(descents)}"
                f" outside the allowed steps {sorted(bound)}")


def perm_codim(cond: PermCondition) -> int:
    """Codimension of the permutation condition: the inversion count."""
    p = cond.perm
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j])


def flag_manifold_dim(dims: Sequence[int], m: int) -> int:
    """Dimension of the manifold of flags with the given subspace dims in C^m.

    The sum over pairs of consecutive dimension gaps of their products,
    computed as (m^2 - sum of squared gaps) / 2 since the gaps sum to m; for
    a single step k this is k*(m-k), and for the complete flag m*(m-1)/2.
    """
    dims = list(dims)
    _require_ints("the dimensions and m", *dims, m)
    if not dims or any(d <= 0 or d >= m for d in dims):
        raise ValueError("subspace dimensions must lie strictly between 0 and m")
    if sorted(set(dims)) != dims:
        raise ValueError("subspace dimensions must increase strictly")
    gaps = [dims[0]] + [b - a for a, b in zip(dims, dims[1:])] + [m - dims[-1]]
    return (m * m - sum(g * g for g in gaps)) // 2


def condition_codim(cond) -> int:
    if isinstance(cond, SchubertCondition):
        return codim(cond)
    if isinstance(cond, PermCondition):
        return perm_codim(cond)
    raise TypeError(f"not a condition: {cond!r}")


@dataclass(frozen=True)
class ExpectedDimReport:
    expected: int
    empty_for_general: bool


def expected_dim_report(conditions: Iterable, ambient_dim: int) -> ExpectedDimReport:
    """Ambient dimension minus total codimension; negative means empty for
    general flags."""
    _require_ints("the ambient dimension", ambient_dim)
    expected = ambient_dim - sum(condition_codim(c) for c in conditions)
    return ExpectedDimReport(expected=expected, empty_for_general=expected < 0)
