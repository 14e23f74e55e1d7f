"""Exact dense linear algebra over Q and quadratic extensions Q(sqrt(d)).

Scalars are ``fractions.Fraction``, or :class:`QuadExt` for values that live
in a quadratic field.  There is no floating point anywhere.  Matrices are
small and dense (desk scale).  Every elimination is :func:`_echelon`:
fraction-free (Bareiss) on integer rows and exact field elimination
otherwise, whose forward pass touches only the pivot row's nonzero columns
and inverts a Q(sqrt(d)) pivot once; ``rref``, ``kernel`` and ``inverse``
add one backward pass on the matrix's own scalars, over the pivot row's
nonzero columns too and through one inverse of a Q(sqrt(d)) pivot.  Whether
exact input is scaled to integer rows or passed through as irrational is
decided in one place, :func:`_integer_rows`, for the whole input at once;
rational input is scaled by its one common denominator.  A rank over
Q(sqrt(d)) is first sought modulo a prime (:func:`_rank_rows`): a full rank
there proves a full rank exactly, and every other case runs
:func:`_echelon`.  The private
routines reduce row lists in place; a :class:`Matrix` is built only where a
public function returns one, by the trusted :func:`_matrix` from the
package's scalars.  What counts as an exact rational is decided in one place
too, :func:`_rational`: every Matrix entry from outside, PolyQ entry,
QuadExt part and rational parameter goes through it, an int in -256..256
comes back as one shared Fraction, and a float, str or bool raises
TypeError.  Every Fraction the package constructs rather than computes by
arithmetic (unit blocks, exp(t*N), a whole determinant, flag bases) is
built by it or by :func:`_ratio`, n/d for ints, so a whole number in
-256..256 is that shared Fraction there too; only those two, the table of
shared values and the JSON string parse call ``Fraction``.  Beside it,
:func:`_require_ints` is the one test of a size: every size a public entry
point takes is an int, not a bool.  A rational is
always a Fraction and a QuadExt always irrational: only ``QuadExt(...)`` and
the arithmetic's :func:`_of` decide which.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm, prod
from typing import Iterable, Sequence, Union

from .errors import NoSolution, NotNilpotent

__all__ = [
    "QuadExt",
    "Matrix",
    "rank",
    "rref",
    "kernel",
    "inverse",
    "det",
    "exp_nilpotent",
    "solve_quadratic",
    "square_split",
]

# Trial-division bound for square extraction.  Beyond this we only test the
# remaining cofactor for being a perfect square, so a square of a prime above
# the bound can survive inside d.  That keeps n == s*s*d exactly true always,
# and d genuinely squarefree whenever |n| < _TRIAL_BOUND**3 (the smallest
# exception is 100003**2 * 100019).
_TRIAL_BOUND = 100_000
_BLOCK_PRIMES = 256


@lru_cache(maxsize=1)
def _prime_blocks() -> tuple[int, ...]:
    """Products of _BLOCK_PRIMES consecutive primes up to _TRIAL_BOUND, built
    on first use (not at import: it takes milliseconds)."""
    sieve = bytearray([1]) * (_TRIAL_BOUND + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, isqrt(_TRIAL_BOUND) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, _TRIAL_BOUND + 1, p)))
    primes = [p for p, is_prime in enumerate(sieve) if is_prime]
    return tuple(prod(primes[i:i + _BLOCK_PRIMES])
                 for i in range(0, len(primes), _BLOCK_PRIMES))


# typed: a cached 1 or 0 must not answer for True, False or 0.0
@lru_cache(maxsize=64, typed=True)
def square_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with ``d`` square-reduced; return ``(s, d)``.

    The sign of ``n`` stays on ``d``; ``square_split(0) == (1, 0)``.  ``d``
    is squarefree for every input a test will ever see (see _TRIAL_BOUND);
    the decomposition itself is exact for arbitrary integers.
    """
    _require_ints("square_split's n", n)
    if n == 0:
        return 1, 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    root = isqrt(n)
    if root * root == n:
        return root, sign
    s, d = 1, 1
    for block in _prime_blocks():
        # the successive gcds g_1, g_2, ... hold the block's primes of
        # multiplicity >= 1, >= 2, ...: g_i/g_(i+1) for odd i goes to d, the
        # even-numbered g_i to s
        g = gcd(n, block)
        odd = True
        while g > 1:
            n //= g
            nxt = gcd(n, g)
            if odd:
                d *= g // nxt
            else:
                s *= g
            g, odd = nxt, not odd
        if n == 1:
            break
    if n > 1:
        root = isqrt(n)
        if root * root == n:
            s *= root
        else:
            d *= n
    return s, sign * d


_SMALL = tuple(map(Fraction, range(-256, 257)))  # Fraction(n) at n + 256


def _rational(x) -> Fraction:
    """The one test of an exact rational: a Fraction comes back as it is and
    an int (not a bool) as a Fraction, one shared immutable Fraction for
    each int in -256..256; anything else raises TypeError."""
    if type(x) is int:  # first: isinstance(x, Fraction) is slow for an int
        return _SMALL[x + 256] if -256 <= x <= 256 else Fraction(x)
    if isinstance(x, Fraction):
        return x
    raise TypeError(f"expected an exact rational (int or Fraction), got {x!r}")


def _ratio(n: int, d: int) -> Fraction:
    """n / d for ints n and d > 0: ``_rational(n // d)`` when d divides n,
    so a whole quotient in -256..256 is the shared Fraction, and otherwise a
    new Fraction."""
    q, r = divmod(n, d)
    return Fraction(n, d) if r else _rational(q)


def _require_ints(what: str, *values) -> None:
    """The one test of a size: raise TypeError unless every value is an int
    (not a bool)."""
    if not all(type(x) is int for x in values):
        raise TypeError(f"{what}: expected ints, not bools, got {values!r}")


class QuadExt:
    """An element ``a + b*sqrt(d)`` of the quadratic field Q(sqrt(d)).

    ``d`` is square-reduced by :func:`square_split` (possibly negative), so
    one value may be stored with two different ``d``; equality, hashing and
    arithmetic treat such copies as the same number.  Every QuadExt has
    ``b != 0``: ``QuadExt(a, b, d)`` returns the Fraction ``a + b*s*d``
    when b*sqrt(d) is rational, (s, d) being d's square split, and so does
    :func:`_of` for arithmetic results.  ``QuadExt(...)`` reads ``a`` and
    ``b`` through :func:`_rational` and needs an int ``d``, not a bool;
    arithmetic builds its results from normalized parts without it.  Any
    operand but a QuadExt goes through :func:`_rational`; combining
    elements of two different extensions raises ValueError.
    """

    __slots__ = ("a", "b", "d")

    def __new__(cls, a=0, b=0, d: int = 1) -> Scalar:
        _require_ints("QuadExt's d", d)
        a, b = _rational(a), _rational(b)
        s, d = square_split(d) if b else (0, 0)
        if d in (0, 1):  # b*sqrt(d) is rational: the value is a Fraction
            return a + b * s * d
        return _of(a, b * s, d)

    def __reduce__(self) -> tuple:
        # copy and every pickle protocol rebuild the value through __new__
        return QuadExt, (self.a, self.b, self.d)

    # -- helpers -----------------------------------------------------------
    def _parts(self, other: "QuadExt") -> tuple:
        """other's a and b over the common d.  When d1*d2 == s*s (square_split
        left a large square inside d), b*sqrt(d2) == (b*s/|d1|)*sqrt(d1)."""
        if self.d == other.d:
            return other.a, other.b, self.d
        prod = self.d * other.d
        s = isqrt(prod) if prod > 0 else -1
        if s * s != prod:
            raise ValueError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})")
        return other.a, other.b * s / abs(self.d), self.d

    def conjugate(self) -> "QuadExt":
        return _of(self.a, -self.b, self.d)

    def inverse(self) -> "QuadExt":
        nrm = self.a * self.a - self.d * self.b * self.b
        return _of(self.a / nrm, -self.b / nrm, self.d)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, QuadExt):
            return _of(self.a + _rational(other), self.b, self.d)
        oa, ob, d = self._parts(other)
        return _of(self.a + oa, self.b + ob, d)

    __radd__ = __add__

    def __neg__(self):
        return _of(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if not isinstance(other, QuadExt):
            return _of(self.a - _rational(other), self.b, self.d)
        oa, ob, d = self._parts(other)
        return _of(self.a - oa, self.b - ob, d)

    def __rsub__(self, other):
        return _of(_rational(other) - self.a, -self.b, self.d)

    def __mul__(self, other):
        if not isinstance(other, QuadExt):
            r = _rational(other)
            return _of(self.a * r, self.b * r, self.d)
        oa, ob, d = self._parts(other)
        return _of(self.a * oa + d * self.b * ob, self.a * ob + self.b * oa, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other.inverse()
        r = _rational(other)
        return _of(self.a / r, self.b / r, self.d)

    def __rtruediv__(self, other):
        return self.inverse() * other

    # -- comparison / hashing ----------------------------------------------
    def _key(self) -> tuple:
        # a, b*b*d and the sign of b fix a + b*sqrt(d) whatever square d holds
        return self.a, self.b * self.b * self.d, (self.b > 0) - (self.b < 0)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        tail = f"{self.b}*sqrt({self.d})" if self.b > 0 else f"- {-self.b}*sqrt({self.d})"
        if not self.a:
            return tail if self.b > 0 else "-" + tail[2:]
        mid = "+ " if self.b > 0 else ""
        return f"{self.a} {mid}{tail}"


def _of(a: Fraction, b: Fraction, d: int) -> Scalar:
    """The arithmetic's value of normalized parts: the Fraction a when b == 0,
    and otherwise the QuadExt, built with no square_split lookup."""
    if not b:
        return a
    x = object.__new__(QuadExt)
    x.a, x.b, x.d = a, b, d
    return x


Scalar = Union[Fraction, QuadExt]


def _coerce(x) -> Scalar:
    return x if type(x) is Fraction or isinstance(x, QuadExt) else _rational(x)


class Matrix:
    """Immutable dense matrix of exact scalars, each entry checked."""

    __slots__ = ("_data", "_rows", "_cols")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        c = len(data[0]) if data else 0
        if any(len(row) != c for row in data):
            raise ValueError("ragged rows in matrix literal")
        self._data = data
        self._rows = len(data)
        self._cols = c

    def __reduce__(self) -> tuple:
        # copy and every pickle protocol rebuild through _matrix: 0 x n keeps n
        return _matrix, (self._data, self._rows, self._cols)

    # -- construction --------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Matrix":
        _require_ints("the size", n)
        if n < 0:
            raise ValueError(f"negative size {n}")
        return _matrix(_unit_rows(n), n, n)

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence]) -> "Matrix":
        if not cols:
            raise ValueError("cannot infer row count from zero columns")
        rows = len(cols[0])
        if any(len(col) != rows for col in cols):
            raise ValueError("ragged columns")
        return _matrix([[_coerce(col[i]) for col in cols] for i in range(rows)],
                       rows, len(cols))

    # -- shape / access -------------------------------------------------------
    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    def __getitem__(self, key) -> Scalar:
        i, j = key
        return self._data[i][j]

    def row(self, i: int) -> tuple:
        return self._data[i]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self._data)

    def to_rows(self) -> list[list]:
        return [list(row) for row in self._data]

    def take_columns(self, idxs: Iterable[int]) -> "Matrix":
        idxs = list(idxs)
        return _matrix([[row[j] for j in idxs] for row in self._data],
                       self._rows, len(idxs))

    # -- algebra ---------------------------------------------------------------
    def transpose(self) -> "Matrix":
        return _matrix([[self._data[i][j] for i in range(self._rows)]
                        for j in range(self._cols)], self._cols, self._rows)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self._rows != other._rows:
            raise ValueError("hstack needs equal row counts")
        return _matrix([ra + rb for ra, rb in zip(self._data, other._data)],
                       self._rows, self._cols + other._cols)

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError("shape mismatch in matrix addition")
        return _matrix([[x + y for x, y in zip(ra, rb)]
                        for ra, rb in zip(self._data, other._data)],
                       self._rows, self._cols)

    def __neg__(self):
        return _matrix([[-x for x in row] for row in self._data],
                       self._rows, self._cols)

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self._cols != other._rows:
            raise ValueError("shape mismatch in matrix product")
        bt = other.transpose()._data
        return _matrix([[_dot(row, col) for col in bt] for row in self._data],
                       self._rows, other._cols)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return ((self._rows, self._cols) == (other._rows, other._cols)
                and self._data == other._data)

    def __hash__(self):
        return hash((self._rows, self._cols, self._data))

    def __repr__(self):
        return f"Matrix({self._rows}x{self._cols})"

    def __str__(self):
        return "\n".join("[" + "  ".join(str(x) for x in row) + "]"
                         for row in self._data)


def _matrix(rows: Iterable[Iterable[Scalar]], r: int, c: int) -> Matrix:
    """The r x c Matrix of ``rows``, Fractions or QuadExts the package
    built, stored with no check: the trusted path beside ``Matrix(rows)``.
    A Matrix with no rows keeps its column count c."""
    M = object.__new__(Matrix)
    M._data = tuple(map(tuple, rows))
    M._rows, M._cols = r, c
    return M


def _unit_rows(n: int) -> list[list[Fraction]]:
    """The rows of the n x n identity, of the shared Fractions 1 and 0."""
    one, zero = _SMALL[257], _SMALL[256]
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def _dot(xs, ys):
    acc = _SMALL[256]
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


# -- elimination ----------------------------------------------------------


def _echelon(a: list[list], nc: int) -> tuple[list[int], int]:
    """Row-reduce the row list ``a`` (nc columns) in place to echelon form.

    Returns the pivot columns, which are those of the rref (their count is
    the rank), and the sign of the row permutation used.  When every entry
    is an int the elimination is fraction-free (Bareiss): a row below the
    pivot becomes ``(piv * row - x * piv_row) // prev`` with ``prev`` the
    previous pivot, an exact division, and for a square matrix of full rank
    the last pivot is the determinant of the row-permuted input.  Otherwise
    a row below the pivot with x != 0 in the pivot column loses ``x / piv``
    times the pivot row, over the entries' own field, in the pivot row's
    nonzero columns only (a zero keeps its value); a Q(sqrt(d)) pivot with
    such a row below is inverted once.  The only elimination in the package.
    """
    nr = len(a)
    fraction_free = all(type(x) is int for row in a for x in row)
    pivots: list[int] = []
    sign = prev = 1
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        piv_row = a[r]
        piv = piv_row[c]
        if fraction_free:
            for row in a[r + 1:]:
                x = row[c]
                for j in range(c, nc):
                    row[j] = (piv * row[j] - x * piv_row[j]) // prev
        elif below := [row for row in a[r + 1:] if row[c]]:
            cols = [j for j in range(c, nc) if piv_row[j]]
            inv = piv.inverse() if type(piv) is QuadExt else None
            for row in below:
                f = row[c] / piv if inv is None else row[c] * inv
                for j in cols:
                    row[j] = row[j] - f * piv_row[j]
        prev = piv
        pivots.append(c)
    return pivots, sign


def _rref_rows(a: list[list], nc: int) -> list[int]:
    """Reduce the row list ``a`` (nc columns) in place to reduced row echelon
    form, on its own scalars, and return the pivot columns: :func:`_echelon`,
    then a backward pass that divides each pivot row by its pivot (through
    one inverse for a Q(sqrt(d)) pivot) and clears its column above it.  Both
    passes touch only the pivot row's nonzero columns: a zero keeps its
    value, since 0 / piv is 0 and x - f * 0 is x."""
    pivots, _ = _echelon(a, nc)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = a[r]
        piv = row[c]
        cols = [j for j in range(c, nc) if row[j]]
        inv = piv.inverse() if type(piv) is QuadExt else None
        for j in cols:
            row[j] = row[j] / piv if inv is None else row[j] * inv
        for above in a[:r]:
            f = above[c]
            if f:
                for j in cols:
                    above[j] = above[j] - f * row[j]
    return pivots


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    a = M.to_rows()
    pivots = _rref_rows(a, M.cols)
    return _matrix(a, M.rows, M.cols), tuple(pivots)


def _integer_rows(rows: Sequence[Sequence]) -> tuple[list[list], int]:
    """The whole input times D, the lcm of all its denominators, as int
    rows, and D.

    The one place that decides between Z and Q(sqrt(d)): when any entry of
    the whole input is irrational, every row comes back as a copy of itself
    and D is 1, so that :func:`_echelon` never sees int rows next to
    irrational ones.  Scaling by one nonzero D keeps the rank, the pivots
    and every value up to that one factor.
    """
    if any(type(x) is QuadExt for row in rows for x in row):
        return [list(row) for row in rows], 1
    D = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (D // x.denominator) for x in row]
            for row in rows], D


# The 16 largest primes below 2**31 that are 3 mod 4, in decreasing order: at
# such a p a square d has the square root d**((p + 1)/4) mod p.
_MODULAR_PRIMES = (
    2147483647, 2147483587, 2147483579, 2147483563, 2147483543, 2147483423,
    2147483399, 2147483323, 2147483179, 2147483171, 2147483123, 2147483059,
    2147482951, 2147482943, 2147482867, 2147482859)


def _sqrt_mod_prime(d: int, dens) -> tuple[int, int] | None:
    """``(p, s)`` for the first p of ``_MODULAR_PRIMES`` that divides none of
    the ints ``dens`` and has s = d**((p + 1)/4) mod p with s*s == d mod p;
    None when no listed prime fits."""
    for p in _MODULAR_PRIMES:
        if all(den % p for den in dens):
            s = pow(d, (p + 1) // 4, p)
            if s * s % p == d % p:
                return p, s
    return None


def _modular_rank(a: Sequence[Sequence], nc: int) -> int:
    """The rank of the image in F_p, under the ring map that
    :func:`_rank_rows` states, of the rows ``a`` (nc columns) over
    Q(sqrt(d)), with (p, s) from :func:`_sqrt_mod_prime`; -1 when their
    entries carry more than one d or no listed prime fits.  Reads ``a``
    only."""
    ds, dens = set(), set()
    for row in a:
        for x in row:
            if type(x) is QuadExt:
                ds.add(x.d)
                dens.update((x.a.denominator, x.b.denominator))
            else:
                dens.add(x.denominator)
    found = _sqrt_mod_prime(*ds, dens) if len(ds) == 1 else None
    if found is None:
        return -1
    p, s = found
    inv = {den: pow(den, -1, p) for den in dens}
    rows = [[(x.a.numerator * inv[x.a.denominator]
              + x.b.numerator * inv[x.b.denominator] * s) % p
             if type(x) is QuadExt else x.numerator * inv[x.denominator] % p
             for x in row] for row in a]
    r = 0
    for c in range(nc):
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        piv_row = rows[r]
        piv_inv = pow(piv_row[c], -1, p)
        for row in rows[r + 1:]:
            if row[c]:
                f = row[c] * piv_inv % p
                for j in range(c, nc):
                    row[j] = (row[j] - f * piv_row[j]) % p
        r += 1
    return r


def _rank_rows(a: list[list], nc: int) -> int:
    """The rank of the rows ``a`` (nc columns) as :func:`_integer_rows`
    leaves them, which it may reduce in place.

    Rows whose first entry is an int, as every entry is for rational
    input, go straight to :func:`_echelon`.  Over Q(sqrt(d)), a full
    rank min(rows, nc) of their image mod p (:func:`_modular_rank`) is
    proof of full rank.  That image comes from the ring map
    Z[1/D][sqrt(d)] -> F_p with sqrt(d) -> s, where p divides none of the
    entries' denominators (D their product) and s*s == d mod p; every
    minor maps to the same minor of the image, so the rank cannot rise.
    The exact elimination of :func:`_echelon` decides every other case:
    more than one d, no listed prime that divides no denominator and at
    which d is a square, or a rank that reads low mod p.
    """
    full = min(len(a), nc)
    if full and type(a[0][0]) is not int and _modular_rank(a, nc) == full:
        return full
    return len(_echelon(a, nc)[0])


def rank(M: Matrix) -> int:
    """The rank of M, by :func:`_rank_rows` on :func:`_integer_rows` of it:
    fraction-free elimination over Z for rational M, and over Q(sqrt(d)) a
    full rank proved modulo a prime, with exact elimination when no proof
    is found."""
    return _rank_rows(_integer_rows(M._data)[0], M.cols)


def kernel(M: Matrix) -> Matrix:
    """A basis of the right null space, as the columns of a cols x nullity matrix.

    Satisfies ``M * kernel(M) == 0`` and ``kernel(M).cols == M.cols - rank(M)``.
    """
    a = M.to_rows()
    pivots = _rref_rows(a, M.cols)
    free = [c for c in range(M.cols) if c not in pivots]
    one, zero = _SMALL[257], _SMALL[256]
    rows = [[one if c == f else zero for f in free] for c in range(M.cols)]
    for r, c in enumerate(pivots):
        rows[c] = [-a[r][f] for f in free]
    return _matrix(rows, M.cols, len(free))


def inverse(M: Matrix) -> Matrix:
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    a = [row + unit for row, unit in zip(M.to_rows(), _unit_rows(n))]
    if _rref_rows(a, 2 * n) != list(range(n)):
        raise ValueError("matrix is singular")
    return _matrix([row[n:] for row in a], n, n)


def det(M: Matrix) -> Scalar:
    """The determinant: over Z, the last Bareiss pivot of the rows scaled
    by :func:`_integer_rows`, divided by D ** n for their common
    denominator D; over Q(sqrt(d)), the signed product of the pivots."""
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    n = M.rows
    a, D = _integer_rows(M._data)
    pivots, sign = _echelon(a, n)
    if len(pivots) < n:
        return _SMALL[256]
    if n and type(a[-1][-1]) is int:  # the fraction-free path ran
        return _ratio(sign * a[-1][-1], D ** n)
    return prod((a[i][i] for i in range(n)), start=_rational(sign))


def _nilpotent_powers(N: Matrix) -> tuple[int, list[list[list[tuple]]]]:
    """``(D, [P_1, ..., P_J])`` with ``P_j = (D*N)^j`` given by the nonzeros
    of its rows, a list of ``(column, entry)`` pairs per row: the nonzero
    powers of D*N, so that N's nilpotency index is J + 1.

    D is the common denominator of :func:`_integer_rows`, making every
    P_j integral; when an entry is irrational, D is 1 and the P_j hold
    exact scalars.  Each product runs over the nonzeros of P_j's rows and
    of D*N's rows, so a matrix with a bounded number of nonzeros per row
    costs O(m) per power.  Raises NotNilpotent for a non-square N or when
    ``N^rows != 0``.
    """
    if N.rows != N.cols:
        raise NotNilpotent("only square matrices can be nilpotent")
    n = N.rows
    A, D = _integer_rows(N._data)
    nonzeros = P = [[(c, x) for c, x in enumerate(row) if x] for row in A]
    powers: list[list[list[tuple]]] = []
    while any(P):
        if len(powers) == n - 1:
            raise NotNilpotent(f"matrix power N^{n} is nonzero")
        powers.append(P)
        nxt = []
        for row in P:
            out: dict = {}
            for k, x in row:
                for c, y in nonzeros[k]:
                    out[c] = out.get(c, 0) + x * y
            nxt.append([(c, x) for c, x in out.items() if x])
        P = nxt
    return D, powers


def _exp_rows(D: int, powers: Sequence[Sequence[Sequence[tuple]]], n: int,
              t: Fraction) -> tuple[list[list], int]:
    """``(rows, den)`` with ``rows / den == exp(t*N)``, for the n x n
    nilpotent N whose powers ``(D*N)^j`` are ``powers``, by their rows'
    nonzeros as :func:`_nilpotent_powers` lists them; ``powers`` is only
    read, and only its nonzeros are visited.

    With ``t = u/v`` the sum of ``t^j N^j / j!`` is
    ``sum_j u^j (vD)^(J-j) (J!/j!) P_j``, integral for rational N, over
    ``den = (vD)^J J!``.
    """
    J = len(powers)
    w = t.denominator * D
    den = w ** J * factorial(J)
    acc = [[den if r == c else 0 for c in range(n)] for r in range(n)]
    for j, P in enumerate(powers, 1):
        coef = t.numerator ** j * w ** (J - j) * (factorial(J) // factorial(j))
        for row, prow in zip(acc, P):
            for c, x in prow:
                row[c] += coef * x
    return acc, den


def exp_nilpotent(N: Matrix, t) -> Matrix:
    """``exp(t*N)`` for nilpotent ``N``, as the finite sum of ``t^j N^j / j!``:
    the rows of :func:`_exp_rows` on the powers of :func:`_nilpotent_powers`,
    divided once by their common denominator through :func:`_ratio`, so a
    whole entry in -256..256 (every 0 and diagonal 1) is a shared Fraction.
    Raises NotNilpotent when ``N^rows != 0``.
    """
    t = _rational(t)
    D, powers = _nilpotent_powers(N)
    rows, den = _exp_rows(D, powers, N.rows, t)
    return _matrix([[_ratio(x, den) if isinstance(x, int) else x / den
                     for x in row] for row in rows], N.rows, N.rows)


def solve_quadratic(a, b, c) -> list[Scalar]:
    """Exact roots of ``a x^2 + b x + c`` with rational coefficients.

    Quadratic case returns both roots (with multiplicity) over Q(sqrt(d)) for
    the squarefree part d of the discriminant, as Fractions when it is the
    square of a rational.  The linear case returns its single root.
    """
    a, b, c = _rational(a), _rational(b), _rational(c)
    if not a:
        if not b:
            if not c:
                raise ValueError("identically zero equation")
            raise NoSolution("nonzero constant equation has no roots")
        return [-c / b]
    disc = b * b - 4 * a * c
    s, d = square_split(disc.numerator * disc.denominator)
    rad = _ratio(s, disc.denominator)  # sqrt(disc) == rad * sqrt(d)
    re = -b / (2 * a)
    co = rad / (2 * a)
    if d in (0, 1):  # a double or rational root
        return [re + co * d, re - co * d]
    return [_of(re, co, d), _of(re, -co, d)]  # d is reduced already
