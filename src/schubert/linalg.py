"""Exact dense linear algebra over Q and quadratic extensions Q(sqrt(d)).

Scalars are ``fractions.Fraction``, or :class:`QuadExt` for values that live
in a quadratic field.  There is no floating point anywhere.  Matrices are
small and dense (desk scale), so plain Gaussian elimination with exact
division is used throughout.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, isqrt, lcm, prod
from typing import Iterable, Sequence, Union

from .errors import NoSolution, NotNilpotent

__all__ = [
    "Rational",
    "Scalar",
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
    "simplify_scalar",
    "simplify_matrix",
]

Rational = Fraction


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


@lru_cache(maxsize=8192)
def square_split(n: int) -> tuple[int, int]:
    """Write ``n = s*s*d`` with ``d`` square-reduced; return ``(s, d)``.

    The sign of ``n`` stays on ``d``; ``square_split(0) == (1, 0)``.  ``d``
    is squarefree for every input a test will ever see (see _TRIAL_BOUND);
    the decomposition itself is exact for arbitrary integers.
    """
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


class QuadExt:
    """An element ``a + b*sqrt(d)`` of the quadratic field Q(sqrt(d)).

    ``d`` is square-reduced by :func:`square_split` (possibly negative), so
    one value may be stored with two different ``d``; equality, hashing and
    arithmetic treat such copies as the same number.  Rational values
    normalize to ``b == 0, d == 1`` so that equality and hashing agree with
    Fraction.  Arithmetic mixes freely with int and Fraction; combining
    elements of two different extensions raises ValueError.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a=0, b=0, d: int = 1):
        a = Fraction(a)
        b = Fraction(b)
        d = int(d)
        if b:
            s, d0 = square_split(d)
            b *= s
            if d0 == 0:
                b, d = Fraction(0), 1
            elif d0 == 1:
                a, b, d = a + b, Fraction(0), 1
            else:
                d = d0
        else:
            b, d = Fraction(0), 1
        self.a = a
        self.b = b
        self.d = d

    # -- helpers -----------------------------------------------------------
    @staticmethod
    def _mate(other) -> "QuadExt | None":
        if isinstance(other, QuadExt):
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other)
        return None

    def _join_d(self, other: "QuadExt") -> tuple[int, Fraction]:
        # The common d, and other's b over it: when d1*d2 == s*s (square_split
        # left a large square inside d), b*sqrt(d2) == (b*s/|d1|)*sqrt(d1).
        if not (self.b and other.b) or self.d == other.d:
            return (self.d if self.b else other.d), other.b
        prod = self.d * other.d
        s = isqrt(prod) if prod > 0 else -1
        if s * s != prod:
            raise ValueError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})")
        return self.d, other.b * s / abs(self.d)

    @property
    def is_rational(self) -> bool:
        return not self.b

    def conjugate(self) -> "QuadExt":
        return QuadExt(self.a, -self.b, self.d)

    def inverse(self) -> "QuadExt":
        nrm = self.a * self.a - self.d * self.b * self.b
        if not nrm:
            raise ZeroDivisionError("division by zero in Q(sqrt(d))")
        return QuadExt(self.a / nrm, -self.b / nrm, self.d)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other):
        o = self._mate(other)
        if o is None:
            return NotImplemented
        d, ob = self._join_d(o)
        return QuadExt(self.a + o.a, self.b + ob, d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __sub__(self, other):
        o = self._mate(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._mate(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._mate(other)
        if o is None:
            return NotImplemented
        d, ob = self._join_d(o)
        return QuadExt(self.a * o.a + d * self.b * ob,
                       self.a * ob + self.b * o.a, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._mate(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._mate(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    # -- comparison / hashing ----------------------------------------------
    def _key(self) -> tuple:
        # a, b*b*d and the sign of b fix a + b*sqrt(d) whatever square d holds
        return self.a, self.b * self.b * self.d, (self.b > 0) - (self.b < 0)

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            return self._key() == other._key()
        if isinstance(other, (int, Fraction)):
            return not self.b and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if not self.b else hash(self._key())

    def __bool__(self):
        return bool(self.a or self.b)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        if not self.b:
            return str(self.a)
        tail = f"{self.b}*sqrt({self.d})" if self.b > 0 else f"- {-self.b}*sqrt({self.d})"
        if not self.a:
            return tail if self.b > 0 else "-" + tail[2:]
        mid = "+ " if self.b > 0 else ""
        return f"{self.a} {mid}{tail}"


Scalar = Union[Fraction, QuadExt]


def _coerce(x) -> Scalar:
    if isinstance(x, (Fraction, QuadExt)):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"matrix entries must be exact scalars, got {type(x).__name__}")


def simplify_scalar(x: Scalar) -> Scalar:
    """Collapse a QuadExt that happens to be rational down to a Fraction."""
    if isinstance(x, QuadExt) and not x.b:
        return x.a
    return x


class Matrix:
    """Immutable dense matrix of exact scalars."""

    __slots__ = ("_data", "_rows", "_cols")

    def __init__(self, rows: Iterable[Iterable], shape: tuple[int, int] | None = None):
        data = tuple(tuple(_coerce(x) for x in row) for row in rows)
        if shape is None:
            r = len(data)
            c = len(data[0]) if r else 0
        else:
            r, c = shape
            if len(data) != r:
                raise ValueError("row count does not match declared shape")
        for row in data:
            if len(row) != c:
                raise ValueError("ragged rows in matrix literal")
        self._data = data
        self._rows = r
        self._cols = c

    # -- construction --------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(i == j) for j in range(n)] for i in range(n)],
                   shape=(n, n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], shape=(rows, cols))

    @classmethod
    def column_vector(cls, entries: Sequence) -> "Matrix":
        return cls([[e] for e in entries], shape=(len(entries), 1))

    @classmethod
    def from_columns(cls, cols: Sequence[Sequence], rows: int | None = None) -> "Matrix":
        if rows is None:
            if not cols:
                raise ValueError("cannot infer row count from zero columns")
            rows = len(cols[0])
        for col in cols:
            if len(col) != rows:
                raise ValueError("ragged columns")
        return cls([[col[i] for col in cols] for i in range(rows)],
                   shape=(rows, len(cols)))

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
        return Matrix([[row[j] for j in idxs] for row in self._data],
                      shape=(self._rows, len(idxs)))

    def prefix_columns(self, n: int) -> "Matrix":
        return self.take_columns(range(n))

    # -- algebra ---------------------------------------------------------------
    def transpose(self) -> "Matrix":
        return Matrix([[self._data[i][j] for i in range(self._rows)]
                       for j in range(self._cols)], shape=(self._cols, self._rows))

    def hstack(self, other: "Matrix") -> "Matrix":
        if self._rows != other._rows:
            raise ValueError("hstack needs equal row counts")
        return Matrix([ra + rb for ra, rb in zip(self._data, other._data)],
                      shape=(self._rows, self._cols + other._cols))

    def vstack(self, other: "Matrix") -> "Matrix":
        if self._cols != other._cols:
            raise ValueError("vstack needs equal column counts")
        return Matrix(self._data + other._data,
                      shape=(self._rows + other._rows, self._cols))

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError("shape mismatch in matrix addition")
        return Matrix([[x + y for x, y in zip(ra, rb)]
                       for ra, rb in zip(self._data, other._data)],
                      shape=(self._rows, self._cols))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return Matrix([[-x for x in row] for row in self._data],
                      shape=(self._rows, self._cols))

    def scale(self, s) -> "Matrix":
        s = s if isinstance(s, (Fraction, QuadExt)) else Fraction(s)
        return Matrix([[x * s for x in row] for row in self._data],
                      shape=(self._rows, self._cols))

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self._cols != other._rows:
                raise ValueError("shape mismatch in matrix product")
            bt = other.transpose()._data
            return Matrix([[_dot(row, col) for col in bt] for row in self._data],
                          shape=(self._rows, other._cols))
        if isinstance(other, (int, Fraction, QuadExt)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QuadExt)):
            return self.scale(other)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(not x for row in self._data for x in row)

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


def _dot(xs, ys):
    acc = Fraction(0)
    for x, y in zip(xs, ys):
        if x and y:
            acc = acc + x * y
    return acc


def simplify_matrix(M: Matrix) -> Matrix:
    return Matrix([[simplify_scalar(x) for x in row] for row in M.to_rows()],
                  shape=(M.rows, M.cols))


# -- elimination ----------------------------------------------------------


def _rref_rows(M: Matrix) -> tuple[list[list], list[int]]:
    """Reduced row echelon form as a list of rows, plus pivot column indices."""
    a = M.to_rows()
    nr, nc = M.rows, M.cols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nr):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a, pivots


def rref(M: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the pivot column indices."""
    a, pivots = _rref_rows(M)
    return Matrix(a, shape=(M.rows, M.cols)), tuple(pivots)


def _integer_rows(M: Matrix):
    """Row-scaled copy of M with int entries, or None if any entry is
    irrational.  Row scaling by the denominator lcm preserves rank."""
    out = []
    for row in M.to_rows():
        vals = []
        for x in row:
            if isinstance(x, QuadExt):
                if x.b:
                    return None
                x = x.a
            elif isinstance(x, int):
                x = Fraction(x)
            vals.append(x)
        scale = lcm(*(x.denominator for x in vals)) if vals else 1
        out.append([x.numerator * (scale // x.denominator) for x in vals])
    return out


def _bareiss_pivots(a: list[list[int]], nc: int) -> list[int]:
    """Pivot columns of an integer row list, by fraction-free (Bareiss)
    elimination; they are those of the rref, and their count is the rank."""
    nr = len(a)
    pivots: list[int] = []
    prev = 1
    for c in range(nc):
        r = len(pivots)
        if r == nr:
            break
        p = next((i for i in range(r, nr) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        piv_row = a[r]
        piv = piv_row[c]
        for i in range(r + 1, nr):
            row = a[i]
            x = row[c]
            for j in range(c + 1, nc):
                row[j] = (piv * row[j] - x * piv_row[j]) // prev
            row[c] = 0
        prev = piv
        pivots.append(c)
    return pivots


def rank(M: Matrix) -> int:
    ints = _integer_rows(M)
    if ints is not None:
        return len(_bareiss_pivots(ints, M.cols))
    return len(_rref_rows(M)[1])


def kernel(M: Matrix) -> Matrix:
    """A basis of the right null space, as the columns of a cols x nullity matrix.

    Satisfies ``M * kernel(M) == 0`` and ``kernel(M).cols == M.cols - rank(M)``.
    """
    a, pivots = _rref_rows(M)
    free = [c for c in range(M.cols) if c not in pivots]
    cols = []
    for f in free:
        v: list = [Fraction(0)] * M.cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -a[r][f]
        cols.append(v)
    if not cols:
        return Matrix([[] for _ in range(M.cols)], shape=(M.cols, 0))
    return Matrix.from_columns(cols, rows=M.cols)


def inverse(M: Matrix) -> Matrix:
    if M.rows != M.cols:
        raise ValueError("inverse of a non-square matrix")
    n = M.rows
    a, pivots = _rref_rows(M.hstack(Matrix.identity(n)))
    if list(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    return Matrix([row[n:] for row in a], shape=(n, n))


def det(M: Matrix) -> Scalar:
    if M.rows != M.cols:
        raise ValueError("determinant of a non-square matrix")
    a = M.to_rows()
    n = M.rows
    out: Scalar = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            out = -out
        pv = a[c][c]
        out = out * pv
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] / pv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def exp_nilpotent(N: Matrix, t) -> Matrix:
    """``exp(t*N)`` for nilpotent ``N``, as the finite sum of ``t^j N^j / j!``.

    Raises NotNilpotent when ``N^rows != 0``.
    """
    if N.rows != N.cols:
        raise NotNilpotent("only square matrices can be nilpotent")
    t = Fraction(t)
    n = N.rows
    out = Matrix.identity(n)
    P = Matrix.identity(n)
    tp = Fraction(1)
    for j in range(1, n + 1):
        P = P * N
        if P.is_zero():
            return out
        if j == n:
            raise NotNilpotent(f"matrix power N^{n} is nonzero")
        tp *= t
        out = out + P.scale(tp / factorial(j))
    return out


def solve_quadratic(a, b, c) -> list[QuadExt]:
    """Exact roots of ``a x^2 + b x + c`` with rational coefficients.

    Quadratic case returns both roots (with multiplicity) over Q(sqrt(d)) for
    the squarefree part d of the discriminant; rational-square discriminants
    collapse to rational roots.  The linear case returns its single root.
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if not a:
        if not b:
            if not c:
                raise ValueError("identically zero equation")
            raise NoSolution("nonzero constant equation has no roots")
        return [QuadExt(-c / b)]
    disc = b * b - 4 * a * c
    s, d = square_split(disc.numerator * disc.denominator)
    rad = Fraction(s, disc.denominator)  # sqrt(disc) == rad * sqrt(d)
    re = -b / (2 * a)
    co = rad / (2 * a)
    return [QuadExt(re, co, d), QuadExt(re, -co, d)]
