"""Property tests of the elimination layer and of QuadExt arithmetic.

Small matrices over Q and Q(sqrt(d)) are generated by hypothesis; rank,
det, rref with its pivots, nullity, M * kernel(M) == 0 and inverse are
compared with the same operations over sympy's QQ or QQ<sqrt(d)>.  QuadExt
is checked against the field axioms, against Fraction for rational values
(== and hash), across the square splits of one d, and for arithmetic
results that come out normalized without a second square_split lookup.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

sympy = pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from sympy.polys.domains import QQ  # noqa: E402
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from schubert.linalg import (Matrix, QuadExt, det, inverse, kernel,  # noqa: E402
                             rank, rref, square_split)

F = Fraction
D_VALUES = (2, 3, 5, 13, -1, -3)
SETTINGS = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)

_rationals = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3),
                              F(1, 2), F(-2, 3)])


@lru_cache(maxsize=None)
def _field(d):
    if d is None:
        return QQ
    K = QQ.algebraic_field(sympy.sqrt(d))
    # K's elements are polynomials in sqrt(d) itself, so K([b, a]) is a + b*sqrt(d)
    assert K([QQ(1), QQ(0)]) == K.from_sympy(sympy.sqrt(d))
    return K


def _to_sympy(x, d):
    K = _field(d)
    if isinstance(x, QuadExt):
        a, b = x.a, x.b
        # a rational QuadExt stores d == 1
        assert not b or x.d == d
    else:
        a, b = x, F(0)
    a = QQ(a.numerator, a.denominator)
    b = QQ(b.numerator, b.denominator)
    return a if K is QQ else K([b, a])


def _dm(M, d):
    rows = [[_to_sympy(x, d) for x in M.row(i)] for i in range(M.rows)]
    return DomainMatrix(rows, (M.rows, M.cols), _field(d))


@st.composite
def matrices(draw, square=False):
    """(M, d): a matrix with at most 4 rows and columns over Q (d None) or
    Q(sqrt(d)); with some probability its last row depends on the others."""
    d = draw(st.sampled_from((None,) + D_VALUES))
    nr = draw(st.integers(1, 4))
    nc = nr if square else draw(st.integers(1, 4))

    def entry():
        a = draw(_rationals)
        if d is None:
            return a
        return QuadExt(a, draw(_rationals), d)

    rows = [[entry() for _ in range(nc)] for _ in range(nr)]
    if nr > 1 and draw(st.booleans()):
        coeffs = [entry() for _ in range(nr - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), F(0))
                    for j in range(nc)]
    return Matrix(rows, shape=(nr, nc)), d


@SETTINGS
@given(matrices())
def test_rank_rref_kernel_match_sympy(case):
    M, d = case
    ref = _dm(M, d)
    r = ref.rank()
    assert rank(M) == r
    R, pivots = rref(M)
    ref_R, ref_pivots = ref.rref()
    assert pivots == tuple(ref_pivots)
    assert _dm(R, d) == ref_R
    K = kernel(M)
    assert K.rows == M.cols and K.cols == M.cols - r
    assert K.cols == ref.nullspace().shape[0]
    if K.cols:
        assert M * K == Matrix([[0] * K.cols] * M.rows)
        assert rank(K) == K.cols


@SETTINGS
@given(matrices(square=True))
def test_det_inverse_match_sympy(case):
    M, d = case
    ref = _dm(M, d)
    ref_det = ref.det()
    assert _to_sympy(det(M), d) == ref_det
    if ref_det:
        assert _dm(inverse(M), d) == ref.inv()
    else:
        with pytest.raises(ValueError):
            inverse(M)


# -- QuadExt as a field ------------------------------------------------------------


@st.composite
def field_elements(draw):
    """Three elements of one Q(sqrt(d)), rational ones among them."""
    d = draw(st.sampled_from(D_VALUES))
    return [QuadExt(draw(_rationals), draw(_rationals), d) for _ in range(3)]


@SETTINGS
@given(field_elements())
def test_quadext_field_axioms(elems):
    x, y, z = elems
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x + y == y + x and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x and x * 1 == x and x - x == 0 and not (x - x)
    assert x - y == x + (-y) and (x - y) + y == x
    assert 2 - x == -(x - 2) and F(1, 3) - x == -(x - F(1, 3))
    if x:
        assert x * x.inverse() == 1
        assert (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            x.inverse()


def _lookups():
    info = square_split.cache_info()
    return info.hits + info.misses


@SETTINGS
@given(field_elements(), _rationals)
def test_quadext_arithmetic_builds_normalized_results(elems, q):
    # the parts of an arithmetic result are those __init__ would make of
    # them, and building it looks no d up in square_split
    x, y, _ = elems
    ops = [lambda: x + y, lambda: x - y, lambda: x * y, lambda: -x,
           lambda: x.conjugate(), lambda: x + q, lambda: q + x,
           lambda: x - q, lambda: q - x, lambda: x * q, lambda: q * x]
    if y:
        ops += [lambda: x / y, lambda: y.inverse(), lambda: q / y]
    if q:
        ops.append(lambda: x / q)
    for op in ops:
        before = _lookups()
        r = op()
        assert _lookups() == before
        assert type(r) is QuadExt and type(r.a) is type(r.b) is F
        assert (r.d == 1) == (r.b == 0)
        n = QuadExt(r.a, r.b, r.d)
        assert (n.a, n.b, n.d) == (r.a, r.b, r.d)


@SETTINGS
@given(_rationals, _rationals, st.sampled_from(D_VALUES))
def test_quadext_rational_values_match_fraction(a, b, d):
    s = 3
    cases = [(QuadExt(a), a), (QuadExt(a, b, 0), a),
             (QuadExt(a, b, s * s), a + b * s),
             (QuadExt(a, b, d) - QuadExt(0, b, d), a),
             (QuadExt(0, b, d) * QuadExt(0, b, d), b * b * d)]
    for x, q in cases:
        assert not x.b
        assert x == q and q == x and hash(x) == hash(q)
        assert {q: "found"}.get(x) == "found"
        assert (x != q + 1) and hash(x + 1) == hash(q + 1)
    if b:
        assert QuadExt(a, b, d) != a and QuadExt(a, b, d).b


@SETTINGS
@given(_rationals, _rationals)
def test_quadext_equal_and_hash_across_square_splits(a, b):
    # 100003 is above square_split's trial bound, so 100003**2 * 100019 keeps
    # its square factor; the small cases collapse to one stored d
    for d, k in [(100019, 100003), (-100019, 100003), (13, 2), (-3, 7),
                 (2, 100003)]:
        x = QuadExt(a, b, d * k * k)
        y = QuadExt(a, b * k, d)
        assert x == y and hash(x) == hash(y)
        assert len({x, y}) == 1
        assert x - y == 0 and not (x - y)
        assert x + y == 2 * y and x * y == y * y
        if b:
            assert x != y.conjugate() and x != a
