"""Property tests of the elimination layer against sympy's DomainMatrix.

Small matrices over Q and Q(sqrt(d)) are generated by hypothesis; rank,
det, rref with its pivots, nullity, M * kernel(M) == 0 and inverse are
compared with the same operations over sympy's QQ or QQ<sqrt(d)>.
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
                             rank, rref)

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
        assert (M * K).is_zero()
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
