"""Property tests of the elimination layer and of QuadExt arithmetic.

Small matrices over Q and Q(sqrt(d)) are generated by hypothesis; rank,
det, rref with its pivots, nullity, M * kernel(M) == 0 and inverse are
compared with the same operations over sympy's QQ or QQ<sqrt(d)>, on dense
matrices and on zero-heavy ones beside standard columns, and rref, kernel
and inverse hold only Fraction or QuadExt entries, a zero the elimination
never touched included.  The back pass of ``_rref_rows``, which skips the
pivot row's zeros, gives the pivots and entries, value and type alike, of
a back pass over every column from the pivot on.  QuadExt
is checked against the field axioms, against Fraction for rational values
(== and hash), across the square splits of one d, and for one form per
value: a result of QuadExt(...), the arithmetic or solve_quadratic is a
Fraction exactly when sympy finds its value rational, and otherwise a
QuadExt with b != 0, built without a second square_split lookup; the
roots of solve_quadratic take one lookup.
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

from schubert.linalg import (Matrix, QuadExt, _echelon,  # noqa: E402
                             _rref_rows, det, inverse, kernel, rank, rref,
                             solve_quadratic, square_split)

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
        assert b and x.d == d
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
    return Matrix(rows), d


def _package_built(M):
    """Only Fraction or QuadExt entries, and equal to Matrix(M.to_rows()),
    as every Matrix the package returns must be."""
    rows = M.to_rows()
    return (all(type(x) in (Fraction, QuadExt) for row in rows for x in row)
            and Matrix(rows) == M)


_sparse_entries = st.sampled_from([F(0)] * 5 + [F(1), F(-1), F(2), F(1, 2),
                                                F(-2, 3)])


@st.composite
def sparse_matrices(draw, square=False):
    """(M, d): a zero-heavy dense block beside a block of standard columns,
    at most 4 x 8 over Q (d None) or Q(sqrt(d)), shaped like the
    eliminations of [F | V | W] (W standard columns) and [C^T | I_k]; the
    standard block is the identity or some of its columns, in any order,
    left or right of the dense one, and the last row may depend on the
    others."""
    d = draw(st.sampled_from((None,) + D_VALUES))
    nr = draw(st.integers(1, 4))
    q = draw(st.integers(0 if square else 1, nr))
    p = nr - q if square else draw(st.integers(1, 8 - q))

    def entry():
        a = draw(_sparse_entries)
        return a if d is None else QuadExt(a, draw(_sparse_entries), d)

    dense = [[entry() for _ in range(p)] for _ in range(nr)]
    if nr > 1 and draw(st.booleans()):
        coeffs = [entry() for _ in range(nr - 1)]
        dense[-1] = [sum((c * row[j] for c, row in zip(coeffs, dense)), F(0))
                     for j in range(p)]
    units = draw(st.permutations(range(nr)))[:q]
    std = [[F(i == u) for u in units] for i in range(nr)]
    left = draw(st.booleans())
    return Matrix([a + b if left else b + a for a, b in zip(dense, std)]), d


def _check_rank_rref_kernel(M, d):
    ref = _dm(M, d)
    r = ref.rank()
    assert rank(M) == r
    R, pivots = rref(M)
    ref_R, ref_pivots = ref.rref()
    assert pivots == tuple(ref_pivots)
    assert _dm(R, d) == ref_R
    K = kernel(M)
    assert _package_built(R) and _package_built(K)
    assert K.rows == M.cols and K.cols == M.cols - r
    assert K.cols == ref.nullspace().shape[0]
    if K.cols:
        assert M * K == Matrix([[0] * K.cols] * M.rows)
        assert rank(K) == K.cols


@SETTINGS
@given(matrices())
def test_rank_rref_kernel_match_sympy(case):
    _check_rank_rref_kernel(*case)


@SETTINGS
@given(sparse_matrices())
def test_sparse_rank_rref_kernel_match_sympy(case):
    _check_rank_rref_kernel(*case)


def _check_det_inverse(M, d):
    ref = _dm(M, d)
    ref_det = ref.det()
    assert _to_sympy(det(M), d) == ref_det
    if ref_det:
        assert _dm(inverse(M), d) == ref.inv()
        assert _package_built(inverse(M))
    else:
        with pytest.raises(ValueError):
            inverse(M)


@SETTINGS
@given(matrices(square=True))
def test_det_inverse_match_sympy(case):
    _check_det_inverse(*case)


@SETTINGS
@given(sparse_matrices(square=True))
def test_sparse_det_inverse_match_sympy(case):
    _check_det_inverse(*case)


def _dense_rref_rows(a, nc):
    """The reference back pass: every column from the pivot on, zeros too."""
    pivots, _ = _echelon(a, nc)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        row = a[r]
        piv = row[c]
        for j in range(c, nc):
            row[j] = row[j] / piv
        for above in a[:r]:
            f = above[c]
            if f:
                for j in range(c, nc):
                    above[j] = above[j] - f * row[j]
    return pivots


def _check_back_pass(M, d):
    a, ref = M.to_rows(), M.to_rows()
    assert _rref_rows(a, M.cols) == _dense_rref_rows(ref, M.cols)
    assert ([[(type(x), x) for x in row] for row in a]
            == [[(type(x), x) for x in row] for row in ref])


@SETTINGS
@given(matrices())
def test_back_pass_matches_dense_back_pass(case):
    _check_back_pass(*case)


@SETTINGS
@given(sparse_matrices())
def test_sparse_back_pass_matches_dense_back_pass(case):
    _check_back_pass(*case)


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
    # x may be a Fraction, which has no QuadExt.inverse: 1 / x is the inverse
    if x:
        assert x * (1 / x) == 1
        assert (y / x) * x == y
    else:
        with pytest.raises(ZeroDivisionError):
            1 / x


def _lookups():
    info = square_split.cache_info()
    return info.hits + info.misses


def _assert_one_form(r, value, d):
    """r is a Fraction exactly when value, r's value in sympy's QQ<sqrt(d)>,
    is rational, and otherwise a QuadExt of Fraction parts with b != 0."""
    assert _to_sympy(r, d) == value
    if _field(d).to_sympy(value).is_Rational:
        assert type(r) is F
    else:
        assert type(r) is QuadExt and type(r.a) is type(r.b) is F and r.b


@SETTINGS
@given(field_elements(), _rationals, st.sampled_from([0, 1, -1, 2, -3]))
def test_quadext_arithmetic_builds_normalized_results(elems, q, n):
    # every result is in its one form, an irrational one has the parts
    # QuadExt(...) would make of them, and building it looks no d up in
    # square_split; X, Y, Q and N are x, y, q and n in sympy's QQ<sqrt(d)>;
    # the int operands n and 0 stand on both sides of +, -, * and /
    x, y, _ = elems
    d = next((e.d for e in elems if type(e) is QuadExt), D_VALUES[0])
    X, Y, Q, N = (_to_sympy(e, d) for e in (x, y, q, F(n)))
    ops = [(lambda: x + y, X + Y), (lambda: x - y, X - Y),
           (lambda: x * y, X * Y), (lambda: -x, -X),
           (lambda: x + q, X + Q), (lambda: q + x, Q + X),
           (lambda: x - q, X - Q), (lambda: q - x, Q - X),
           (lambda: x * q, X * Q), (lambda: q * x, Q * X)]
    for c, C in ((n, N), (0, _to_sympy(F(0), d))):
        ops += [(lambda c=c: x + c, X + C), (lambda c=c: c + x, C + X),
                (lambda c=c: x - c, X - C), (lambda c=c: c - x, C - X),
                (lambda c=c: x * c, X * C), (lambda c=c: c * x, C * X)]
        if c:
            ops.append((lambda c=c: x / c, X / C))
        if x:
            ops.append((lambda c=c: c / x, C / X))
    if type(x) is QuadExt:
        ops.append((lambda: x.conjugate(), _to_sympy(2 * x.a, d) - X))
    if y:
        ops += [(lambda: x / y, X / Y), (lambda: q / y, Q / Y)]
        if type(y) is QuadExt:
            ops.append((lambda: y.inverse(), _to_sympy(F(1), d) / Y))
    if q:
        ops.append((lambda: x / q, X / Q))
    for op, value in ops:
        before = _lookups()
        r = op()
        assert _lookups() == before
        _assert_one_form(r, value, d)
        if type(r) is QuadExt:
            n = QuadExt(r.a, r.b, r.d)
            assert (n.a, n.b, n.d) == (r.a, r.b, r.d)


@SETTINGS
@given(_rationals, _rationals, st.integers(-30, 30), _rationals)
def test_quadext_and_roots_are_fractions_exactly_when_rational(a, b, n, c):
    x = QuadExt(a, b, n)
    value = a + b * sympy.sqrt(n)
    assert (type(x) is F) == value.is_Rational
    if type(x) is F:
        assert x == value
    else:
        assert x.b and sympy.expand(x.a + x.b * sympy.sqrt(x.d) - value) == 0
    # the roots of 2 t^2 + b t + c are rational exactly when the
    # discriminant is a rational square; the root of b t + c always is
    for lead in (F(2), F(0)):
        if not (lead or b):
            continue
        rational = sympy.sqrt(sympy.Rational(b * b - 4 * lead * c)).is_Rational
        for r in solve_quadratic(lead, b, c):
            root = (r.a + r.b * sympy.sqrt(r.d) if type(r) is QuadExt
                    else sympy.Rational(r))
            assert sympy.expand(lead * root ** 2 + b * root + c) == 0
            assert (type(r) is F) == (rational or not lead)


@SETTINGS
@given(_rationals, _rationals, st.sampled_from(D_VALUES))
def test_quadext_rational_values_match_fraction(a, b, d):
    s = 3
    cases = [(QuadExt(a), a), (QuadExt(a, b, 0), a),
             (QuadExt(a, b, s * s), a + b * s),
             (QuadExt(a, b, d) - QuadExt(0, b, d), a),
             (QuadExt(0, b, d) * QuadExt(0, b, d), b * b * d)]
    for x, q in cases:
        assert type(x) is F
        assert x == q and q == x and hash(x) == hash(q)
        assert {q: "found"}.get(x) == "found"
        assert (x != q + 1) and hash(x + 1) == hash(q + 1)
    if b:
        assert QuadExt(a, b, d) != a and QuadExt(a, b, d).b


@SETTINGS
@given(st.sampled_from([F(1), F(-2), F(1, 2), F(3)]), _rationals, _rationals)
def test_solve_quadratic_looks_d_up_once(a, b, c):
    # the discriminant's d is split once; the roots are the ones QuadExt(...)
    # builds from the same parts, which would split that reduced d again
    before = _lookups()
    roots = solve_quadratic(a, b, c)
    assert _lookups() == before + 1
    disc = b * b - 4 * a * c
    s, d = square_split(disc.numerator * disc.denominator)
    re, co = -b / (2 * a), F(s, disc.denominator) / (2 * a)
    want = [QuadExt(re, co, d), QuadExt(re, -co, d)]
    assert [type(r) for r in roots] == [type(w) for w in want]
    assert roots == want
    for r, w in zip(roots, want):
        if type(r) is QuadExt:
            assert (r.a, r.b, r.d) == (w.a, w.b, w.d)


def test_solve_quadratic_double_root_is_two_fractions():
    roots = solve_quadratic(1, 2, 1)
    assert roots == [-1, -1] and [type(r) for r in roots] == [F, F]


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
