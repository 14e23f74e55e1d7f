"""The integer paths of the flags layer against their definitions.

Each reference below is the plain computation over Q or Q(sqrt(d)): prefix
ranks for flags_equal, the Matrix-power series for exp_nilpotent and
nilpotency_index, PolyQ derivatives and evaluation for osculating_flag,
B^T * G * B for is_isotropic_flag, and a product of dense matrix
exponentials of root elements for random_isotropic_flag.  Inputs are seeded; the nilpotents are
dense (strictly lower triangular, conjugated by a random invertible matrix),
and flag pairs and isotropic bases come both unchanged and perturbed.
The flags that osculating_flag and exp_translate_flag build carry integer
rows from their construction; they are checked against the public
constructor's rows and paired with flags over Q(sqrt(5)).
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from schubert.cli import MAX_AMBIENT_DIM
from schubert.errors import NotNilpotent
from schubert.flags import (Flag, GroupKind, _flag_of, curve_polynomials,
                            exp_translate_flag, flags_equal, gram_matrix,
                            is_isotropic_flag, nilpotency_index,
                            osculating_flag, principal_nilpotent,
                            random_isotropic_flag)
from schubert.linalg import (Matrix, QuadExt, _integer_rows, exp_nilpotent,
                             inverse, rank)

F = Fraction
T_VALUES = [F(0), F(1), F(-2), F(3, 4), F(-5, 3)]
D = 5  # the Q(sqrt(d)) inputs live in Q(sqrt(5))


# -- references ----------------------------------------------------------------


def ref_flags_equal(f, g):
    return all(rank(f.prefix(i).hstack(g.prefix(i))) == i
               for i in range(1, f.ambient_dim + 1))


def ref_exp_nilpotent(N, t):
    n = N.rows
    out = Matrix.identity(n)
    P = Matrix.identity(n)
    zero = Matrix([[0] * n] * n)
    for j in range(1, n + 1):
        P = P * N
        if P == zero:
            return out
        s = t ** j / factorial(j)
        out = out + Matrix([[x * s for x in row] for row in P.to_rows()])
    raise NotNilpotent(f"matrix power N^{n} is nonzero")


def ref_nilpotency_index(N):
    P = Matrix.identity(N.rows)
    zero = Matrix([[0] * N.rows] * N.rows)
    for p in range(1, N.rows + 1):
        P = P * N
        if P == zero:
            return p
    raise NotNilpotent(f"matrix power N^{N.rows} is nonzero")


def ref_osculating_basis(kind, t):
    ps = list(curve_polynomials(kind))
    cols = []
    for _ in range(kind.ambient_dim):
        cols.append([p(t) for p in ps])
        ps = [p.derivative() for p in ps]
    return Matrix.from_columns(cols)


def ref_root_elements(kind):
    """Dense upper and lower root elements E_ab + k*E_(pa,pb) (1-indexed,
    partner pa, pb = m+1-b, m+1-a), each checked against X^T G + G X = 0."""
    m, n = kind.ambient_dim, kind.param
    G = gram_matrix(kind).gram
    eps = [0] + [1] * n + [-1] * n  # 1-indexed, read for Sp only
    upper, lower = [], []
    for a in range(1, m + 1):
        for b in range(1, m + 1):
            pa, pb = m + 1 - b, m + 1 - a
            if a == b or (pa, pb) < (a, b):
                continue
            if kind.tag == "SO_odd" and a + b == m + 1:
                continue
            rows = [[F(0)] * m for _ in range(m)]
            rows[a - 1][b - 1] = F(1)
            if (pa, pb) != (a, b):
                k = -1 if kind.tag == "SO_odd" else -eps[a] * eps[b]
                rows[pa - 1][pb - 1] = F(k)
            X = Matrix(rows)
            assert X.transpose() * G + G * X == Matrix([[0] * m] * m)
            (upper if a < b else lower).append(X)
    return upper, lower


def ref_random_isotropic_basis(roots, seed):
    rng = random.Random(seed)
    g = Matrix.identity(roots[0].rows)
    for X in roots:
        g = g * exp_nilpotent(X, F(rng.randint(-9, 9), rng.randint(1, 9)))
    return g


def ref_is_isotropic(flag, form):
    P = flag.basis.transpose() * form.gram * flag.basis
    m = flag.ambient_dim
    return all(not P[i, j] for i in range(m) for j in range(m - 1 - i))


# -- seeded inputs ---------------------------------------------------------------


def _scalar(rng, d):
    a = F(rng.randint(-9, 9), rng.randint(1, 9))
    if d is None:
        return a
    return QuadExt(a, F(rng.randint(-9, 9), rng.randint(1, 9)), d)


def _invertible(rng, n, d):
    while True:
        S = Matrix([[_scalar(rng, d) for _ in range(n)] for _ in range(n)])
        if rank(S) == n:
            return S


def _dense_nilpotent(rng, n, d):
    L = Matrix([[_scalar(rng, d) if i > j else F(0) for j in range(n)]
                for i in range(n)])
    S = _invertible(rng, n, d)
    return S * L * inverse(S)


def _upper(rng, n, d):
    return Matrix([[_scalar(rng, d) if i < j else F(rng.randint(1, 5)) if i == j
                    else F(0) for j in range(n)] for i in range(n)])


def _perturbed(rng, M, d):
    rows = M.to_rows()
    i, j = rng.randrange(M.rows), rng.randrange(M.cols)
    rows[i][j] = rows[i][j] + _scalar(rng, d)
    return Matrix(rows)


def _typed_entries(M):
    return [(type(x), x) for i in range(M.rows) for x in M.row(i)]


# -- tests -------------------------------------------------------------------------


def test_exp_nilpotent_and_index_match_power_series():
    rng = random.Random(11)
    cases = [principal_nilpotent(k) for k in
             (GroupKind.sl(5), GroupKind.sp(2), GroupKind.so_odd(2),
              GroupKind.so_even(3))]
    cases += [_dense_nilpotent(rng, n, None) for n in (1, 2, 3, 4, 5, 5)]
    cases += [_dense_nilpotent(rng, n, D) for n in (2, 3)]
    dense = 0
    for N in cases:
        dense += sum(1 for i in range(N.rows) for j in range(N.cols)
                     if j >= i and N[i, j])
        assert nilpotency_index(N) == ref_nilpotency_index(N)
        for t in T_VALUES:
            assert exp_nilpotent(N, t) == ref_exp_nilpotent(N, t), (N, t)
    assert dense > 0  # the conjugated cases are not lower triangular


def test_not_nilpotent_from_both_entry_points():
    rng = random.Random(12)
    cases = [Matrix.identity(3), _invertible(rng, 3, None),
             Matrix([[0, 1], [1, 0]]),          # invertible, zero diagonal
             Matrix([[1, 0], [0, 0]]),          # singular, idempotent
             Matrix([[0, 2, 0], [0, 0, 0]])]    # not square
    for N in cases:
        with pytest.raises(NotNilpotent):
            exp_nilpotent(N, F(1, 2))
        with pytest.raises(NotNilpotent):
            nilpotency_index(N)


def test_osculating_flag_matches_polynomial_derivatives():
    kinds = [GroupKind.sl(m) for m in range(2, 8)]
    kinds += [GroupKind.sp(n) for n in (1, 2, 3)]
    kinds += [GroupKind.so_odd(n) for n in (1, 2, 3)]
    for kind in kinds:
        for t in T_VALUES:
            assert osculating_flag(kind, t).basis == ref_osculating_basis(
                kind, t), (kind, t)


def test_flags_equal_matches_prefix_ranks():
    rng = random.Random(13)
    verdicts = {True: 0, False: 0}
    for trial in range(40):
        d = D if trial % 3 == 0 else None
        n = rng.randint(1, 3 if d else 5)
        f = Flag(n, _invertible(rng, n, d))
        g = f.basis * _upper(rng, n, d)  # the same flag, another basis
        if trial % 2:
            g = _perturbed(rng, g, d)
        if rank(g) < n:
            continue
        g = Flag(n, g)
        want = ref_flags_equal(f, g)
        assert flags_equal(f, g) == want == ref_flags_equal(g, f)
        assert flags_equal(g, f) == want
        verdicts[want] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 5


def test_is_isotropic_flag_matches_gram_product():
    rng = random.Random(14)
    kinds = [GroupKind.sp(1), GroupKind.sp(2), GroupKind.sp(3),
             GroupKind.so_odd(1), GroupKind.so_odd(2), GroupKind.so_odd(3)]
    verdicts = {True: 0, False: 0}
    for trial in range(36):
        kind = kinds[trial % len(kinds)]
        m = kind.ambient_dim
        form = gram_matrix(kind)
        B = (random_isotropic_flag(kind, trial) if trial % 3 == 0
             else osculating_flag(kind, F(rng.randint(-9, 9), rng.randint(1, 9))))
        B = B.basis
        d = D if trial % 5 < 2 and m <= 4 else None
        if d:
            B = B * _upper(rng, m, d)  # an isotropic basis over Q(sqrt(5))
        if trial % 2:
            B = _perturbed(rng, B, d)
        if rank(B) < m:
            continue
        flag = Flag(m, B)
        want = ref_is_isotropic(flag, form)
        assert is_isotropic_flag(flag, form) == want, (kind, trial)
        verdicts[want] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 5


def test_random_isotropic_flag_matches_root_exponentials():
    kinds = [GroupKind.sp(n) for n in range(1, 6)]
    kinds += [GroupKind.so_odd(n) for n in range(1, 6)]
    for kind in kinds:
        upper, lower = ref_root_elements(kind)
        G = gram_matrix(kind).gram
        for seed in range(20):
            B = random_isotropic_flag(kind, seed).basis
            want = ref_random_isotropic_basis(upper + lower, seed)
            assert _typed_entries(B) == _typed_entries(want), (kind, seed)
            assert B.transpose() * G * B == G, (kind, seed)


def test_is_isotropic_flag_sees_the_single_first_last_pairing():
    # column m-1 (1-indexed) becomes e_(m-1) + s*e_m, so that P = B^T G B
    # is nonzero at (1, m-1) and (m-1, 1) and zero at every other pairing
    # a + b <= m; an isometry g keeps P and makes the basis dense
    for trial, kind in enumerate([GroupKind.sp(2), GroupKind.so_odd(2),
                                  GroupKind.sp(3)]):
        m = kind.ambient_dim
        form = gram_matrix(kind)
        g = random_isotropic_flag(kind, trial).basis
        for s in (F(3, 2), QuadExt(F(1, 2), F(1), D)):
            rows = Matrix.identity(m).to_rows()
            rows[m - 1][m - 2] = s
            flag = Flag(m, g * Matrix(rows))
            P = flag.basis.transpose() * form.gram * flag.basis
            assert [(i, j) for i in range(m) for j in range(m - 1 - i)
                    if P[i, j]] == [(0, m - 2), (m - 2, 0)]
            assert is_isotropic_flag(flag, form) is False, (kind, s)
            assert ref_is_isotropic(flag, form) is False


def _rows_multiple(flag):
    """The integer c >= 1 with ``flag._rows`` equal to c times the rows of
    _integer_rows(basis), entry for entry, or None when there is none."""
    want = _integer_rows(flag.basis._data)[0]
    rows = [list(r) for r in flag._rows]
    x, y = next((x, y) for r, w in zip(rows, want) for x, y in zip(r, w) if y)
    c = x // y
    return c if c >= 1 and rows == [[c * y for y in w] for w in want] else None


FLAG_KINDS = ([GroupKind.sl(m) for m in range(2, 11)]
              + [GroupKind.sp(n) for n in range(1, 6)]
              + [GroupKind.so_odd(n) for n in range(1, 6)])


def test_exp_translate_flag_matches_exp_nilpotent():
    # two passes over the points: the second reads the per-kind caches the
    # first filled, so a cache that a call mutated would show there
    for kind in FLAG_KINDS:
        N = principal_nilpotent(kind)
        want = {t: _typed_entries(exp_nilpotent(N, t)) for t in T_VALUES}
        oscs = {t: _typed_entries(osculating_flag(kind, t).basis)
                for t in T_VALUES}
        for _ in range(2):
            for t in T_VALUES:
                flag = exp_translate_flag(kind, t)
                assert _typed_entries(flag.basis) == want[t], (kind, t)
                assert _typed_entries(osculating_flag(kind, t).basis) == oscs[t]
                # the integer rows filled in at construction present the basis,
                # and are no part of equality, hash or repr
                same = Flag(kind.ambient_dim, flag.basis)
                assert (same, hash(same), repr(same)) == (flag, hash(flag), repr(flag))
                assert all(type(x) is int for row in flag._rows for x in row)
                assert _rows_multiple(flag) is not None, (kind, t)


def test_flag_of_refuses_singular_rows():
    # every singular input fails the shape check, and so do invertible rows
    # outside it, such as the upper-triangular last case
    for rows in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]],
                 [[1, 1], [0, 1]]):
        with pytest.raises(ValueError, match="singular"):
            _flag_of(len(rows), rows, 3)


@pytest.mark.parametrize("rows, den, want", [
    ([[2, 0], [0, 2]], 3, [[F(2, 3), 0], [0, F(2, 3)]]),
    ([[4, 0], [2, 6]], 9, [[F(4, 9), 0], [F(2, 9), F(2, 3)]]),
    ([[2, 0], [6, 4]], 4, [[F(1, 2), 0], [F(3, 2), F(1)]]),
])
def test_flag_of_keeps_the_basis(rows, den, want):
    # the basis is rows / den, and _rows are the rows as given, also when a
    # common factor of den and the entries would reduce them
    flag = _flag_of(2, rows, den)
    assert flag.basis == Matrix(want)
    assert [list(r) for r in flag._rows] == rows


def test_constructed_rows_are_the_integer_rows_of_the_basis():
    for kind in FLAG_KINDS:
        for t in T_VALUES:
            for flag in (osculating_flag(kind, t), exp_translate_flag(kind, t)):
                assert _rows_multiple(flag) is not None, (kind, t)


def test_every_cli_sized_flag_has_the_shape_flag_of_checks():
    # _flag_of proves invertibility by shape alone, so build both flags of
    # every kind up to the CLI's largest ambient dimension at points with
    # small and large denominators; the public constructor's own rank check
    # must accept each basis, and _rows must stay a positive integer
    # multiple of _integer_rows of it
    start = time.perf_counter()
    kinds = ([GroupKind.sl(m) for m in range(2, MAX_AMBIENT_DIM + 1)]
             + [GroupKind.sp(n) for n in range(1, MAX_AMBIENT_DIM // 2 + 1)]
             + [GroupKind.so_odd(n) for n in range(1, (MAX_AMBIENT_DIM - 1) // 2 + 1)])
    built = 0
    for kind in kinds:
        m = kind.ambient_dim
        for t in (F(0), F(1), F(-1), F(3, 7), F(-9, 2), F(10 ** 6 + 3, 997)):
            for flag in (osculating_flag(kind, t), exp_translate_flag(kind, t)):
                assert _rows_multiple(flag) is not None, (kind, t)
                assert Flag(m, flag.basis) == flag
                built += 1
    assert built == 552
    assert time.perf_counter() - start < 10.0


def test_mixed_field_pairs_match_references():
    # a flag with integer rows from its construction beside a flag over
    # Q(sqrt(5)), in both orders: the same flag in another basis, or moved
    rng = random.Random(16)
    kinds = [GroupKind.sl(2), GroupKind.sl(3), GroupKind.sp(1), GroupKind.sp(2),
             GroupKind.so_odd(1)]
    verdicts = {True: 0, False: 0}
    isotropic = {True: 0, False: 0}
    for trial in range(30):
        kind = kinds[trial % len(kinds)]
        m = kind.ambient_dim
        t = F(rng.randint(-9, 9), rng.randint(1, 9))
        f = (exp_translate_flag if trial % 2 else osculating_flag)(kind, t)
        B = f.basis * _upper(rng, m, D)
        if trial % 3 == 0:
            B = _perturbed(rng, B, D)
        if rank(B) < m or not any(type(x) is QuadExt and x.b
                                  for i in range(m) for x in B.row(i)):
            continue
        g = Flag(m, B)
        want = ref_flags_equal(f, g)
        assert flags_equal(f, g) == want == flags_equal(g, f), (kind, trial)
        verdicts[want] += 1
        if kind.tag != "SL":
            form = gram_matrix(kind)
            for flag in (f, g):
                iso = ref_is_isotropic(flag, form)
                assert is_isotropic_flag(flag, form) == iso, (kind, trial)
                isotropic[iso] += 1
    assert verdicts[True] >= 10 and verdicts[False] >= 5
    assert isotropic[True] >= 10 and isotropic[False] >= 3
