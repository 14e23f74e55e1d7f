"""Exact linear algebra: rank/kernel against brute-force oracles, nilpotent
exponentials against the closed-form series, quadratic roots resubstituted."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

import pytest

from schubert.errors import NoSolution, NotNilpotent
from schubert.linalg import (Matrix, QuadExt, det, exp_nilpotent, inverse,
                             kernel, rank, rref, solve_quadratic, square_split)

F = Fraction


def _det_cofactor(rows):
    """Independent determinant by first-row cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = F(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def _rank_by_minors(rows, cols_n):
    """Largest r with a nonvanishing r x r minor -- the defining rank."""
    n = len(rows)
    for r in range(min(n, cols_n), 0, -1):
        for rsel in combinations(range(n), r):
            for csel in combinations(range(cols_n), r):
                sub = [[rows[i][j] for j in csel] for i in rsel]
                if _det_cofactor(sub) != 0:
                    return r
    return 0


def _random_matrix(rng, rows, cols, lo=-2, hi=2):
    return Matrix([[F(rng.randint(lo, hi)) for _ in range(cols)]
                   for _ in range(rows)])


# -- rank / kernel / inverse / det --------------------------------------------


def test_rank_identity_and_zero():
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix([[0, 0, 0, 0, 0], [0, 0, 0, 0, 0]])) == 0


def test_rank_dependent_rows():
    assert rank(Matrix([[1, 2], [2, 4]])) == 1


def test_rank_matches_minor_oracle_on_small_matrices():
    rng = random.Random(20240)
    for _ in range(60):
        rows_n = rng.randint(1, 4)
        cols_n = rng.randint(1, 4)
        rows = [[F(rng.randint(-2, 2)) for _ in range(cols_n)]
                for _ in range(rows_n)]
        M = Matrix(rows)
        assert rank(M) == _rank_by_minors(rows, cols_n)


def test_kernel_trivial_and_known():
    assert kernel(Matrix.identity(2)).cols == 0
    K = kernel(Matrix([[1, 1]]))
    assert K.cols == 1
    assert K[0, 0] * 1 + K[1, 0] * 1 == 0 and K != Matrix([[0], [0]])
    K2 = kernel(Matrix([[1, 2], [2, 4]]))
    assert K2.cols == 1
    # span of (2, -1): second coordinate is -1/2 of the first
    assert K2[0, 0] * F(-1) == K2[1, 0] * F(2)


def test_rank_nullity_and_annihilation():
    rng = random.Random(7)
    for _ in range(40):
        M = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -3, 3)
        K = kernel(M)
        assert rank(M) + K.cols == M.cols
        if K.cols:
            assert M * K == Matrix([[0] * K.cols] * M.rows)


def test_rref_idempotent_and_pivots():
    M = Matrix([[0, 2, 1], [0, 4, 2], [1, 0, 0]])
    R, pivots = rref(M)
    assert pivots == (0, 1)
    R2, pivots2 = rref(R)
    assert R2 == R and pivots2 == pivots


def test_inverse_round_trip_and_singular():
    rng = random.Random(99)
    found = 0
    while found < 10:
        M = _random_matrix(rng, 3, 3, -4, 4)
        if rank(M) < 3:
            continue
        found += 1
        assert M * inverse(M) == Matrix.identity(3)
    with pytest.raises(ValueError):
        inverse(Matrix([[1, 2], [2, 4]]))


def test_det_matches_cofactor_oracle():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 4)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        assert det(Matrix(rows)) == _det_cofactor(rows)


# -- exp of nilpotent matrices -------------------------------------------------


def test_exp_zero_matrix_is_identity():
    Z = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert exp_nilpotent(Z, F(5)) == Matrix.identity(3)


def test_exp_single_jordan_block():
    N = Matrix([[0, 0], [1, 0]])
    assert exp_nilpotent(N, F(3)) == Matrix([[1, 0], [3, 1]])


def test_exp_weighted_subdiagonal_frozen():
    # subdiagonal (1, 2): exp(t*N) = [[1,0,0],[t,1,0],[t^2,2t,1]], at t = 2
    N = Matrix([[0, 0, 0], [1, 0, 0], [0, 2, 0]])
    assert exp_nilpotent(N, F(2)) == Matrix([[1, 0, 0], [2, 1, 0], [4, 4, 1]])


def test_exp_one_parameter_group_law():
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(2, 4)
        N = Matrix([[F(rng.randint(-2, 2)) if i > j else F(0)
                     for j in range(n)] for i in range(n)])
        s = F(rng.randint(-5, 5), rng.randint(1, 4))
        t = F(rng.randint(-5, 5), rng.randint(1, 4))
        assert exp_nilpotent(N, s) * exp_nilpotent(N, t) == exp_nilpotent(N, s + t)
        assert exp_nilpotent(N, s) * exp_nilpotent(N, -s) == Matrix.identity(n)


def test_exp_rejects_non_nilpotent():
    with pytest.raises(NotNilpotent):
        exp_nilpotent(Matrix.identity(2), F(1))


# -- quadratic roots and the quadratic extension -------------------------------


def test_solve_quadratic_rational_roots():
    assert set(solve_quadratic(F(1), F(0), F(-4))) == {F(2), F(-2)}
    assert set(solve_quadratic(F(1), F(-3), F(2))) == {F(1), F(2)}


def test_solve_quadratic_irrational_roots():
    r1, r2 = solve_quadratic(F(1), F(0), F(-2))
    assert r1 * r1 == 2 and r2 * r2 == 2 and r1 != r2
    assert r1.d == 2


def test_solve_quadratic_linear_and_errors():
    assert solve_quadratic(F(0), F(2), F(-4)) == [F(2)]
    with pytest.raises(NoSolution):
        solve_quadratic(F(0), F(0), F(5))
    with pytest.raises(ValueError):
        solve_quadratic(F(0), F(0), F(0))


def test_solve_quadratic_double_root():
    roots = solve_quadratic(F(1), F(-2), F(1))
    assert roots == [F(1), F(1)]


def test_solve_quadratic_residual_is_zero():
    rng = random.Random(11)
    for _ in range(25):
        a = F(rng.randint(-5, 5), rng.randint(1, 3))
        b = F(rng.randint(-5, 5), rng.randint(1, 3))
        c = F(rng.randint(-5, 5), rng.randint(1, 3))
        if a == 0 and b == 0:
            continue
        for r in solve_quadratic(a, b, c):
            assert a * r * r + b * r + c == 0


def test_square_split_frozen_values():
    assert square_split(0) == (1, 0)
    assert square_split(1) == (1, 1)
    assert square_split(12) == (2, 3)
    assert square_split(-18) == (3, -2)
    assert square_split(49) == (7, 1)


def test_square_split_reconstructs_input():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(-10**6, 10**6)
        s, d = square_split(n)
        assert s * s * d == n
    # stays exact on integers far beyond the trial-division range
    big = 37 * 10**40 + 1
    s, d = square_split(big)
    assert s * s * d == big


def _square_split_by_trial_division(n):
    # reference: trial division by 2 and every odd number up to 10**5, then
    # a perfect-square test of the cofactor
    if n == 0:
        return 1, 0
    sign = -1 if n < 0 else 1
    n = abs(n)
    root = isqrt(n)
    if root * root == n:
        return root, sign
    s, d, p = 1, 1, 2
    while p <= 100_000 and p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        d *= p ** (e % 2)
        p += 1 if p == 2 else 2
    if n > 1:
        root = isqrt(n)
        if root * root == n:
            s *= root
        else:
            d *= n
    return s, sign * d


def test_square_split_matches_trial_division():
    rng = random.Random(29)
    below, above = 99_991, 100_003  # the primes next to 10**5
    inputs = [0, 1, -1, 4, -4, 10**12, 2**61, -(3**40),
              below ** 2, below ** 3, -(below ** 2) * 6, below ** 2 * above,
              above ** 2, -(above ** 2), above ** 2 * 7, above ** 3,
              above ** 2 * 100_019, below ** 2 * above ** 2 * 5]
    inputs += [rng.getrandbits(200) * rng.choice((1, -1)) for _ in range(40)]
    inputs += [rng.choice((1, -1)) * rng.randint(1, 10**6) ** 2
               * rng.choice((2, 3, 12, 98, below)) ** rng.randint(1, 5)
               * rng.getrandbits(60) for _ in range(40)]
    for n in inputs:
        assert square_split(n) == _square_split_by_trial_division(n), n


def test_quadext_normalization():
    assert QuadExt(F(1), F(1), 8) == QuadExt(F(1), F(2), 2)
    assert QuadExt(F(0), F(1), 9) == F(3)
    assert QuadExt(F(2), F(0), 7) == F(2)
    assert hash(QuadExt(F(3), F(0), 5)) == hash(F(3))


def test_quadext_field_identities():
    rng = random.Random(17)
    for _ in range(20):
        d = rng.choice([2, 3, 5, -1, -7, 13])
        a = F(rng.randint(-5, 5), rng.randint(1, 4))
        b = F(rng.randint(-5, 5), rng.randint(1, 4))
        # x is a Fraction when b == 0, which has no inverse method: the
        # operators build the conjugate and the inverse
        x, xbar = a + b * QuadExt(0, 1, d), a - b * QuadExt(0, 1, d)
        assert x == QuadExt(a, b, d)
        assert x * xbar == a * a - d * b * b
        if x:
            assert x * (1 / x) == 1
        if b:
            assert x.conjugate() == xbar and x.inverse() == 1 / x
        y = QuadExt(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)), d)
        z = QuadExt(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)), d)
        assert (x + y) * z == x * z + y * z
        assert x + y == y + x and x * y == y * x


@pytest.mark.parametrize("args", [
    (0, 1, 2.9), (F(0), F(1), True), (0, 1, F(2)), (0, 1, "2"),
    (0.1,), (0, 0.5, 2), ("1",), (QuadExt(0, 1, 2),)])
def test_quadext_takes_only_exact_parts(args):
    # a float d would truncate, and a float part would store its binary value
    with pytest.raises(TypeError):
        QuadExt(*args)


def test_quadext_rejects_mixed_extensions():
    with pytest.raises(ValueError):
        QuadExt(F(0), F(1), 2) + QuadExt(F(0), F(1), 3)


def test_quadext_equal_across_square_splits():
    # square_split leaves squares of primes above its trial bound inside d,
    # so one number can be stored over two different d
    p, q = 100003, 100019
    for sign in (1, -1):
        x = QuadExt(F(1), F(1), sign * p * p * q)
        y = QuadExt(F(1), F(p), sign * q)
        assert x.d != y.d
        assert x == y and hash(x) == hash(y)
        assert x - y == 0 and not (x - y)
        assert x + y == 2 * y and x * x == y * y
        assert x != y.conjugate()


def test_quadext_mixes_with_rationals():
    x = QuadExt(F(1), F(1), 5)
    assert x + 1 == QuadExt(F(2), F(1), 5)
    assert 2 * x == QuadExt(F(2), F(2), 5)
    assert type(x - x) is F and x - x == 0
    assert F(1, 2) / QuadExt(F(0), F(1), 2) == QuadExt(F(0), F(1, 4), 2)


def test_quadext_survives_copy_and_pickle():
    # QuadExt() is Fraction(0), so copies must rebuild from (a, b, d)
    x = QuadExt(F(1, 2), F(-3), 7)
    copies = [copy.copy(x), copy.deepcopy(x), copy.deepcopy([x])[0]]
    copies += [pickle.loads(pickle.dumps(x, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for y in copies:
        assert type(y) is QuadExt
        assert (y.a, y.b, y.d) == (x.a, x.b, x.d) and y == x


def test_matrix_over_quadext():
    s2 = QuadExt(F(0), F(1), 2)
    M = Matrix([[s2, 1], [2, s2]])
    assert det(M) == 0  # sqrt(2)^2 - 2
    assert rank(M) == 1
