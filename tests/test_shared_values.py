"""The values the package constructs, rather than computes by arithmetic,
are built through ``linalg._rational`` and ``linalg._ratio``.

Flag bases, unit blocks, Gram matrices, nilpotents, exp(t*N) and lazy
polynomial-plane bases each equal the Fraction construction they replaced,
and each of their whole-number entries v in -256..256 is the shared
``_SMALL[v + 256]``.  Results of Fraction arithmetic, such as the entries
of ``inverse``, stay new objects and are not checked here.
"""

import random
from fractions import Fraction

import pytest

from schubert import flags
from schubert.cli import MAX_AMBIENT_DIM
from schubert.flags import (GroupKind, exp_translate_flag, gram_matrix,
                            osculating_flag, principal_nilpotent)
from schubert.linalg import (_SMALL, Matrix, _exp_rows, _nilpotent_powers,
                             det, exp_nilpotent, kernel, rref)
from schubert.wronski import random_plane

F = Fraction
# rational points u/v with v != 1, so that the bases have fractional entries
POINTS = [F(3, 2), F(-5, 7), F(1, 3)]

# every kind a --kind command accepts: ambient dimension up to the CLI's bound
CLI_KINDS = ([GroupKind.sl(m) for m in range(2, MAX_AMBIENT_DIM + 1)]
             + [GroupKind(tag, n) for tag in ("Sp", "SO_odd", "SO_even")
                for n in range(1, MAX_AMBIENT_DIM // 2 + 1)
                if GroupKind(tag, n).ambient_dim <= MAX_AMBIENT_DIM])
FLAG_KINDS = [kind for kind in CLI_KINDS if kind.tag != "SO_even"]
FORM_KINDS = [kind for kind in FLAG_KINDS if kind.tag != "SL"]


def assert_built(entries, want):
    """Each entry is a Fraction equal to its old construction in ``want``,
    and a whole-number entry in -256..256 is the shared Fraction."""
    entries, want = list(entries), list(want)
    assert len(entries) == len(want)
    for x, w in zip(entries, want):
        assert type(x) is Fraction and x == w
        if x.denominator == 1 and -256 <= x <= 256:
            assert x is _SMALL[x.numerator + 256], x


def entries(M: Matrix):
    return [x for i in range(M.rows) for x in M.row(i)]


def unit(i: int, j: int) -> Fraction:
    return F(1 if i == j else 0)


@pytest.mark.parametrize("build", [osculating_flag, exp_translate_flag],
                         ids=["osculating_flag", "exp_translate_flag"])
def test_flag_bases_share_their_whole_entries(build, monkeypatch):
    seen = []

    def spy(m, rows, den):
        seen.append((rows, den))
        return flag_of(m, rows, den)

    flag_of = flags._flag_of
    monkeypatch.setattr(flags, "_flag_of", spy)
    for kind in FLAG_KINDS:
        for t in POINTS:
            flag = build(kind, t)
            rows, den = seen.pop()
            assert_built(entries(flag.basis),
                         [F(x, den) for row in rows for x in row])


@pytest.mark.parametrize("n", [0, 1, 2, 5, MAX_AMBIENT_DIM])
def test_identity_shares_its_entries(n):
    assert_built(entries(Matrix.identity(n)),
                 [unit(i, j) for i in range(n) for j in range(n)])


def test_kernel_unit_rows_are_shared():
    rng = random.Random(7)
    for r, c in [(1, 3), (2, 5), (3, 6), (4, 4)]:
        M = Matrix([[rng.choice([0, 0, 1, -2, F(3, 4)]) for _ in range(c)]
                    for _ in range(r)])
        pivots = rref(M)[1]
        free = [j for j in range(c) if j not in pivots]
        K = kernel(M)
        assert K.cols == len(free)
        for a, f in enumerate(free):
            assert_built(K.row(f), [unit(a, b) for b in range(len(free))])


def test_exp_nilpotent_shares_its_whole_entries():
    for kind in CLI_KINDS:
        N = principal_nilpotent(kind)
        D, powers = _nilpotent_powers(N)
        for t in POINTS:
            rows, den = _exp_rows(D, powers, N.rows, t)
            assert_built(entries(exp_nilpotent(N, t)),
                         [F(x, den) for row in rows for x in row])


def test_det_shares_a_whole_value():
    cases = [(Matrix.identity(4), 1),
             (Matrix([[F(1, 2), 1], [3, 4]]), -1),
             (Matrix([[2, 4], [1, 2]]), 0),
             (Matrix([[3, 0, 0], [5, 6, 0], [F(1, 7), 8, 14]]), 252),
             (Matrix([[F(1, 2), 0], [0, F(1, 3)]]), F(1, 6)),
             (Matrix([[300, 0], [0, 1]]), 300)]
    for kind in CLI_KINDS:
        N = principal_nilpotent(kind)
        cases += [(exp_nilpotent(N, t), 1) for t in POINTS]
    for kind in FORM_KINDS:
        # the anti-diagonal's permutation sign, times -1 for each of Sp's n -1s
        m, n = kind.ambient_dim, kind.param
        sign = (-1) ** (m * (m - 1) // 2 + (n if kind.tag == "Sp" else 0))
        cases.append((gram_matrix(kind).gram, sign))
    for M, want in cases:
        assert_built([det(M)], [F(want)])


def test_gram_matrices_share_their_entries():
    for kind in FORM_KINDS:
        m, sp = kind.ambient_dim, kind.tag == "Sp"
        sign = [-1 if sp and i >= kind.param else 1 for i in range(m)]
        assert_built(entries(gram_matrix(kind).gram),
                     [F(sign[i] if i + j == m - 1 else 0)
                      for i in range(m) for j in range(m)])


def _nilpotent_rows(kind: GroupKind) -> list[list[int]]:
    """principal_nilpotent's documented entries, as ints."""
    m, n = kind.ambient_dim, kind.param
    sub = {"SL": list(range(1, m)),
           "Sp": [1] * n + [-1] * (n - 1),
           "SO_odd": [1] * n + [-1] * n,
           "SO_even": [1] * (n - 1) + [0] + [-1] * (n - 1)}[kind.tag]
    rows = [[0] * m for _ in range(m)]
    for i, v in enumerate(sub):
        rows[i + 1][i] = v
    if kind.tag == "SO_even" and n >= 2:
        rows[n][n - 2], rows[n + 1][n - 1] = 1, -1
    return rows


def test_principal_nilpotents_share_their_entries():
    for kind in CLI_KINDS:
        assert_built(entries(principal_nilpotent(kind)),
                     [F(x) for row in _nilpotent_rows(kind) for x in row])


def test_lazy_plane_basis_shares_its_whole_coefficients():
    rng = random.Random(3)
    for k, m in [(1, 1), (1, 4), (2, 4), (3, 6), (4, 8)]:
        for _ in range(5):
            plane = random_plane(k, m, rng)
            for p, row in zip(plane.basis, plane._rows):
                want = [F(x, plane._scale) for x in row]
                while want and not want[-1]:
                    want.pop()
                assert_built(p.coeffs, want)
