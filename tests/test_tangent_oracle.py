"""tangent_space against the Schubert cell's own tangent vectors.

Near a point V of the open cell of I = (i_1 < ... < i_k) relative to the
flag F, the cell is parametrized by the adapted basis
v_j = f_(i_j) + sum c_(j,a) f_a, over a < i_j with a not in I, and
d/dc_(j,a) moves v_j along f_a and fixes the other v_l.  With u = v G the
basis of V that tangent_space reads, that tangent vector is the map
u_c -> G[j][c] * f_a mod V of Hom(V, C^m/V); its coordinate r in the
standard columns W completing V comes from one solve of f_a against
[V | W] and sits in column c*(m - k) + r.  These
sum_j (i_j - j) = k(m - k) - codim(I) vectors must be independent, and
every constraint row must annihilate them; with codim(I) independent rows,
that pins the row space exactly.

Every elimination here is the test's own Gauss-Jordan, over Fractions or,
for the Q(sqrt(d)) four-lines solutions, over sympy's QQ<sqrt(d)>; none
goes through schubert.linalg.
"""

import random
import time
from fractions import Fraction

import pytest

from test_schubert import _cell_point, _random_flag

from schubert.cli import _sp4_flags
from schubert.errors import DegenerateConfiguration, InfinitelyMany
from schubert.flags import GroupKind, osculating_flag
from schubert.grassmann import (SchubertCondition, codim, iota,
                                small_solver_gr24, tangent_space)
from schubert.linalg import QuadExt

F = Fraction


def _rref(rows, nc):
    """Reduce the row list in place to reduced row echelon form over the
    entries' own field; return the pivot columns."""
    pivots = []
    for c in range(nc):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [x - f * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return pivots


def cell_tangent_vectors(U, B, indices, zero, one):
    """The vectors d/dc_(j,a) at the point with basis columns U (m x k, row
    lists) of the open cell of ``indices`` relative to the flag basis B
    (m x m), in tangent_space's coordinates, and the columns W."""
    m, k = len(U), len(U[0])
    # W: the standard columns completing V, the non-pivots of V^T
    vt = [[U[r][c] for r in range(m)] for c in range(k)]
    W = [c for c in range(m) if c not in _rref(vt, m)]
    # [V | W | B] -> [I | (V|W)^-1 B]: rows k.. hold f_a mod V in W
    R = [U[r] + [one if r == w else zero for w in W] + B[r]
         for r in range(m)]
    assert _rref(R, m) == list(range(m))
    image = [[R[k + q][m + a] for q in range(m - k)] for a in range(m)]
    # [B | U] -> [I | C]: C = F^-1 V, the basis in flag coordinates
    S = [B[r] + U[r] for r in range(m)]
    assert _rref(S, m) == list(range(m))
    # rows of C^T read bottom-up, with I_k tracking v_j = sum_c A[j][c] u_c:
    # the rref has its pivots at the jump rows, read from the bottom
    T = [[S[r][m + c] for r in reversed(range(m))]
         + [one if c == b else zero for b in range(k)] for c in range(k)]
    lows = _rref(T, m)
    jumps = [m - p for p in reversed(lows)]
    assert jumps == list(indices), "the point is not in the open cell"
    A = [row[m:] for row in reversed(T)]  # row j: v_j in the basis u
    # u = v G for G the transpose of A^-1: u_c = sum_j G[j][c] v_j
    AI = [A[j] + [one if j == b else zero for b in range(k)]
          for j in range(k)]
    assert _rref(AI, k) == list(range(k))
    G = [[AI[c][k + j] for c in range(k)] for j in range(k)]
    inside = set(indices)
    vectors = []
    for j, ij in enumerate(indices):
        for a in range(1, ij):
            if a in inside:
                continue
            vectors.append([G[j][c] * image[a - 1][q]
                            for c in range(k) for q in range(m - k)])
    return vectors, W


def check_tangent_space(V, cond, flag, to_field=lambda x: x, zero=F(0),
                        one=F(1)):
    """Assert that tangent_space(V, cond, flag) has codim(cond) independent
    rows that annihilate the cell's own tangent vectors, which are
    k(m - k) - codim(cond) and independent."""
    k, m = V.k, V.ambient_dim
    U = [[to_field(x) for x in V.basis.row(r)] for r in range(m)]
    B = [[to_field(x) for x in flag.basis.row(r)] for r in range(m)]
    vectors, W = cell_tangent_vectors(U, B, cond.indices, zero, one)
    assert tuple(W) == V._complement
    rows = [[to_field(x) for x in row]
            for row in tangent_space(V, cond, flag).constraints.to_rows()]
    n = k * (m - k)
    assert len(vectors) == n - codim(cond) and len(rows) == codim(cond)
    assert len(_rref([list(v) for v in vectors], n)) == len(vectors)
    assert len(_rref([list(r) for r in rows], n)) == len(rows)
    for row in rows:
        for v in vectors:
            dot = zero
            for x, y in zip(row, v):
                dot = dot + x * y
            assert not dot


def test_tangent_space_matches_cell_tangent_vectors():
    # every (k, m) with k(m-k) <= 9, seeded conditions, flags and points
    pairs = [(k, m) for m in range(2, 11) for k in range(1, m)
             if k * (m - k) <= 9]
    rng = random.Random(909)
    start = time.perf_counter()
    for k, m in pairs:
        for _ in range(12):
            indices = tuple(sorted(rng.sample(range(1, m + 1), k)))
            cond = SchubertCondition(k, m, indices)
            flag = _random_flag(m, rng)
            check_tangent_space(_cell_point(cond, flag, rng), cond, flag)
    assert time.perf_counter() - start < 10.0


def _osculating_flags(points):
    return [osculating_flag(GroupKind.sl(4), F(t)) for t in points]


def test_tangent_space_matches_at_four_lines_solutions():
    # both Galois-conjugate solutions of each instance, against each of its
    # four conditions, over sympy's QQ<sqrt(d)>
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ

    def in_field(K, d):
        def to_field(x):
            if isinstance(x, QuadExt):
                assert x.d == d
                return K([QQ(x.b.numerator, x.b.denominator),
                          QQ(x.a.numerator, x.a.denominator)])
            return K.convert(QQ(x.numerator, x.denominator))
        return to_field

    instances = [_sp4_flags(seed) for seed in range(8)]
    instances += [_osculating_flags(p) for p in
                  [(0, 1, 2, 3), (-1, 0, 2, 5), (F(1, 2), 1, 3, 7)]]
    cond = iota(2, 4)
    start = time.perf_counter()
    ds = []
    for flags in instances:
        try:
            solutions = small_solver_gr24(flags)
        except (DegenerateConfiguration, InfinitelyMany):
            continue
        d = next((x.d for V in solutions for r in range(4)
                  for x in V.basis.row(r) if isinstance(x, QuadExt)), None)
        assert d is not None, "a pair of rational solutions"
        ds.append(d)
        K = QQ.algebraic_field(sympy.sqrt(d))
        for V in solutions:
            for flag in flags:
                check_tangent_space(V, cond, flag, in_field(K, d),
                                    K.zero, K.one)
    assert len(ds) >= 8
    assert any(d < 0 for d in ds) and any(d > 0 for d in ds)
    assert time.perf_counter() - start < 10.0
