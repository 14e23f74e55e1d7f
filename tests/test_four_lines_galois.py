"""The two solutions of a four-lines instance, under Galois conjugation and ⊥.

Every flag ``solve-four-lines`` builds is rational, so when the discriminant
is not a square the two solutions lie over Q(sqrt(d)) and are exchanged by
sigma: sqrt(d) -> -sqrt(d), which fixes every flag.  For osculating flags at
distinct real points every solution is real (Eremenko-Gabrielov for
Gr(2, n)), so d > 0; random isotropic flags carry no such guarantee, and on
the Sp(4) seeds below d < 0, which makes sigma complex conjugation there.
For four isotropic Sp(4) flags, V -> V^⊥ = kernel(V^T G) maps the solution
set to itself, and a solution that is not Lagrangian goes to the other one.
"""

import random
import time
from fractions import Fraction

from test_tangent_oracle import _osculating_flags

from schubert.cli import _sp4_flags
from schubert.flags import GroupKind, gram_matrix
from schubert.grassmann import small_solver_gr24
from schubert.linalg import Matrix, QuadExt, kernel, rank

F = Fraction
SP4_SEEDS_WITH_NEGATIVE_D = (0, 14, 17, 19, 29)  # 0 is the CLI's default


def _points(seed):
    """Four distinct seeded rationals p/q with |p| <= 9 and 1 <= q <= 9."""
    rng = random.Random(seed)
    points = set()
    while len(points) < 4:
        points.add(F(rng.randint(-9, 9), rng.randint(1, 9)))
    return sorted(points)


def _field_ds(solutions):
    """The d of every QuadExt entry of the solutions' bases."""
    return [x.d for V in solutions for row in V.basis.to_rows()
            for x in row if isinstance(x, QuadExt)]


def _sigma(M):
    """M with each QuadExt entry conjugated: sqrt(d) -> -sqrt(d)."""
    return Matrix([[x.conjugate() if isinstance(x, QuadExt) else x
                    for x in row] for row in M.to_rows()])


def test_osculating_solutions_are_real_and_isotropic_ones_need_not_be():
    start = time.perf_counter()
    irrational = 0
    for seed in range(200):
        ds = _field_ds(small_solver_gr24(_osculating_flags(_points(seed))))
        assert all(d > 0 for d in ds), (seed, ds)
        irrational += bool(ds)
    assert irrational >= 190
    for seed in SP4_SEEDS_WITH_NEGATIVE_D:
        ds = _field_ds(small_solver_gr24(_sp4_flags(seed)))
        assert any(d < 0 for d in ds), (seed, ds)
    assert time.perf_counter() - start < 10.0


def test_perp_and_conjugation_swap_the_two_solutions():
    start = time.perf_counter()
    G = gram_matrix(GroupKind.sp(2)).gram
    for seed in range(40):
        V1, V2 = small_solver_gr24(_sp4_flags(seed))
        perp = kernel(V1.basis.transpose() * G)
        assert rank(V1.basis.hstack(perp)) == 4, seed  # V1 is not Lagrangian
        assert rank(V2.basis.hstack(perp)) == 2, seed
        assert V2.basis == _sigma(V1.basis), seed
    irrational = 0
    for seed in range(40):
        V1, V2 = small_solver_gr24(_osculating_flags(_points(seed)))
        if _field_ds([V1]):
            irrational += 1
            assert V2.basis == _sigma(V1.basis), seed
    assert irrational >= 35
    assert time.perf_counter() - start < 10.0
