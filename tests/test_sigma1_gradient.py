"""A sigma_1 condition's tangent row is the gradient of its one equation.

The condition iota(k, m) says that V meets F_(m-k).  With C = F^-1 V, its
Schubert variety is the hypersurface det(C_low) = 0, C_low being the last
k rows of C.  Move V along phi in Hom(V, C^m/V), in tangent_space's
coordinates: basis vector c of V moves by sum_r phi[r][c] w_r, for the
standard columns W = (w_r) completing V.  Then C moves by X phi, with
X = F^-1 W, and det(C_low) changes at the rate tr(adj(C_low) X_low phi).
So the gradient entry at coordinate c*(m - k) + r is
(adj(C_low) X_low)[c][r].  At a smooth point that gradient is nonzero and
spans the same line as the one row tangent_space returns.

The gradient is built from ``inverse``, ``det`` and cofactors only: no
tangent_space and no jump-row computation.
"""

import random
from fractions import Fraction

from test_schubert import _cell_point, _random_flag

from schubert.cli import _sp4_flags
from schubert.flags import GroupKind, osculating_flag
from schubert.grassmann import iota, small_solver_gr24, tangent_space
from schubert.linalg import Matrix, QuadExt, det, inverse

F = Fraction


def _adjugate(A):
    """adj(A) of the k x k row list A, by cofactors."""
    k = len(A)
    minor = [[det(Matrix([[x for b, x in enumerate(row) if b != i]
                          for a, row in enumerate(A) if a != j]))
              for i in range(k)] for j in range(k)]
    return [[(-1) ** (i + j) * minor[j][i] for j in range(k)]
            for i in range(k)]


def sigma1_gradient(V, flag):
    """The gradient of det(C_low) at V, in tangent_space's coordinates, and
    det(C_low) itself."""
    k, m = V.k, V.ambient_dim
    W = Matrix.from_columns([[F(r == c) for r in range(m)]
                             for c in V._complement])
    Finv = inverse(flag.basis)
    C_low = (Finv * V.basis).to_rows()[m - k:]
    X_low = (Finv * W).to_rows()[m - k:]
    adj = _adjugate(C_low)
    grad = [[sum((adj[c][i] * X_low[i][r] for i in range(k)), F(0))
             for r in range(m - k)] for c in range(k)]
    return [x for row in grad for x in row], det(Matrix(C_low))


def check_gradient(V, flag):
    k, m = V.k, V.ambient_dim
    grad, value = sigma1_gradient(V, flag)
    assert not value, "the point is off the hypersurface"
    (row,) = tangent_space(V, iota(k, m), flag).constraints.to_rows()
    assert any(grad)
    j = next(j for j, x in enumerate(row) if x)
    ratio = grad[j] / row[j]
    assert grad == [ratio * x for x in row]


def test_gradient_spans_the_tangent_row_at_open_cell_points():
    # every (k, m) with k(m-k) <= 9, seeded flags and open-cell points
    pairs = [(k, m) for m in range(2, 11) for k in range(1, m)
             if k * (m - k) <= 9]
    rng = random.Random(1313)
    for k, m in pairs:
        cond = iota(k, m)
        for _ in range(8):
            flag = _random_flag(m, rng)
            check_gradient(_cell_point(cond, flag, rng), flag)


def test_gradient_spans_the_tangent_row_over_q_sqrt_d():
    # both solutions of the four-lines goldens, against each of their flags
    instances = [_sp4_flags(17), _sp4_flags(5),
                 [osculating_flag(GroupKind.sl(4), F(t)) for t in range(4)]]
    for flags in instances:
        solutions = small_solver_gr24(flags)
        assert len(solutions) == 2
        for V in solutions:
            assert any(isinstance(x, QuadExt)
                       for r in range(4) for x in V.basis.row(r))
            for flag in flags:
                check_gradient(V, flag)
