"""Every Matrix the package returns holds exact scalars only.

The package builds its results through the private ``linalg._matrix``,
which stores the rows it is given with no entry check.  So nothing but
these tests keeps an int or a bool out of a result: ``==`` reads
``Fraction(1)`` and ``1`` alike, and so does the CLI's printing.  Each
result must hold only ``Fraction`` or ``QuadExt`` entries and equal, shape
included, the Matrix that the checking public constructor reads from its
rows.  The empty shapes at the end can only be built by the trusted path.
A copy, deep copy or pickle, at every protocol, rebuilds the same Matrix,
and so the same Flag, GrPoint and TangentSpace.
"""

import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations

from schubert.cli import _sp4_flags
from schubert.errors import DegenerateConfiguration, InfinitelyMany
from schubert.flags import (Flag, GroupKind, exp_translate_flag, gram_matrix,
                            osculating_flag, principal_nilpotent)
from schubert.grassmann import (GrPoint, SchubertCondition, iota,
                                small_solver_gr24, tangent_space,
                                transversality_certificate)
from schubert.linalg import (Matrix, QuadExt, exp_nilpotent, inverse, kernel,
                             rref)

F = Fraction
T_VALUES = [F(0), F(1), F(-2), F(3, 4), F(-5, 3)]
KINDS = ([GroupKind.sl(m) for m in range(2, 7)]
         + [GroupKind.sp(n) for n in (1, 2, 3)]
         + [GroupKind.so_odd(n) for n in (1, 2, 3)])
S5 = QuadExt(0, 1, 5)


def package_built(M):
    """Only Fraction or QuadExt entries, and equal to Matrix(M.to_rows());
    a Matrix with no rows has no rows to rebuild it from."""
    rows = M.to_rows()
    return (all(type(x) in (Fraction, QuadExt) for row in rows for x in row)
            and (not M.rows or Matrix(rows) == M))


def test_matrix_algebra_results_are_package_built():
    A = Matrix([[1, 2, 0], [F(1, 2), 0, -3], [0, 1, 1]])
    B = Matrix([[1 + S5, 0, 2], [1, 2 * S5, 0], [0, 1, S5]])
    results = [Matrix.identity(3), Matrix.identity(0),
               Matrix.from_columns([[1, 0], [F(2, 3), 5]])]
    for X, Y in ((A, B), (B, A), (A, A)):
        results += [X.transpose(), X.hstack(Y), X.take_columns([2, 0]),
                    X + Y, -X, X * Y, rref(X)[0], kernel(X),
                    kernel(X.hstack(Y)), inverse(X)]
    assert all(package_built(M) for M in results)


def test_exp_nilpotent_is_package_built():
    # a rational and a Q(sqrt(5)) nilpotent beside the principal ones
    strict = [Matrix([[0, 0, 0], [2, 0, 0], [F(1, 3), -1, 0]]),
              Matrix([[0, 0, 0], [S5, 0, 0], [1, 1 - S5, 0]])]
    for N in strict + [principal_nilpotent(k) for k in KINDS]:
        for t in T_VALUES:
            assert package_built(exp_nilpotent(N, t)), (N, t)


def test_flag_layer_matrices_are_package_built():
    for kind in KINDS:
        for t in T_VALUES:
            assert package_built(osculating_flag(kind, t).basis), (kind, t)
            assert package_built(exp_translate_flag(kind, t).basis), (kind, t)
        if kind.tag != "SL":
            assert package_built(gram_matrix(kind).gram), kind
    for kind in KINDS + [GroupKind.so_even(n) for n in (1, 2, 3, 4)]:
        assert package_built(principal_nilpotent(kind)), kind


def _cell_point(cond, flag, rng):
    """A rational point of the open cell of cond relative to flag: column j
    is flag column i_j plus multiples of earlier columns outside cond."""
    cols = []
    for i in cond.indices:
        vec = list(flag.basis.column(i - 1))
        for a in range(1, i):
            if a not in cond.indices:
                c = F(rng.randint(-4, 4), rng.randint(1, 3))
                vec = [v + c * x for v, x in zip(vec, flag.basis.column(a - 1))]
        cols.append(vec)
    return GrPoint(Matrix.from_columns(cols))


def test_tangent_constraints_are_package_built():
    # rational points of every cell of Gr(2, 4), Gr(2, 5) and Gr(3, 6)
    # relative to osculating flags, where the rows are scaled to ints
    rng = random.Random(20)
    for kind, k in ((GroupKind.sl(4), 2), (GroupKind.sp(2), 2),
                    (GroupKind.so_odd(2), 2), (GroupKind.sp(3), 3)):
        m = kind.ambient_dim
        for t in T_VALUES:
            flag = osculating_flag(kind, t)
            for indices in combinations(range(1, m + 1), k):
                cond = SchubertCondition(k, m, indices)
                T = tangent_space(_cell_point(cond, flag, rng), cond, flag)
                assert package_built(T.constraints), (kind, t, indices)
    # the Q(sqrt(d)) points of four-lines solutions, against each of their
    # four flags
    instances = [_sp4_flags(seed) for seed in range(4)]
    instances += [[osculating_flag(GroupKind.sl(4), F(t)) for t in points]
                  for points in [(0, 1, 2, 3), (F(1, 2), 1, 3, 7)]]
    checked = 0
    for flags in instances:
        try:
            solutions = small_solver_gr24(flags)
        except (DegenerateConfiguration, InfinitelyMany):
            continue
        for V in solutions:
            for flag in flags:
                T = tangent_space(V, iota(2, 4), flag)
                assert package_built(T.constraints)
                checked += 1
    assert checked >= 40


# -- empty shapes ---------------------------------------------------------------


def test_codim_zero_condition_has_no_constraint_rows():
    V = GrPoint(Matrix.from_columns([[0, 0, 1, 0], [0, 0, 0, 1]]))
    cond = SchubertCondition(2, 4, (3, 4))
    flag = Flag.coordinate(4)
    T = tangent_space(V, cond, flag)
    assert (T.constraints.rows, T.constraints.cols) == (0, 4)
    assert T.constraints.to_rows() == []
    cert = transversality_certificate(V, [(cond, flag)])
    assert (cert.transverse, cert.tangent_codim, cert.codim_sum) == (True, 0, 0)


def test_kernel_of_an_invertible_matrix_has_no_columns():
    K = kernel(Matrix.identity(3))
    assert (K.rows, K.cols) == (3, 0) and package_built(K)
    Kt = K.transpose()
    assert (Kt.rows, Kt.cols) == (0, 3) and Kt.to_rows() == []


def test_product_over_an_empty_inner_dimension_is_zero():
    left = Matrix([[], []])  # 2 x 0
    right = kernel(Matrix.identity(3)).transpose()  # 0 x 3
    P = left * right
    assert (P.rows, P.cols) == (2, 3)
    assert P == Matrix([[0, 0, 0], [0, 0, 0]]) and package_built(P)


# -- copies -----------------------------------------------------------------


def _copies(x):
    return [copy.copy(x), copy.deepcopy(x), copy.deepcopy([x])[0],
            *(pickle.loads(pickle.dumps(x, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1))]


def test_matrices_flags_points_and_tangents_survive_copy_and_pickle():
    # every pickle protocol, 0 and 1 included, rebuilds a Matrix through
    # linalg._matrix: shape, entry types and the state a Flag or GrPoint
    # keeps beside its fields come back too
    matrices = [Matrix([[1, F(-2, 3)], [S5, 4]]), kernel(Matrix.identity(3)),
                kernel(Matrix.identity(3)).transpose()]
    for M in matrices:
        for C in _copies(M):
            assert type(C) is Matrix and C == M and package_built(C)
            assert (C.rows, C.cols) == (M.rows, M.cols)
    sp4 = _sp4_flags(1)
    flags = [Flag(3, Matrix([[1, 2, 0], [0, 1, 0], [3, 0, 1]])),
             osculating_flag(GroupKind.sp(2), F(-3, 2)), *sp4]
    for flag in flags:
        for C in _copies(flag):
            assert C == flag and C._rows == flag._rows
            assert package_built(C.basis)
    V = small_solver_gr24(sp4)[0]  # a Q(sqrt(d)) point
    T = tangent_space(V, iota(2, 4), sp4[0])
    for point in (V, GrPoint(Matrix.from_columns([[0, 1, 0, 0],
                                                  [0, 0, 0, 1]]))):
        for C in _copies(point):
            assert C == point and C._complement == point._complement
    for C in _copies(T):
        assert C == T and package_built(C.constraints)
        assert C.point._complement == V._complement
