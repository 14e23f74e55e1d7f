"""Curves, osculating flags, bilinear forms, principal nilpotents.

The derivative columns are cross-checked with a Taylor-expansion oracle:
since every curve entry is a polynomial of degree < m, the full Taylor sum
gamma(t+h) = sum_j h^j/j! * gamma^(j)(t) must hold exactly.
"""

import random
from fractions import Fraction

import pytest

from schubert.errors import (DimensionMismatch, NotNilpotent,
                             UnsupportedGroup)
from schubert.flags import (BilinearForm, Flag, GroupKind, curve_point,
                            exp_translate_flag, flags_equal, gram_matrix,
                            is_isotropic_flag, nilpotency_index,
                            osculating_flag, principal_nilpotent,
                            random_isotropic_flag)
from schubert.linalg import Matrix, det, exp_nilpotent, rank

F = Fraction

T_SAMPLE = [F(0), F(1), F(-1), F(2), F(-2), F(1, 2), F(-3, 5)]


def _column(vec):
    return [vec[i, 0] for i in range(vec.rows)]


# -- curves --------------------------------------------------------------------


def test_sp4_curve_closed_form():
    kind = GroupKind.sp(2)
    for t in T_SAMPLE:
        assert _column(curve_point(kind, t)) == [
            F(1), t, t * t / 2, -t**3 / 6]
    assert _column(curve_point(kind, F(2))) == [F(1), F(2), F(2), F(-4, 3)]


def test_so5_curve_closed_form():
    kind = GroupKind.so_odd(2)
    for t in T_SAMPLE:
        assert _column(curve_point(kind, t)) == [
            F(1), t, t * t / 2, -t**3 / 6, t**4 / 24]


def test_sl_curve_is_moment_curve():
    assert _column(curve_point(GroupKind.sl(3), F(0))) == [F(1), F(0), F(0)]
    assert _column(curve_point(GroupKind.sl(4), F(3))) == [F(1), F(3), F(9), F(27)]


def test_so_even_curve_unsupported():
    with pytest.raises(UnsupportedGroup):
        curve_point(GroupKind.so_even(2), F(1))
    with pytest.raises(UnsupportedGroup):
        osculating_flag(GroupKind.so_even(3), F(0))
    with pytest.raises(UnsupportedGroup):
        gram_matrix(GroupKind.so_even(2))
    with pytest.raises(UnsupportedGroup):
        gram_matrix(GroupKind.sl(4))


# -- osculating flags ----------------------------------------------------------


def test_osculating_columns_are_derivatives_taylor_oracle():
    from math import factorial
    for kind in [GroupKind.sl(3), GroupKind.sp(2), GroupKind.so_odd(2)]:
        m = kind.ambient_dim
        for t in [F(0), F(1), F(-2, 3)]:
            flag = osculating_flag(kind, t)
            for h in [F(1), F(-1, 3)]:
                expect = _column(curve_point(kind, t + h))
                total = [F(0)] * m
                for j in range(m):
                    w = h**j / factorial(j)
                    for i in range(m):
                        total[i] += w * flag.basis[i, j]
                assert total == expect, (kind, t, h)


def test_osculating_at_zero_is_coordinate_flag():
    flag = osculating_flag(GroupKind.sl(3), F(0))
    assert flags_equal(flag, Flag.coordinate(3))


def test_sp4_osculating_second_column():
    t = F(5, 7)
    flag = osculating_flag(GroupKind.sp(2), t)
    assert _column(flag.basis.take_columns([1])) == [F(0), F(1), t, -t * t / 2]


def test_osculating_frame_invertible():
    assert det(osculating_flag(GroupKind.sl(4), F(1)).basis) != 0


# -- Gram matrices and isotropy --------------------------------------------------


def test_sp4_gram_entries():
    g = gram_matrix(GroupKind.sp(2)).gram
    expect = Matrix([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]])
    assert g == expect


def test_sp2_and_so5_gram():
    assert gram_matrix(GroupKind.sp(1)).gram == Matrix([[0, 1], [-1, 0]])
    g5 = gram_matrix(GroupKind.so_odd(2)).gram
    assert g5 == Matrix([[1 if i + j == 4 else 0 for j in range(5)]
                         for i in range(5)])


def test_gram_matrix_is_built_once_per_kind():
    for kind in (GroupKind.sp(2), GroupKind.so_odd(3)):
        again = GroupKind(kind.tag, kind.param)
        assert again is not kind and gram_matrix(again) is gram_matrix(kind)
    assert gram_matrix(GroupKind.sp(2)) is not gram_matrix(GroupKind.sp(3))
    # errors are not cached: SL and SO(2n) raise on every call
    for kind in (GroupKind.sl(4), GroupKind.so_even(2)) * 2:
        with pytest.raises(UnsupportedGroup):
            gram_matrix(kind)


def test_bilinear_form_validates_symmetry():
    with pytest.raises(ValueError):
        BilinearForm("alternating", Matrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        BilinearForm("symmetric", Matrix([[0, 1], [-1, 0]]))
    with pytest.raises(ValueError):
        BilinearForm("symmetric", Matrix([[1, 1], [1, 1]]))  # degenerate


@pytest.mark.parametrize("build, error, match", [
    (lambda: Flag(2, Matrix([[1, 2], [2, 4]])), ValueError, "singular"),
    (lambda: Flag(2, Matrix([[1, 0, 0], [0, 1, 0]])), DimensionMismatch,
     "must be 2x2"),
    (lambda: BilinearForm("hermitian", Matrix.identity(2)), ValueError,
     "unknown form kind"),
    (lambda: BilinearForm("symmetric", Matrix([[1, 0, 0], [0, 1, 0]])),
     DimensionMismatch, "square"),
    (lambda: exp_translate_flag(GroupKind.so_even(2), F(1)), UnsupportedGroup,
     "no attached flag family"),
    (lambda: random_isotropic_flag(GroupKind.sl(3), 1), UnsupportedGroup,
     "no isotropic flags"),
], ids=["singular-flag", "non-square-flag", "unknown-form-kind",
        "non-square-gram", "exp-translate-so-even", "random-isotropic-sl"])
def test_flag_layer_errors(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_coordinate_flag_isotropic_for_sp4():
    assert is_isotropic_flag(Flag.coordinate(4), gram_matrix(GroupKind.sp(2)))


def test_osculating_flags_isotropic():
    for kind in [GroupKind.sp(2), GroupKind.sp(3), GroupKind.so_odd(2),
                 GroupKind.so_odd(3)]:
        form = gram_matrix(kind)
        for t in [F(3), F(-1, 2)]:
            assert is_isotropic_flag(osculating_flag(kind, t), form)


def test_shifted_flag_not_isotropic():
    # columns (e4, e1, e2, e3): the i=1 check hits <e4, e1> = -1
    shifted = Matrix.from_columns([[F(i == r) for i in range(4)]
                                   for r in (3, 0, 1, 2)])
    form = gram_matrix(GroupKind.sp(2))
    assert not is_isotropic_flag(Flag(4, shifted), form)
    # the fully reversed (opposite) flag, by contrast, is isotropic
    reversed_basis = Matrix([[1 if i == 3 - j else 0 for j in range(4)]
                             for i in range(4)])
    assert is_isotropic_flag(Flag(4, reversed_basis), form)


def test_isotropy_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        is_isotropic_flag(Flag.coordinate(4), gram_matrix(GroupKind.so_odd(2)))


# -- principal nilpotents --------------------------------------------------------


def test_sl3_nilpotent_frozen():
    assert principal_nilpotent(GroupKind.sl(3)) == Matrix(
        [[0, 0, 0], [1, 0, 0], [0, 2, 0]])


def _subdiagonal(M):
    return [M[i + 1, i] for i in range(M.rows - 1)]


def test_sp_and_so_odd_subdiagonals():
    assert _subdiagonal(principal_nilpotent(GroupKind.sp(2))) == [1, 1, -1]
    assert _subdiagonal(principal_nilpotent(GroupKind.sp(3))) == [1, 1, 1, -1, -1]
    assert _subdiagonal(principal_nilpotent(GroupKind.so_odd(2))) == [1, 1, -1, -1]
    assert _subdiagonal(principal_nilpotent(GroupKind.so_odd(3))) == [1, 1, 1, -1, -1, -1]


def test_so_even_nilpotent_short_index():
    for n in range(2, 6):
        eta = principal_nilpotent(GroupKind.so_even(n))
        assert _subdiagonal(eta)[:n - 1] == [1] * (n - 1)
        assert _subdiagonal(eta)[n:] == [-1] * (n - 1)
        idx = nilpotency_index(eta)
        assert idx == 2 * n - 1 and idx < 2 * n


def test_nilpotency_indices_principal_cases():
    assert nilpotency_index(principal_nilpotent(GroupKind.sl(4))) == 4
    assert nilpotency_index(principal_nilpotent(GroupKind.sp(2))) == 4
    assert nilpotency_index(principal_nilpotent(GroupKind.so_odd(2))) == 5
    assert nilpotency_index(principal_nilpotent(GroupKind.so_even(2))) == 3


def test_nilpotency_index_rejects_invertible():
    with pytest.raises(NotNilpotent):
        nilpotency_index(Matrix.identity(3))


def test_nilpotents_lie_in_the_algebra():
    # X^T G + G X = 0 is the defining equation of the Lie algebra of the form
    for kind in [GroupKind.sp(1), GroupKind.sp(2), GroupKind.sp(3),
                 GroupKind.so_odd(1), GroupKind.so_odd(2), GroupKind.so_odd(3)]:
        G = gram_matrix(kind).gram
        X = principal_nilpotent(kind)
        m = kind.ambient_dim
        assert X.transpose() * G + G * X == Matrix([[0] * m] * m), kind


# -- exp translation -------------------------------------------------------------


def test_exp_translate_sl3_frozen():
    t = F(2)
    flag = exp_translate_flag(GroupKind.sl(3), t)
    assert flag.basis == Matrix([[1, 0, 0], [2, 1, 0], [4, 4, 1]])


def test_exp_translate_at_zero():
    for kind in [GroupKind.sl(4), GroupKind.sp(2), GroupKind.so_odd(2)]:
        assert exp_translate_flag(kind, F(0)).basis == Matrix.identity(
            kind.ambient_dim)


def test_exp_translate_first_column_is_curve():
    for kind in [GroupKind.sp(2), GroupKind.so_odd(2), GroupKind.sl(5)]:
        for t in [F(1), F(-2), F(3, 4)]:
            flag = exp_translate_flag(kind, t)
            assert _column(flag.basis.take_columns([0])) == _column(
                curve_point(kind, t)), (kind, t)


def test_exp_translate_matches_osculating():
    kinds = [GroupKind.sl(m) for m in range(2, 7)]
    kinds += [GroupKind.sp(n) for n in (1, 2, 3)]
    kinds += [GroupKind.so_odd(n) for n in (1, 2, 3)]
    for kind in kinds:
        for t in [F(0), F(1), F(-2), F(1, 2)]:
            assert flags_equal(exp_translate_flag(kind, t),
                               osculating_flag(kind, t)), (kind, t)


def test_translation_property():
    for kind in [GroupKind.sl(4), GroupKind.sp(2), GroupKind.so_odd(2)]:
        eta = principal_nilpotent(kind)
        for s, t in [(F(1), F(2)), (F(-1, 2), F(1, 3)), (F(3), F(-3))]:
            moved = Flag(kind.ambient_dim,
                         exp_nilpotent(eta, s) * osculating_flag(kind, t).basis)
            assert flags_equal(moved, osculating_flag(kind, s + t)), (kind, s, t)


# -- flag equality and random isotropic flags --------------------------------------


def test_flags_equal_span_invariance():
    f = osculating_flag(GroupKind.sl(4), F(1))
    assert flags_equal(f, f)
    scaled = Matrix.from_columns(
        [[x * (F(7) if j == 2 else F(1)) for x in f.basis.column(j)]
         for j in range(4)])
    assert flags_equal(f, Flag(4, scaled))
    assert not flags_equal(f, Flag.coordinate(4))
    with pytest.raises(DimensionMismatch):
        flags_equal(f, Flag.coordinate(5))


def test_random_isotropic_flags_pass_isotropy():
    for kind in [GroupKind.sp(1), GroupKind.sp(2), GroupKind.sp(3),
                 GroupKind.so_odd(1), GroupKind.so_odd(2), GroupKind.so_odd(3)]:
        form = gram_matrix(kind)
        for seed in range(5):
            assert is_isotropic_flag(random_isotropic_flag(kind, seed), form)


def test_random_isotropic_flag_deterministic():
    a = random_isotropic_flag(GroupKind.sp(2), 42)
    b = random_isotropic_flag(GroupKind.sp(2), 42)
    assert a.basis == b.basis


def test_random_isotropic_flags_differ_across_seeds():
    a = random_isotropic_flag(GroupKind.sp(2), 0)
    b = random_isotropic_flag(GroupKind.sp(2), 1)
    assert not flags_equal(a, b)


def test_random_flag_basis_invertible():
    flag = random_isotropic_flag(GroupKind.so_odd(3), 5)
    assert rank(flag.basis) == 7


# -- GroupKind bookkeeping ---------------------------------------------------------


def test_group_kind_params():
    assert GroupKind.sl(4).ambient_dim == 4
    assert GroupKind.sp(3).ambient_dim == 6
    assert GroupKind.so_odd(3).ambient_dim == 7
    assert GroupKind.so_even(3).ambient_dim == 6
    assert str(GroupKind.sp(2)) == "Sp(4)"
    with pytest.raises(ValueError):
        GroupKind.sl(1)
    with pytest.raises(ValueError):
        GroupKind.sp(0)
    with pytest.raises(ValueError):
        GroupKind("SU", 2)
