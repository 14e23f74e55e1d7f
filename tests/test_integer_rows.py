"""The integer-scaling decision of linalg._integer_rows, for the whole input.

A matrix is scaled to integer rows only when every entry is rational, also
when some entries were built as QuadExt(a, b, d) with b*sqrt(d) rational,
which are Fractions; one Q(sqrt(d)) entry anywhere leaves every row as it
is.  Deciding row by row instead would hand
_echelon int rows next to irrational ones, and its field branch would divide
int pivots with float division.  rank and det are checked against sympy,
flags_equal and is_isotropic_flag against their definitions.
"""

from fractions import Fraction

import pytest

pytest.importorskip("sympy")
pytest.importorskip("hypothesis")

from test_flags_oracle import ref_flags_equal, ref_is_isotropic  # noqa: E402
from test_linalg_properties import _dm, _to_sympy  # noqa: E402

from schubert.flags import (Flag, GroupKind, flags_equal,  # noqa: E402
                            gram_matrix, is_isotropic_flag,
                            random_isotropic_flag)
from schubert.linalg import Matrix, QuadExt, _integer_rows, det, rank  # noqa: E402

F = Fraction
RATIONAL_ROWS = [[F(3), F(1, 2), F(-2), F(5, 3)],
                 [F(1), F(4), F(2, 7), F(-1)],
                 [F(-5, 2), F(1), F(3), F(2)]]


def test_one_irrational_row_keeps_every_row():
    s2 = QuadExt(F(1, 3), F(2), 2)
    rows = RATIONAL_ROWS + [[F(2), s2, F(0), F(-1, 4)]]
    M = Matrix(rows)
    out, D = _integer_rows(M.to_rows())
    assert out == rows and D == 1
    ref = _dm(M, 2)
    assert rank(M) == ref.rank() == 4
    assert _to_sympy(det(M), 2) == ref.det()
    # the same rows with the irrational one first
    M = Matrix(rows[::-1])
    assert rank(M) == 4 and _to_sympy(det(M), 2) == _dm(M, 2).det()


def test_rational_values_built_by_quadext_are_scaled():
    rows = [[QuadExt(x) for x in row] for row in RATIONAL_ROWS]
    rows.append([QuadExt(F(1, 5), F(0), 2), F(1), F(0), QuadExt(F(2))])
    # QuadExt(...) of a rational value is a Fraction
    assert all(type(x) is F for row in rows for x in row)
    M = Matrix(rows)
    out, D = _integer_rows(M.to_rows())
    assert D == 210
    assert all(type(x) is int for row in out for x in row)
    assert [[F(x, D) for x in row] for row in out] == rows
    ref = _dm(M, None)
    assert rank(M) == ref.rank() == 4
    assert _to_sympy(det(M), None) == ref.det()


def test_flags_over_rational_and_sqrt5_columns():
    s5 = QuadExt(F(0), F(1), 5)
    # columns 1-3 are rational, column 4 is irrational in its last row only,
    # so rows 1-3 of [F | G] are rational and row 4 is not
    A = Matrix([[F(3), F(1), F(-2), F(1, 2)],
                [F(1), F(2), F(5), F(3)],
                [F(-2), F(7), F(1), F(0)],
                [F(4), F(-1), F(3), s5 + 1]])
    U = Matrix([[F(1), F(2), F(-1, 3), F(1)],
                [F(0), F(3), F(1), F(-2)],
                [F(0), F(0), F(2), F(5, 2)],
                [F(0), F(0), F(0), F(1)]])
    f = Flag(4, A)
    same = Flag(4, A * U)
    rows = (A * U).to_rows()
    rows[1][0] += F(1)
    other = Flag(4, Matrix(rows))
    assert flags_equal(f, same) and ref_flags_equal(f, same)
    assert not flags_equal(f, other) and not ref_flags_equal(f, other)

    kind = GroupKind.sp(2)
    form = gram_matrix(kind)
    g = random_isotropic_flag(kind, 3).basis
    V = Matrix([[F(1), F(2), F(0), s5],
                [F(0), F(1), F(-3), F(1)],
                [F(0), F(0), F(1), F(2) - s5],
                [F(0), F(0), F(0), F(1, 2)]])
    B = g * V  # the same isotropic flag as g, over Q(sqrt(5)) in column 4
    iso = Flag(4, B)
    assert is_isotropic_flag(iso, form) and ref_is_isotropic(iso, form)
    rows = B.to_rows()
    rows[0][1] += F(1)
    bent = Flag(4, Matrix(rows))
    assert not ref_is_isotropic(bent, form)
    assert not is_isotropic_flag(bent, form)
