"""One rule for what an exact rational is, ``linalg._rational``, and one
for what a size is, ``linalg._require_ints``.

Every public entry point that reads a rational parameter, every ``Matrix``
and ``PolyQ`` entry, both parts of a ``QuadExt`` and the other operand of
its arithmetic, on either side, take an int or a Fraction and raise
TypeError for a float, a str or a bool.  Every size a
public entry point takes (of conditions, permutation conditions, groups,
flags, flag manifolds, ambient dimensions, matrices, monomials,
polynomial planes and ``QuadExt``'s d), ``square_split``'s n and the seed
of ``random_isotropic_flag`` is an int that is not a bool, or the size gate
raises its TypeError.  A polynomial plane's basis entries are
``PolyQ``s, or its constructor raises a TypeError naming the entry's type.
An int in -256..256 comes back as one shared Fraction, which the
elimination never changes and which copies and pickles as an equal one.
"""

import copy
import operator
import pickle
import random
from fractions import Fraction
from functools import partial

import pytest

from schubert.flags import (Flag, GroupKind, curve_point, exp_translate_flag,
                            osculating_flag, principal_nilpotent,
                            random_isotropic_flag)
from schubert.grassmann import (PermCondition, SchubertCondition, codim,
                                expected_dim_report, flag_manifold_dim, iota,
                                pad_to_zero_dimensional)
from schubert.jsonio import rational_to_str
from schubert.linalg import (_SMALL, Matrix, QuadExt, _rational, det,
                             exp_nilpotent, inverse, kernel, rank, rref,
                             solve_quadratic, square_split)
from schubert.poly import PolyQ
from schubert.wronski import (PolyPlane, check_eh_identity, plane_vanishing_orders,
                              ramification_condition, random_plane,
                              vanishing_order, wronski_solver_gr24)

SP4 = GroupKind.sp(2)
PLANE = PolyPlane(4, 2, (PolyQ([0, 0, 1]), PolyQ([-8, 0, 0, 1])))
COND = SchubertCondition(2, 4, (2, 4))

ENTRY_POINTS = {
    "curve_point": lambda x: curve_point(SP4, x),
    "osculating_flag": lambda x: osculating_flag(SP4, x),
    "exp_nilpotent": lambda x: exp_nilpotent(principal_nilpotent(SP4), x),
    "exp_translate_flag": lambda x: exp_translate_flag(SP4, x),
    "solve_quadratic": lambda x: solve_quadratic(1, x, -1),
    "pad_to_zero_dimensional condition point":
        lambda x: pad_to_zero_dimensional([(COND, x)], [5, 6, 7]),
    "pad_to_zero_dimensional fresh point":
        lambda x: pad_to_zero_dimensional([], [x, 5, 6, 7], k=2, m=4),
    "vanishing_order": lambda x: vanishing_order(PolyQ([-2, 1]), x),
    "plane_vanishing_orders": lambda x: plane_vanishing_orders(PLANE, x),
    "ramification_condition": lambda x: ramification_condition(PLANE, x),
    "check_eh_identity": lambda x: check_eh_identity(PLANE, x),
    "wronski_solver_gr24": lambda x: wronski_solver_gr24([x, 0, 1, 3]),
    "rational_to_str": rational_to_str,
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", [0.5, "1/2", True])
def test_entry_points_refuse_inexact_rationals(name, bad):
    with pytest.raises(TypeError):
        ENTRY_POINTS[name](bad)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_entry_points_read_int_and_fraction_alike(name):
    assert ENTRY_POINTS[name](2) == ENTRY_POINTS[name](Fraction(2))


# a float, str or bool on either side of QuadExt arithmetic
_X = QuadExt(1, 1, 2)
OPERAND_CASES = [(partial(op, *pair), f"{bad!r} {side} {symbol}")
                 for symbol, op in (("-", operator.sub), ("*", operator.mul),
                                    ("/", operator.truediv))
                 for bad in (0.5, "1/2", True)
                 for side, pair in (("right of", (_X, bad)),
                                    ("left of", (bad, _X)))]


@pytest.mark.parametrize("build", [
    lambda: Matrix([[True]]),
    lambda: Matrix([[1, 0.5]]),
    lambda: PolyQ([True]),
    lambda: PolyQ([1, "2"]),
    lambda: QuadExt(True),
    lambda: QuadExt(1, True, 2),
    lambda: QuadExt(0.5),
    lambda: QuadExt(1, 1, True),
    lambda: PolyQ([1, 2]) * True,
    lambda: PolyQ([1, 2])(0.5),
    lambda: QuadExt(1, 1, 2) + 0.5,
    *(build for build, _ in OPERAND_CASES),
], ids=["Matrix bool", "Matrix float", "PolyQ bool", "PolyQ str",
        "QuadExt bool a", "QuadExt bool b", "QuadExt float a", "QuadExt bool d",
        "PolyQ times bool", "PolyQ at float", "QuadExt plus float",
        *(name for _, name in OPERAND_CASES)])
def test_scalar_containers_refuse_inexact_entries(build):
    with pytest.raises(TypeError):
        build()


def test_exact_entries_pass_through_unchanged():
    x, q = QuadExt(1, 2, 3), Fraction(1, 3)
    M = Matrix([[x, q, 4]])
    assert M[0, 0] is x and M[0, 1] is q and M[0, 2] == Fraction(4)
    assert type(M[0, 2]) is Fraction


@pytest.mark.parametrize("n", [-257, -256, 0, 256, 257])
def test_rational_of_an_int_is_an_equal_fraction(n):
    x = _rational(n)
    assert type(x) is Fraction and x == n
    with pytest.raises(TypeError):
        _rational(n == 0)


def test_small_ints_share_one_fraction():
    assert _rational(200) is _rational(int("200"))
    assert _rational(-256) is _rational(-256) is Matrix([[-256]])[0, 0]
    M = Matrix([[3, 3], [0, 3]])
    assert M[0, 0] is M[0, 1] is M[1, 1] is _rational(3)


def test_shared_fractions_survive_elimination():
    M = Matrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    N = Matrix([[1, 2, 3], [2, 4, 6], [256, -256, 0]])
    for matrix in (M, N):
        rank(matrix), rref(matrix), kernel(matrix), det(matrix)
    inverse(M)
    assert len(_SMALL) == 513
    assert all(type(x) is Fraction and x == n
               for n, x in zip(range(-256, 257), _SMALL))


@pytest.mark.parametrize("copier", [
    copy.copy, copy.deepcopy,
    *(partial(lambda p, x: pickle.loads(pickle.dumps(x, protocol=p)), p)
      for p in range(pickle.HIGHEST_PROTOCOL + 1))],
    ids=["copy", "deepcopy", *(f"pickle protocol {p}"
                               for p in range(pickle.HIGHEST_PROTOCOL + 1))])
def test_shared_fraction_round_trips(copier):
    for n in (-256, -1, 0, 1, 7, 256):
        x = copier(_rational(n))
        assert type(x) is Fraction and x == n
        assert copier(PolyQ([n, 1])) == PolyQ([n, 1])


# entry point -> a call with the size n in one place; each is run with
# n = 2.0 and n = True
SIZED_ENTRY_POINTS = {
    "Matrix.identity": Matrix.identity,
    "PolyQ.monomial": PolyQ.monomial,
    "iota k": lambda n: iota(n, 4),
    "iota m": lambda n: iota(1, n),
    "PolyPlane m": lambda n: PolyPlane(n, 1, (PolyQ([1]),)),
    "PolyPlane k": lambda n: PolyPlane(4, n, PLANE.basis),
    "random_plane k": lambda n: random_plane(n, 4, random.Random(1)),
    "random_plane m": lambda n: random_plane(1, n, random.Random(1)),
}
SIZED_CASES = [(partial(build, bad), f"{name} {bad!r}")
               for name, build in SIZED_ENTRY_POINTS.items()
               for bad in (2.0, True)]


@pytest.mark.parametrize("build", [
    lambda: codim(SchubertCondition(2, 4.5, (1, 3))),
    lambda: SchubertCondition(2, 4, (1.0, 3)),
    lambda: SchubertCondition(True, 4, (3,)),
    lambda: GroupKind("Sp", 2.0).ambient_dim,
    lambda: GroupKind("SL", True),
    lambda: Flag(4.0, Matrix.identity(4)),
    lambda: flag_manifold_dim([2], 4.0),
    lambda: flag_manifold_dim([True], 3),
    lambda: flag_manifold_dim([2.0], 4),
    lambda: expected_dim_report([], 8.5),
    lambda: expected_dim_report([], True),
    lambda: PermCondition(4, (1, 2, 3, 4), (2.0,)),
    lambda: PermCondition(4.0, (1, 2, 3, 4), ()),
    lambda: PermCondition(2, (1.0, 2), ()),
    lambda: PermCondition(2, (True, 2), ()),
    lambda: QuadExt(1, 1, 2.0),
    *(build for build, _ in SIZED_CASES),
], ids=["condition m", "condition index", "condition k", "group param float",
        "group param bool", "flag ambient_dim", "flag manifold m float",
        "flag manifold dim bool", "flag manifold dim float",
        "expected dim float", "expected dim bool", "perm descent float",
        "perm m float", "perm entry float", "perm entry bool",
        "QuadExt d float", *(name for _, name in SIZED_CASES)])
def test_sizes_must_be_ints(build):
    with pytest.raises(TypeError, match="expected ints"):
        build()


def test_square_split_and_the_flag_seed_must_be_ints():
    # a cached 1 or 0 must not answer for True, False or 0.0
    assert square_split(1) == (1, 1) and square_split(0) == (1, 0)
    for bad in (True, False, 0.0, 2.0):
        with pytest.raises(TypeError, match="expected ints"):
            square_split(bad)
    assert random_isotropic_flag(SP4, 1) == random_isotropic_flag(SP4, 1)
    for bad in (True, 2.5, "abc"):
        with pytest.raises(TypeError, match="expected ints"):
            random_isotropic_flag(SP4, bad)


def test_int_sizes_still_answer():
    assert flag_manifold_dim([2], 4) == 4
    assert flag_manifold_dim([1, 2], 3) == 3
    assert expected_dim_report([SchubertCondition(2, 4, (2, 4))], 4).expected == 3
    assert PermCondition(4, (1, 3, 2, 4), (2,)).perm == (1, 3, 2, 4)


@pytest.mark.parametrize("entry", [[1, 2], (1, 2), Fraction(1, 2), 3, "t", None],
                         ids=["list", "tuple", "Fraction", "int", "str", "None"])
def test_plane_basis_entries_must_be_polynomials(entry):
    # a coefficient list is not a polynomial: the type is named, where it
    # once failed on a missing .degree()
    want = f"basis entry is a {type(entry).__name__}, not a PolyQ"
    with pytest.raises(TypeError, match=want):
        PolyPlane(4, 1, (entry,))
    with pytest.raises(TypeError, match=want):
        PolyPlane(4, 2, (PolyQ([1]), entry))
