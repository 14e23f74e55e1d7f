"""Drawn planes as integer rows first, with the basis built on first read.

`random_plane` draws each coefficient's numerator and denominator and
builds the plane's integer rows and scale from them directly, through the
private `_plane_of`; the plane builds its `PolyQ` basis only when something
reads it.  These tests compare it with the loop it replaced, which handed
`PolyQ`s of `Fraction`s to the public constructor, draw for draw, retries
included; check that a lazy plane equals, hashes, prints, pickles and copies
like the eager plane of the same basis; pin the eh-check's codimension,
read from the vanishing orders as sum(a_i) - k(k-1)/2, against
`ramification_condition`; and check that a rational eh-check builds no
`PolyQ` at all.
"""

import copy
import dataclasses
import json
import pickle
import random
from fractions import Fraction

import pytest

from schubert.cli import main
from schubert.grassmann import codim
from schubert.poly import PolyQ
from schubert.wronski import (PolyPlane, _eh_report, _plane_of,
                              _scaled_wronskian, plane_vanishing_orders,
                              ramification_condition, random_plane)

F = Fraction


def _reference_plane(k, m, rng):
    # the draw loop random_plane replaced: PolyQs of Fractions handed to the
    # public constructor, a linearly dependent draw drawn again
    while True:
        polys = tuple(PolyQ([F(rng.randint(-9, 9), rng.randint(1, 9))
                             for _ in range(m)])
                      for _ in range(k))
        try:
            return PolyPlane(m, k, polys)
        except ValueError:
            continue


def _assert_same_plane(got, want):
    assert (got.m, got.k) == (want.m, want.k)
    assert (got._rows, got._scale) == (want._rows, want._scale)
    assert all(type(x) is int for row in got._rows for x in row)
    assert repr(got) == repr(want)
    assert [p.coeffs for p in got.basis] == [p.coeffs for p in want.basis]
    assert all(type(c) is F for p in got.basis for c in p.coeffs)


@pytest.mark.parametrize("seed", [0, 1, 8, 2024])
def test_random_plane_draws_the_reference_planes(seed):
    for m in range(1, 9):
        for k in range(1, m + 1):
            rng, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                _assert_same_plane(random_plane(k, m, rng),
                                   _reference_plane(k, m, ref))
            assert rng.random() == ref.random(), (k, m)


class _ScriptedRng:
    """Answers randint with the scripted values in order; drawing past the
    end of the script raises."""

    def __init__(self, script):
        self.script = list(script)
        self.draws = 0

    def randint(self, a, b):
        x = self.script[self.draws]
        assert a <= x <= b
        self.draws += 1
        return x


# (k, m, script): numerator then denominator per coefficient; the first
# draw of each script is linearly dependent, the second is not
SCRIPTS = [
    # rows 1 + 2t and 2 + 4t, then -2/3 and 1/3 + 3/2 t
    (2, 2, [1, 1, 2, 1, 2, 1, 4, 1,
            -4, 6, 0, 5, 3, 9, 6, 4]),
    # the zero polynomial, then 1/2
    (1, 1, [0, 3, 2, 4]),
    # a zero row beside a nonzero one, then three reduced fractions
    (2, 3, [0, 1, 0, 9, 0, 2, 5, 7, -9, 9, 1, 1,
            9, 3, -8, 6, 0, 1, 7, 7, 0, 1, 2, 8]),
]


@pytest.mark.parametrize("k, m, script", SCRIPTS)
def test_random_plane_retries_a_dependent_draw_like_the_reference(k, m, script):
    rng, ref = _ScriptedRng(script), _ScriptedRng(script)
    got, want = random_plane(k, m, rng), _reference_plane(k, m, ref)
    _assert_same_plane(got, want)
    assert rng.draws == ref.draws == len(script) == 4 * k * m


def test_scripted_draw_scales_rows_by_the_lcm_of_reduced_denominators():
    # -4/6 = -2/3, 0/5 = 0, 3/9 = 1/3, 6/4 = 3/2: D = lcm(3, 1, 3, 2) = 6
    plane = random_plane(2, 2, _ScriptedRng(SCRIPTS[0][2]))
    assert (plane._rows, plane._scale) == ([[-4, 0], [2, 9]], 6)
    assert [p.coeffs for p in plane.basis] == [(F(-2, 3),), (F(1, 3), F(3, 2))]


CASES = [(1, 1, [[3]], 5), (2, 5, [[1, 0, -2, 0, 7], [0, 4, 0, 0, 0]], 3),
         (3, 6, [[0, 0, 0, 0, 0, 1], [2, 0, 0, 1, 0, 0], [-1, 1, 0, 0, 0, 0]], 1),
         (4, 8, [[5, 1, 0, 0, 0, 0, 0, 0], [0, 0, 3, 0, -9, 0, 0, 0],
                 [0, 0, 0, 0, 0, 6, 0, 0], [1, 1, 1, 1, 1, 1, 1, 1]], 12)]


def _planes(k, m, rows, scale):
    """A fresh lazy plane per call, and the eager plane of the same basis."""
    def lazy():
        plane = _plane_of(m, k, [list(row) for row in rows], scale)
        assert "basis" not in vars(plane)
        return plane
    eager = PolyPlane(m, k, tuple(PolyQ([F(x, scale) for x in row])
                                  for row in rows))
    return lazy, eager


@pytest.mark.parametrize("k, m, rows, scale", CASES)
def test_lazy_plane_behaves_like_the_eager_one(k, m, rows, scale):
    lazy, eager = _planes(k, m, rows, scale)
    assert lazy() == eager and eager == lazy() and hash(lazy()) == hash(eager)
    assert repr(lazy()) == repr(eager)
    assert lazy()._rows == eager._rows == rows
    assert lazy()._scale == eager._scale == scale
    for plane in (lazy(), dataclasses.replace(lazy()), copy.deepcopy(lazy()),
                  copy.copy(lazy())):
        assert plane == eager and plane.basis == eager.basis
        assert (plane._rows, plane._scale) == (rows, scale)
    read = lazy()
    read.basis
    for proto in range(pickle.HIGHEST_PROTOCOL + 1):
        # an unread lazy plane holds only ints; a plane holding its basis
        # pickles its PolyQs through PolyQ.__reduce__
        for plane in (lazy(), read, eager):
            back = pickle.loads(pickle.dumps(plane, proto))
            assert back == eager and hash(back) == hash(eager), proto
            assert repr(back) == repr(eager), proto
            assert (back._rows, back._scale) == (rows, scale), proto
            assert back.basis == eager.basis, proto


def test_lazy_basis_is_built_once_and_only_basis_is_lazy():
    lazy, eager = _planes(*CASES[1])
    plane = lazy()
    assert plane.basis is plane.basis
    assert vars(plane)["basis"] is plane.basis
    assert [type(c) for p in plane.basis for c in p.coeffs] == [
        type(c) for p in eager.basis for c in p.coeffs]
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        lazy().nope
    assert not hasattr(lazy(), "__setstate__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        lazy().basis = eager.basis


def test_bare_plane_raises_attribute_error_not_recursion():
    bare = object.__new__(PolyPlane)
    with pytest.raises(AttributeError):
        bare.basis
    with pytest.raises(AttributeError):
        bare._rows


CODIM_POINTS = (F(0), F(1), F(-2), F(1, 3))


def _ramified_planes():
    """(plane, t0): basis element i divisible by (t - t0)^(j_i) for k
    distinct j_i, times a drawn cofactor; a dependent draw is drawn again."""
    rng = random.Random(34)
    out = []
    for t0 in CODIM_POINTS:
        root = PolyQ([-t0, 1])
        for k, m in [(1, 3), (2, 4), (2, 5), (3, 6), (4, 8), (5, 8)]:
            while True:
                basis = []
                for j in rng.sample(range(m), k):
                    p = PolyQ.one()
                    for _ in range(j):
                        p = p * root
                    basis.append(p * PolyQ([F(rng.randint(-9, 9),
                                              rng.randint(1, 9))
                                            for _ in range(m - j)]))
                try:
                    out.append((PolyPlane(m, k, tuple(basis)), t0))
                    break
                except ValueError:
                    continue
    return out


def _codim_cases():
    rng = random.Random(55)
    seeded = [(random_plane(k, m, rng), t0)
              for m in range(1, 9) for k in range(1, m + 1)
              for t0 in CODIM_POINTS]
    return seeded + _ramified_planes()


def test_codim_from_orders_equals_ramification_codim():
    ramified = 0
    for plane, t0 in _codim_cases():
        k = plane.k
        want = codim(ramification_condition(plane, t0))
        assert sum(plane_vanishing_orders(plane, t0)) - k * (k - 1) // 2 == want
        rep = _eh_report(plane, _scaled_wronskian(plane), t0)
        assert rep.codim == want and rep.equal, (plane, t0)
        ramified += want > 0
    assert ramified >= 20


def test_rational_eh_check_builds_no_polynomial(monkeypatch, capsys):
    built = []
    init = PolyQ.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PolyQ, "__init__", counting_init)
    code = main(["eh-check", "--k", "3", "--m", "6", "--samples", "20",
                 "--points=0,1,-2,1/3", "--seed", "5"])
    data = json.loads(capsys.readouterr().out)
    assert code == 0 and data["all_equal"] is True and data["checked"] == 80
    assert built == []
    PolyQ([1])  # the counter sees a PolyQ built anywhere
    assert len(built) == 1
