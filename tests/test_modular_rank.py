"""A full rank over Q(sqrt(d)) proved modulo a prime, and exact elimination
in every other case.

``linalg._rank_rows`` maps rows over Q(sqrt(d)) to F_p by sqrt(d) -> s, for
the first listed prime p that divides no denominator and has s*s == d mod p,
and returns the full rank when the image has it; rank cannot rise under
that ring map, so nothing else is needed for a proof.  Random matrices over
Q(sqrt(d)) up to 6 x 6, rank-deficient products of lower-rank factors
included, read the rank of the exact field echelon; a denominator divisible
by the first prime or a d that is not a square there moves to the next
prime, and two different d, or no fitting prime, go to the exact path; no
rational matrix reaches the modular code.  On the 88 solutions of Sp(4)
seeds 0-39 and four osculating point sets every certificate equals the one
the exact path gives; a flag repeated in place of another reads 3 < 4
through the exact path, and another instance's flags still raise
NotInCellInterior with its message.
"""

import random
import time
from fractions import Fraction

import pytest
from test_tangent_oracle import _osculating_flags

from schubert import grassmann, linalg, wronski
from schubert.cli import _sp4_flags
from schubert.errors import NotInCellInterior
from schubert.grassmann import iota, small_solver_gr24, transversality_certificate
from schubert.linalg import (_MODULAR_PRIMES, Matrix, QuadExt, _echelon,
                             _integer_rows, _rank_rows, rank)
from schubert.poly import PolyQ

F = Fraction
P1, P2 = _MODULAR_PRIMES[:2]
OSCULATING_POINTS = ((0, 1, 2, 3), (-2, 1, 3, 7), (F(1, 2), 2, 5, -3),
                     (-1, 4, 6, 9))


def _exact_rank(a, nc):
    return len(_echelon(a, nc)[0])


def _both_ranks(rows, nc):
    """(_rank_rows, exact echelon rank) of the rows as _integer_rows leaves
    them, each on its own copy."""
    a, _ = _integer_rows(rows)
    return (_rank_rows([list(r) for r in a], nc),
            _exact_rank([list(r) for r in a], nc))


@pytest.fixture
def modular_calls(monkeypatch):
    """The (rows, result) of every call of linalg._modular_rank."""
    calls = []
    real = linalg._modular_rank

    def spy(a, nc):
        calls.append((a, result := real(a, nc)))
        return result

    monkeypatch.setattr(linalg, "_modular_rank", spy)
    return calls


def test_modular_primes_are_the_largest_below_2_31_that_are_3_mod_4():
    sympy = pytest.importorskip("sympy")
    expected, n = [], 2 ** 31 - 1
    while len(expected) < len(_MODULAR_PRIMES):
        if n % 4 == 3 and sympy.isprime(n):
            expected.append(n)
        n -= 1
    assert _MODULAR_PRIMES == tuple(expected)


# -- random matrices against the exact field echelon --------------------------


def test_rank_rows_equals_exact_rank_on_random_matrices(modular_calls):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    rationals = st.sampled_from([F(0), F(0), F(1), F(-1), F(2), F(-3),
                                 F(1, 2), F(-2, 3), F(5, 7)])

    @st.composite
    def matrices(draw):
        """(rows, nc): up to 6 x 6 over Q(sqrt(d)), dense or the product of
        an nr x r and an r x nc factor with r below both sides."""
        d = draw(st.sampled_from((2, 3, 5, 13, -1, -3, -7)))

        def block(nr, nc):
            return [[QuadExt(draw(rationals), draw(rationals), d)
                     for _ in range(nc)] for _ in range(nr)]

        nr, nc = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        if min(nr, nc) > 1 and draw(st.booleans()):
            r = draw(st.integers(1, min(nr, nc) - 1))
            return (Matrix(block(nr, r)) * Matrix(block(r, nc))).to_rows(), nc
        return block(nr, nc), nc

    @hypothesis.settings(max_examples=150, derandomize=True, deadline=None,
                         database=None)
    @hypothesis.given(matrices())
    def check(case):
        rows, nc = case
        got, want = _both_ranks(rows, nc)
        assert got == want
        assert rank(Matrix(rows)) == want

    check()
    # both paths ran: full ranks proved mod p, and low ones decided exactly
    proved = sum(min(len(a), len(a[0])) == r for a, r in modular_calls)
    assert proved >= 100 and len(modular_calls) - proved >= 50


def test_a_denominator_or_a_non_square_moves_to_the_next_prime(
        modular_calls, monkeypatch):
    found = []
    real = linalg._sqrt_mod_prime
    monkeypatch.setattr(linalg, "_sqrt_mod_prime",
                        lambda d, dens: found.append(real(d, dens)) or found[-1])
    # -3 is a square mod the first two primes, 3 only from the third on
    r3 = QuadExt(0, 1, -3)
    assert _both_ranks([[F(1, P1), r3], [r3, F(2)]], 2) == (2, 2)
    assert _both_ranks([[r3 + 1, F(1)], [F(0), r3]], 2) == (2, 2)
    assert _both_ranks([[QuadExt(1, 1, 3), F(1)], [F(1), F(2)]], 2) == (2, 2)
    # -1 is a square modulo no prime that is 3 mod 4: always exact
    assert _both_ranks([[QuadExt(0, 1, -1), F(1)], [F(1), F(2)]], 2) == (2, 2)
    assert [f and f[0] for f in found] == [P2, P1, _MODULAR_PRIMES[2], None]
    for (p, s), d in zip(found, (-3, -3, 3)):
        assert s * s % p == d % p
    assert [result for _, result in modular_calls] == [2, 2, 2, -1]


def test_two_different_d_take_the_exact_path(modular_calls, monkeypatch):
    asked = []
    monkeypatch.setattr(linalg, "_sqrt_mod_prime",
                        lambda *args: asked.append(args))
    # one field, two stored d: square_split leaves 100003**2 inside the second
    d1, d2 = 100019, 100003 ** 2 * 100019
    x, y = QuadExt(1, 1, d1), QuadExt(0, 1, d2)
    assert (x.d, y.d) == (d1, d2)
    assert _both_ranks([[x, F(1)], [F(3), y]], 2) == (2, 2)
    assert [result for _, result in modular_calls] == [-1]
    assert asked == []


def test_no_fitting_prime_takes_the_exact_path(modular_calls, monkeypatch):
    monkeypatch.setattr(linalg, "_MODULAR_PRIMES", (_MODULAR_PRIMES[0],))
    exact = []
    real = linalg._echelon
    monkeypatch.setattr(linalg, "_echelon",
                        lambda a, nc: exact.append(nc) or real(a, nc))
    assert rank(Matrix([[QuadExt(0, 1, 3), F(1)], [F(1), F(1)]])) == 2
    assert [result for _, result in modular_calls] == [-1]
    assert exact == [2]


def test_a_low_rank_mod_p_takes_the_exact_path(modular_calls):
    x = QuadExt(1, 1, 5)
    rows = [[x, F(1), F(2)], [x * x, x, 2 * x]]
    assert _both_ranks(rows, 3) == (1, 1)
    assert [result for _, result in modular_calls] == [1]


def test_rational_input_never_reaches_the_modular_code(modular_calls):
    rng = random.Random(5)
    for _ in range(30):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        rank(Matrix([[F(rng.randint(-5, 5), rng.randint(1, 4))
                      for _ in range(nc)] for _ in range(nr)]))
    wronski.PolyPlane(4, 2, (PolyQ([1, F(1, 2)]), PolyQ([0, 0, 3])))
    # osculating flags at 1/2, 2, 5, -3 have two rational solutions
    flags = _osculating_flags([F(t) for t in OSCULATING_POINTS[2]])
    for V in small_solver_gr24(flags):
        assert not _irrational(V)
        assert transversality_certificate(
            V, [(iota(2, 4), f) for f in flags]).transverse
    assert modular_calls == []
    # an irrational plane does reach it, and proves its two rows independent
    wronski.PolyPlane(4, 2, (PolyQ([1, QuadExt(0, 1, 2)]), PolyQ([0, 0, 3])))
    assert [result for _, result in modular_calls] == [2]


# -- the 88 four-lines solutions -----------------------------------------------


def _instances():
    yield from (_sp4_flags(seed) for seed in range(40))
    yield from (_osculating_flags([F(t) for t in points])
                for points in OSCULATING_POINTS)


def _irrational(V):
    return any(type(x) is QuadExt for row in V.basis.to_rows() for x in row)


def test_certificates_equal_the_exact_path_on_88_solutions(modular_calls,
                                                           monkeypatch):
    start = time.perf_counter()
    cond = iota(2, 4)
    cases = [(V, [(cond, f) for f in flags]) for flags in _instances()
             for V in small_solver_gr24(flags)]
    assert len(cases) == 88
    fast = [transversality_certificate(V, pairs) for V, pairs in cases]
    proved = sum(result == 4 for _, result in modular_calls)
    assert proved == sum(map(_irrational, (V for V, _ in cases))) >= 80
    monkeypatch.setattr(grassmann, "_rank_rows", _exact_rank)
    exact = [transversality_certificate(V, pairs) for V, pairs in cases]
    assert fast == exact
    assert all(c.transverse and c.tangent_codim == c.codim_sum == 4
               for c in fast)
    assert time.perf_counter() - start < 10.0


def test_a_repeated_flag_reads_not_transverse_through_the_exact_path(
        modular_calls):
    flags = _sp4_flags(17)
    V, _ = small_solver_gr24(flags)
    assert _irrational(V)
    cond = iota(2, 4)
    repeated = [flags[0], flags[0], flags[2], flags[3]]
    cert = transversality_certificate(V, [(cond, f) for f in repeated])
    assert not cert.transverse
    assert (cert.tangent_codim, cert.codim_sum) == (3, 4)
    # the image mod p read the rank low, so the exact elimination decided
    assert [result for _, result in modular_calls] == [3]


def test_another_instances_flags_raise_not_in_cell_interior():
    cond = iota(2, 4)
    for seed, other in ((17, 18), (0, 1)):
        V, _ = small_solver_gr24(_sp4_flags(seed))
        with pytest.raises(NotInCellInterior) as info:
            transversality_certificate(
                V, [(cond, f) for f in _sp4_flags(other)])
        assert str(info.value) == (
            "condition 0: point is not even in the Schubert variety")
