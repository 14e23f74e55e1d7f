"""Univariate rational polynomials: arithmetic, synthetic division, Horner."""

import copy
import pickle
import random
from fractions import Fraction

import pytest

from schubert.linalg import QuadExt
from schubert.poly import PolyQ

F = Fraction


def test_trailing_zeros_stripped():
    p = PolyQ([1, 2, 0, 0])
    assert p.degree() == 1
    assert PolyQ([0, 0]).is_zero
    assert PolyQ().degree() == -1


def test_monomial_and_one():
    assert PolyQ.monomial(3) == PolyQ([0, 0, 0, 1])
    assert PolyQ.monomial(2, F(5, 7)) == PolyQ([0, 0, F(5, 7)])
    assert PolyQ.one()(F(123)) == 1


def test_arithmetic():
    p = PolyQ([1, 2])      # 1 + 2t
    q = PolyQ([0, 0, 3])   # 3t^2
    assert p + q == PolyQ([1, 2, 3])
    assert p * q == PolyQ([0, 0, 3, 6])
    assert p * F(1, 2) == PolyQ([F(1, 2), 1])


def test_sum_and_equality_need_a_polynomial():
    # a scalar is no PolyQ summand, and no PolyQ equals one
    with pytest.raises(TypeError):
        PolyQ([1]) + 1
    assert PolyQ([1]) != 1 and not (PolyQ([1]) == 1)


def test_derivative():
    p = PolyQ([0, 2, 0, 1])  # 2t + t^3
    assert p.derivative() == PolyQ([2, 0, 3])
    assert PolyQ([7]).derivative().is_zero


def test_evaluation_horner():
    p = PolyQ([1, -3, 2])  # (1 - t)(1 - 2t)
    assert p(F(1)) == 0
    assert p(F(1, 2)) == 0
    assert p(F(0)) == 1


def test_divide_linear():
    # (t - 1)^3 (t + 2) expanded: t^4 - t^3 - 3t^2 + 5t - 2
    p = PolyQ([-2, 5, -3, -1, 1])
    q, r = p.divide_linear(F(1))
    assert r == 0
    assert q(F(1)) == 0  # still divisible twice more
    q2, r2 = q.divide_linear(F(1))
    assert r2 == 0
    q3, r3 = q2.divide_linear(F(1))
    assert r3 == 0 and q3 == PolyQ([2, 1])
    _, r4 = q3.divide_linear(F(1))
    assert r4 == 3  # (t + 2) at t = 1


def test_divide_linear_reconstructs():
    rng = random.Random(3)
    for _ in range(20):
        p = PolyQ([F(rng.randint(-4, 4), rng.randint(1, 3))
                   for _ in range(rng.randint(1, 6))])
        t0 = F(rng.randint(-3, 3), rng.randint(1, 3))
        q, r = p.divide_linear(t0)
        assert q * PolyQ([-t0, 1]) + PolyQ([r]) == p



@pytest.mark.parametrize("coeffs", [(), (F(1, 3),),
                                    (QuadExt(1, 2, 3), 0, F(-5, 7))],
                         ids=["zero", "constant", "quadext"])
def test_polyq_survives_copy_and_pickle(coeffs):
    p = PolyQ(coeffs)
    copies = [copy.copy(p), copy.deepcopy(p)]
    copies += [pickle.loads(pickle.dumps(p, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for q in copies:
        assert type(q) is PolyQ and q == p and q.coeffs == p.coeffs
        assert [type(c) for c in q.coeffs] == [type(c) for c in p.coeffs]


def test_quadext_coefficients():
    s2 = QuadExt(F(0), F(1), 2)
    p = PolyQ([s2, 1])  # sqrt(2) + t
    q = PolyQ([-s2, 1])
    assert p * q == PolyQ([-2, 0, 1])
    assert p(-s2) == 0


def test_degree_bounds_product():
    rng = random.Random(8)
    for _ in range(15):
        p = PolyQ([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))])
        q = PolyQ([F(rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))])
        if p.is_zero or q.is_zero:
            assert (p * q).is_zero
        else:
            assert (p * q).degree() == p.degree() + q.degree()


def test_truth_and_printing():
    # trailing zeros are dropped, so a list of zeros is the zero polynomial
    assert not PolyQ() and not PolyQ([0, 0]) and PolyQ([0, 1])
    assert str(PolyQ([0, 0])) == "0"
    assert str(PolyQ([0, 3])) == "3*t"
    assert str(PolyQ([1, 0, F(-2, 3)])) == "1 + -2/3*t^2"
    assert str(PolyQ([QuadExt(0, 1, 5), 0, 0, 1])) == "1*sqrt(5) + 1*t^3"
