"""Univariate polynomials with exact coefficients (Fraction or QuadExt)."""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .linalg import Scalar, _coerce, _rational, _require_ints

__all__ = ["PolyQ"]


def _poly_mul(p: Sequence, q: Sequence) -> list:
    """Product of coefficient lists (lowest degree first) over any ring."""
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _taylor_coefficients(cs: Sequence, t0: Fraction) -> Iterator:
    """Yield h_0, ..., h_d, the coefficients of v^d * p((y + u)/v) in y, for
    p = sum cs[i] t^i of degree d = len(cs) - 1 and t0 = u/v; so
    h_j = v^(d-j) * p^(j)(t0) / j!.

    Each h_j is the remainder of one synthetic division by the monic x - u,
    starting from v^d * p(x/v), so a caller that stops early pays only for
    what it reads.  The ring operations keep Z (or Q(sqrt(d))).  At t0 = 0
    (u = 0, v = 1) h_j is cs[j], yielded as it is.
    """
    u, v = t0.numerator, t0.denominator
    if not u:
        yield from cs
        return
    g = [c * v ** i for i, c in enumerate(reversed(cs))]  # highest degree first
    while g:
        carry, q = 0, []
        for c in g:
            carry = carry * u + c
            q.append(carry)
        yield q.pop()
        g = q


class PolyQ:
    """A polynomial in one variable, coefficients stored lowest degree first.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [_coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    def __reduce__(self) -> tuple:
        return PolyQ, (self.coeffs,)

    @classmethod
    def one(cls) -> "PolyQ":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff=1) -> "PolyQ":
        _require_ints("the power", power)
        return cls((0,) * power + (coeff,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return len(self.coeffs) - 1

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, PolyQ):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return PolyQ(out)

    def __mul__(self, other):
        if isinstance(other, PolyQ):
            return PolyQ(_poly_mul(self.coeffs, other.coeffs))
        other = _coerce(other)
        return PolyQ([c * other for c in self.coeffs])

    def derivative(self) -> "PolyQ":
        return PolyQ([j * c for j, c in enumerate(self.coeffs)][1:])

    def __call__(self, t):
        t = _coerce(t)
        acc: Scalar = _rational(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    # Uncalled in src/: perfbench's span table wraps it.
    def divide_linear(self, t0) -> tuple["PolyQ", Scalar]:
        """Synthetic division by ``(t - t0)``; returns (quotient, remainder)."""
        if self.is_zero:
            return PolyQ(), _rational(0)
        q: list = [_rational(0)] * max(len(self.coeffs) - 1, 0)
        carry: Scalar = _rational(0)
        for i in range(len(self.coeffs) - 1, 0, -1):
            carry = self.coeffs[i] + t0 * carry
            q[i - 1] = carry
        rem = self.coeffs[0] + t0 * carry
        return PolyQ(q), rem

    # -- comparison ----------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, PolyQ):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"PolyQ({list(self.coeffs)!r})"

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if not c:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{j}")
        return " + ".join(parts)
