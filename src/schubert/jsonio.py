"""JSON forms for the exact types: every number is a string or an int.

Rationals serialize as "p/q" ("p" when q == 1); quadratic irrationals as
{"a": "p/q", "b": "p/q", "d": int}; matrices as row-major nested arrays.
"""

from __future__ import annotations

import re
from decimal import Decimal
from fractions import Fraction

from .flags import Flag, GroupKind
from .grassmann import TransversalityCertificate
from .linalg import Matrix, QuadExt, _rational

__all__ = [
    "rational_to_str",
    "parse_rational",
    "scalar_to_json",
    "scalar_from_json",
    "matrix_to_json",
    "matrix_from_json",
    "kind_to_json",
    "flag_to_json",
    "certificate_to_json",
]


# Largest |e| that parse_rational accepts in a decimal exponent, as in
# "2.5e-3".  Fraction builds 10**|e| exactly, which takes tens of seconds
# for an exponent in the tens of millions; 4300 is Python's default limit
# on the digits of an int it prints.
MAX_DECIMAL_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\Z")


def rational_to_str(x) -> str:
    # Decimal prints an int of any size; str(int) stops at the interpreter's
    # int-printing limit, which parse_rational keeps relying on
    x = _rational(x)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


def parse_rational(s: str) -> Fraction:
    text = str(s).strip()
    try:
        exponent = _EXPONENT.search(text)
        if not (exponent and abs(int(exponent[1])) > MAX_DECIMAL_EXPONENT):
            return Fraction(text)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"not a rational number: {s!r}") from e
    raise ValueError(f"decimal exponent out of range in {s!r}: "
                     f"|e| may be at most {MAX_DECIMAL_EXPONENT}")


def scalar_to_json(x):
    if isinstance(x, QuadExt):
        return {"a": rational_to_str(x.a), "b": rational_to_str(x.b), "d": x.d}
    return rational_to_str(x)


def scalar_from_json(v):
    if isinstance(v, dict):
        return QuadExt(parse_rational(v["a"]), parse_rational(v["b"]), v["d"])
    if isinstance(v, (str, int)):
        return parse_rational(v)
    raise ValueError(f"not an exact scalar: {v!r}")


def matrix_to_json(M: Matrix) -> list:
    return [[scalar_to_json(x) for x in row] for row in M.to_rows()]


# Uncalled in src/: perfbench's four_lines check reads solutions with it.
def matrix_from_json(rows: list) -> Matrix:
    return Matrix([[scalar_from_json(x) for x in row] for row in rows])


def kind_to_json(kind: GroupKind) -> dict:
    key = "m" if kind.tag == "SL" else "n"
    return {"type": kind.tag, key: kind.param}


def flag_to_json(f: Flag) -> dict:
    return {"ambient_dim": f.ambient_dim, "basis": matrix_to_json(f.basis)}


def certificate_to_json(c: TransversalityCertificate) -> dict:
    return {"transverse": c.transverse, "tangent_codim": c.tangent_codim,
            "codim_sum": c.codim_sum}
