"""Serialization round trips; every number travels as an exact string."""

import json
from fractions import Fraction

import pytest

from schubert import jsonio
from schubert.flags import Flag, GroupKind
from schubert.linalg import Matrix, QuadExt
from schubert.wronski import plane_to_grpoint, wronski_solver_gr24

F = Fraction


def test_rational_strings():
    assert jsonio.rational_to_str(F(-4, 3)) == "-4/3"
    assert jsonio.rational_to_str(F(7)) == "7"
    assert jsonio.parse_rational("-4/3") == F(-4, 3)
    assert jsonio.parse_rational(" 5 ") == F(5)
    with pytest.raises(ValueError):
        jsonio.parse_rational("1.5e3x")


def test_rational_strings_of_any_size():
    # beyond the interpreter's default of 4300 digits for str(int)
    big = 10 ** 5000
    assert jsonio.rational_to_str(F(-big - 1, 3)) == "-1" + "0" * 4999 + "1/3"
    assert jsonio.rational_to_str(F(7, big)) == "7/1" + "0" * 5000
    assert jsonio.rational_to_str(0) == "0"
    for x in (F(-4, 3), F(10 ** 600 - 1, 10 ** 601), F(-(10 ** 4000))):
        assert jsonio.rational_to_str(x) == str(x)


def test_decimal_exponent_is_bounded():
    assert jsonio.parse_rational("1e5") == 100000
    assert jsonio.parse_rational("2.5e-3") == F(1, 400)
    assert jsonio.parse_rational("-3/2") == F(-3, 2)
    assert jsonio.parse_rational("1.5") == F(3, 2)
    limit = jsonio.MAX_DECIMAL_EXPONENT
    assert jsonio.parse_rational(f"1e-{limit}") == F(1, 10 ** limit)
    for text in (f"1e{limit + 1}", f"2.5E-{limit + 1}", "1e+30000000",
                 "1e1_000_000"):
        with pytest.raises(ValueError, match="exponent") as exc:
            jsonio.parse_rational(text)
        assert repr(text) in str(exc.value)


def test_scalar_round_trip():
    for x in [F(0), F(-7, 2), QuadExt(F(1, 2), F(-1, 3), 13)]:
        encoded = jsonio.scalar_to_json(x)
        assert jsonio.scalar_from_json(encoded) == x
    # QuadExt(...) of a rational value is a Fraction: a plain string
    assert jsonio.scalar_to_json(QuadExt(F(3), F(0), 5)) == "3"


@pytest.mark.parametrize("d", [2.5, True, "13"])
def test_scalar_from_json_needs_an_integer_d(d):
    with pytest.raises(TypeError):
        jsonio.scalar_from_json({"a": "1", "b": "1", "d": d})


@pytest.mark.parametrize("v", [[1], None, 1.5])
def test_scalar_from_json_rejects_other_types(v):
    with pytest.raises(ValueError, match="not an exact scalar"):
        jsonio.scalar_from_json(v)


def test_quadext_wire_format():
    enc = jsonio.scalar_to_json(QuadExt(F(1, 2), F(2), 13))
    assert enc == {"a": "1/2", "b": "2", "d": 13}
    assert json.dumps(enc)  # JSON-safe


def test_matrix_round_trip():
    M = Matrix([[F(1), F(-1, 2)], [F(0), F(3)]])
    assert jsonio.matrix_from_json(jsonio.matrix_to_json(M)) == M
    irr = Matrix([[QuadExt(F(0), F(1), 2), F(1)]])
    assert jsonio.matrix_from_json(jsonio.matrix_to_json(irr)) == irr


def test_kind_round_trip():
    for kind in [GroupKind.sl(4), GroupKind.sp(2), GroupKind.so_odd(3),
                 GroupKind.so_even(2)]:
        d = jsonio.kind_to_json(kind)
        assert GroupKind(d["type"], d["m" if d["type"] == "SL" else "n"]) == kind
    assert jsonio.kind_to_json(GroupKind.sl(4)) == {"type": "SL", "m": 4}
    assert jsonio.kind_to_json(GroupKind.sp(2)) == {"type": "Sp", "n": 2}


def test_everything_json_dumps_cleanly():
    plane = wronski_solver_gr24([F(0), F(1), F(2), F(3)])[0]
    payload = {
        "plane": jsonio.matrix_to_json(plane_to_grpoint(plane).basis),
        "flag": jsonio.flag_to_json(Flag.coordinate(3)),
    }
    text = json.dumps(payload)
    assert '"d": 13' in text
