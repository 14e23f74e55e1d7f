"""``src/schubert`` builds a Fraction in four places only.

``linalg._SMALL``'s table, ``linalg._rational``, ``linalg._ratio`` and
``jsonio.parse_rational``'s parse of a rational string call ``Fraction``;
every other value is built through ``_rational`` or ``_ratio``, so a small
whole number is always the one shared Fraction and no Fraction is built
from a bool.  This pins that by reading the source.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schubert"

# file -> the module-level definitions whose bodies may call Fraction
ALLOWED = {"linalg.py": {"_SMALL", "_rational", "_ratio"},
           "jsonio.py": {"parse_rational"}}


def _is_fraction(node: ast.AST) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "Fraction")
            or (isinstance(node, ast.Attribute) and node.attr == "Fraction"))


def _defined_names(stmt: ast.stmt) -> set[str]:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def fraction_calls(name: str, source: str) -> list[str]:
    """``name:line`` of each call of Fraction outside the allowed
    module-level definitions."""
    allowed = ALLOWED.get(name, set())
    lines = sorted(node.lineno for stmt in ast.parse(source).body
                   if not _defined_names(stmt) & allowed
                   for node in ast.walk(stmt)
                   if isinstance(node, ast.Call) and _is_fraction(node.func))
    return [f"{name}:{line}" for line in lines]


def test_fractions_are_built_in_one_place():
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 8
    found = [hit for path in files
             for hit in fraction_calls(path.name,
                                       path.read_text(encoding="utf-8"))]
    assert not found, found


def test_the_scan_sees_every_call_outside_the_allowed_definitions():
    source = ("from fractions import Fraction\n"
              "import fractions\n"
              "x = Fraction(1 == 1)\n"
              "def f(a):\n"
              "    return [fractions.Fraction(a)] if isinstance(a, int) else a\n"
              "def _ratio(n, d):\n"
              "    return Fraction(n, d)\n"
              "ok = isinstance(x, Fraction)\n")
    assert fraction_calls("linalg.py", source) == ["linalg.py:3",
                                                   "linalg.py:5"]
    assert fraction_calls("flags.py", source) == ["flags.py:3", "flags.py:5",
                                                  "flags.py:7"]
