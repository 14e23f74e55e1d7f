"""``src/schubert`` holds no float literal and no ``float(...)`` call.

Every verdict the package prints is exact, so no value of it is ever a
float; this pins that by reading the source, not by sampling inputs.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schubert"


def test_no_float_literal_or_float_call():
    found = []
    files = sorted(SRC.glob("*.py"))
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant)
                    and isinstance(node.value, (float, complex))):
                found.append(f"{path.name}:{node.lineno} literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "float"):
                found.append(f"{path.name}:{node.lineno} float(...)")
    assert not found, found
    assert len(files) >= 8
