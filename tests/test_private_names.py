"""Every private module-level name of ``src/schubert`` has a caller.

A ``_``-prefixed function, class or constant is not exported, so nothing
outside the package should need it; if no code of the package reads it
either, apart from its own definition (a recursive call does not count),
it is dead code.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schubert"


def _private_definitions(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _uses(tree, skip):
    """Names read in tree as a variable or an attribute, outside skip; an
    import alone is no use."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        stack.extend(ast.iter_child_nodes(node))


def test_every_private_name_has_a_use():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(name in set(_uses(t, node)) for t in trees.values()):
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, dead
    assert len(trees) >= 8
