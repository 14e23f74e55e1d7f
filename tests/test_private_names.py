"""Every private module-level name and every public method of
``src/schubert`` has a use in the package, and every public module-level
function and class of a module that ``schubert`` republishes is in that
module's ``__all__``.

A ``_``-prefixed function, class or constant is not exported, so nothing
outside the package should need it; if no code of the package reads it
either, apart from its own definition (a recursive call does not count),
it is dead code.  A public method that no code of the package reads is API
kept only for its tests, unless ``KEPT_METHODS`` says why it stays.
"""

import ast
import importlib
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "schubert"

# (module, class, method) -> why it stays without a use in the package
KEPT_METHODS = {
    ("poly", "PolyQ", "derivative"): "a span of perfbench/spans.py METHODS",
    ("poly", "PolyQ", "divide_linear"): "a span of perfbench/spans.py METHODS",
    ("linalg", "QuadExt", "conjugate"):
        "the planned Z[sqrt(d)] elimination divides as x*conj(y)/N(y), "
        "and must take a Fraction y as its own conjugate",
    ("flags", "GroupKind", "so_odd"): "library constructor, like sl and sp",
    ("flags", "GroupKind", "so_even"): "library constructor, like sl and sp",
    ("flags", "Flag", "coordinate"): "library constructor of the standard flag",
}


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


def _walk(tree, skip):
    """The nodes of tree outside skip."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _uses(tree, skip):
    """Names read in tree as a variable or an attribute, outside skip; an
    import alone is no use."""
    for node in _walk(tree, skip):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def _trees():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py"))}


def test_every_private_name_has_a_use():
    trees = _trees()
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            if not any(name in set(_uses(t, node)) for t in trees.values()):
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, dead
    assert len(trees) >= 8


def _public_methods(tree):
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef)
                        and not node.name.startswith("_")):
                    yield cls.name, node


def test_every_public_method_has_a_use_or_a_reason():
    """A method is used when some attribute read anywhere in the package
    has its name, whatever the object it is read from; so a method name
    shared by two classes counts as used for both."""
    trees = _trees()
    methods = {(module, cls, node.name): node for module, tree in trees.items()
               for cls, node in _public_methods(tree)}
    gone = set(KEPT_METHODS) - set(methods)
    assert not gone, f"KEPT_METHODS lists methods that are gone: {gone}"
    unused = []
    for (module, cls, name), node in methods.items():
        if (module, cls, name) in KEPT_METHODS:
            continue
        # matched by attribute name, whatever the object it is read from
        if not any(isinstance(n, ast.Attribute) and n.attr == name
                   for t in trees.values() for n in _walk(t, node)):
            unused.append(f"{module}:{node.lineno} {cls}.{name}")
    assert not unused, unused
    assert len(methods) >= 25


def test_every_public_function_and_class_is_in_its_modules_all():
    """``schubert.__all__`` is built from the ``__all__`` of each module that
    ``__init__.py`` star-imports, so a public name left out of its module's
    list would silently drop out of the package's API."""
    trees = _trees()
    republished = [node.module for node in trees["__init__"].body
                   if isinstance(node, ast.ImportFrom)
                   and node.names[0].name == "*"]
    assert len(republished) == 6, republished
    missing = []
    for module in republished:
        exported = set(importlib.import_module(f"schubert.{module}").__all__)
        for node in trees[module].body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and node.name not in exported):
                missing.append(f"{module}:{node.lineno} {node.name}")
    assert not missing, missing
