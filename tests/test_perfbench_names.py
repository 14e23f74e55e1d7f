"""Every name of the package that the benchmark reaches still exists.

The benchmark under ``perfbench/`` is fixed between its own revisions, so
a deleted or renamed function, method or module attribute that it uses
would break it without breaking any other test.  This module only reads
``perfbench/``: it loads the span tables of ``spans.py`` and scans the
attribute chains rooted at ``lib`` (the namespace of ``schubert`` modules
the benchmark passes around) in every ``perfbench/*.py``.
"""

import ast
import importlib
import importlib.util
from functools import reduce
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(dotted: str):
    """``schubert.<module>`` followed by attribute lookups; raises if absent."""
    module, *attrs = dotted.split(".")
    return reduce(getattr, attrs, importlib.import_module(f"schubert.{module}"))


def _chain(node) -> list[str] | None:
    """The attribute names after ``lib`` or ``self._lib``, else None."""
    attrs = []
    while isinstance(node, ast.Attribute):
        if (node.attr == "_lib" and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            return attrs[::-1]
        attrs.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "lib":
        return attrs[::-1]
    return None


def _lib_chains(source: str) -> set[str]:
    """Dotted names reached from ``lib``, through local aliases as well
    (``g = lib.grassmann`` makes ``g.iota`` read as ``grassmann.iota``)."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            chain = _chain(node.value)
            if chain:
                aliases[node.targets[0].id] = chain
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        chain = _chain(node)
        if chain is None and isinstance(node.value, ast.Name):
            base = aliases.get(node.value.id)
            chain = base + [node.attr] if base else None
        if chain and len(chain) >= 2:
            found.add(".".join(chain))
    return found


def test_span_tables_resolve():
    spans = _spans()
    for mod, name in spans.FUNCTIONS:
        assert callable(_resolve(f"{mod}.{name}")), (mod, name)
    for mod, cls, attr in spans.METHODS:
        # the tracer patches the class's own attribute, not an inherited one
        assert attr in vars(_resolve(f"{mod}.{cls}")), (mod, cls, attr)
    for name in _resolve("jsonio.__all__"):
        assert callable(_resolve(f"jsonio.{name}")), name


def test_lib_attributes_resolve():
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        chains |= _lib_chains(path.read_text(encoding="utf-8"))
    # the scan must see what the benchmark is known to use
    assert {"cli.build_parser", "cli.main", "jsonio.matrix_from_json",
            "linalg.square_split.cache_clear", "linalg.square_split.cache_info",
            "grassmann.SchubertCondition"} <= chains
    for dotted in sorted(chains):
        _resolve(dotted)


def test_benchmark_modules_import():
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    modules = next(ast.literal_eval(node.value) for node in tree.body
                   if isinstance(node, ast.Assign)
                   and [getattr(t, "id", None) for t in node.targets] == ["MODULES"])
    assert "cli" in modules
    for mod in modules:
        importlib.import_module(f"schubert.{mod}")
