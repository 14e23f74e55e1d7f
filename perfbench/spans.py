"""In-memory span tracing of the schubert package, from outside it.

A :class:`Tracer` replaces the package's public entry points with wrappers
that record one span per call: its name, start, end, parent span and op id.
Python binds ``from .linalg import rank`` to a name in each consumer module,
so patching ``schubert.linalg.rank`` alone would miss every call made from
``grassmann``, ``flags``, ``wronski`` or ``cli``.  The tracer therefore
rebinds every module global of the package that refers to a traced function,
plus a few class attributes (``Matrix.__mul__``, the ``PolyQ`` arithmetic).
:meth:`Tracer.restore` puts the originals back.

Spans are kept in flat arrays and summarised after the run; nothing is
aggregated while the traced code runs, so the wrappers stay small.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

# (module, function) -> span name, for module-level functions.
FUNCTIONS = {
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "kernel"): "linalg.kernel",
    ("linalg", "inverse"): "linalg.inverse",
    ("linalg", "rref"): "linalg.rref",
    ("linalg", "det"): "linalg.det",
    ("linalg", "exp_nilpotent"): "linalg.exp_nilpotent",
    ("linalg", "solve_quadratic"): "linalg.solve_quadratic",
    ("grassmann", "small_solver_gr24"): "grassmann.solve",
    ("grassmann", "transversality_certificate"): "grassmann.certify",
    ("grassmann", "tangent_space"): "grassmann.tangent_space",
    ("grassmann", "membership"): "grassmann.membership",
    ("grassmann", "cell_interior"): "grassmann.cell_interior",
    ("flags", "osculating_flag"): "flags.osculating_flag",
    ("flags", "random_isotropic_flag"): "flags.random_isotropic_flag",
    ("flags", "exp_translate_flag"): "flags.exp_translate_flag",
    ("flags", "flags_equal"): "flags.flags_equal",
    ("flags", "is_isotropic_flag"): "flags.is_isotropic_flag",
    ("wronski", "wronskian"): "wronski.wronskian",
    ("wronski", "plane_vanishing_orders"): "wronski.plane_vanishing_orders",
    ("wronski", "random_plane"): "wronski.random_plane",
    ("cli", "main"): "cli.main",
}

# (module, class, attribute) -> span name, for methods reached by operators.
METHODS = {
    ("linalg", "Matrix", "__mul__"): "linalg.matmul",
    ("poly", "PolyQ", "__mul__"): "poly.mul",
    ("poly", "PolyQ", "__add__"): "poly.add",
    ("poly", "PolyQ", "__call__"): "poly.eval",
    ("poly", "PolyQ", "derivative"): "poly.derivative",
    ("poly", "PolyQ", "divide_linear"): "poly.divide_linear",
}

# Entry points of an elimination; their first argument is the input matrix.
ELIMINATIONS = ("linalg.rank", "linalg.kernel", "linalg.inverse",
                "linalg.rref", "linalg.det")

ROOT = "op"


class Tracer:
    """Records spans of one process; single-threaded by design."""

    def __init__(self, lib):
        self._lib = lib
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.op_id = -1
        # elimination-entry statistics, gathered outside the spans
        self.elim_qd_calls = 0
        self.elim_max_rows = 0
        self.elim_max_cols = 0
        self.elim_max_entry_bits = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._name_id(name)
        names, parents, ops = self.name, self.parent, self.op
        starts, ends, stack = self.start, self.end, self._stack
        probe = self._probe_elimination if name in ELIMINATIONS else None

        def traced(*args, **kwargs):
            if probe is not None:
                probe(args[0])
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def _probe_elimination(self, M) -> None:
        quad = self._lib.linalg.QuadExt
        irrational = False
        bits = 0
        for i in range(M.rows):
            for x in M.row(i):
                if isinstance(x, quad):
                    irrational = irrational or bool(x.b)
                    parts = (x.a, x.b)
                else:
                    parts = (x,)
                for p in parts:
                    bits = max(bits, p.numerator.bit_length(),
                               p.denominator.bit_length())
        self.elim_qd_calls += irrational
        self.elim_max_rows = max(self.elim_max_rows, M.rows)
        self.elim_max_cols = max(self.elim_max_cols, M.cols)
        self.elim_max_entry_bits = max(self.elim_max_entry_bits, bits)

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        """Rebind the traced entry points everywhere the package looks them up."""
        lib = self._lib
        functions = dict(FUNCTIONS)
        functions.update({("jsonio", name): f"jsonio.{name}"
                          for name in lib.jsonio.__all__})
        wrappers = {}
        for (mod, fn_name), span in functions.items():
            original = getattr(getattr(lib, mod), fn_name)
            wrappers[id(original)] = (original, self.wrap(span, original))
        build = lib.cli.build_parser
        wrappers[id(build)] = (build, self._traced_build_parser(build))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "schubert" and not mod_name.startswith("schubert."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(module, attr, hit[1])
        for (mod, cls_name, attr), span in METHODS.items():
            cls = getattr(getattr(lib, mod), cls_name)
            self._patch(cls, attr, self.wrap(span, vars(cls)[attr]))

    def _traced_build_parser(self, build_parser):
        build = self.wrap("cli.build_parser", build_parser)

        def traced_build_parser():
            parser = build()
            parser.parse_args = self.wrap("cli.parse_args", parser.parse_args)
            return parser

        return traced_build_parser

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- summaries ------------------------------------------------------------

    def table(self) -> dict[str, dict]:
        """Calls, inclusive seconds and self seconds for every span name."""
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name[i]]]
            row["calls"] += 1
            row["incl_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def count_under(self, name: str, ancestor: str) -> int:
        """How many ``name`` spans have an ``ancestor`` span above them."""
        if name not in self._name_ids or ancestor not in self._name_ids:
            return 0
        nid, aid = self._name_ids[name], self._name_ids[ancestor]
        count = 0
        for i in range(len(self.name)):
            if self.name[i] != nid:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != aid:
                p = self.parent[p]
            count += p >= 0
        return count

    def root_count(self) -> int:
        rid = self._name_ids.get(ROOT)
        return sum(1 for i in range(len(self.name))
                   if self.name[i] == rid and self.parent[i] < 0)

    def write(self, path) -> None:
        """All spans as gzipped TSV, one line per span, times in seconds."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.name)):
                fh.write(f"{i}\t{self.parent[i]}\t{self.op[i]}\t"
                         f"{self.names[self.name[i]]}\t"
                         f"{self.start[i] - t0:.9f}\t{self.end[i] - t0:.9f}\n")


def layer_metrics(tracer: Tracer, table: dict[str, dict],
                  cache_info) -> dict[str, tuple[float, str]]:
    """The per-layer metrics named in BENCHMARK.json, as (value, unit);
    ``table`` is ``tracer.table()``."""

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    def self_s(name):
        return table.get(name, {}).get("self_s", 0.0)

    def incl_s(name):
        return table.get(name, {}).get("incl_s", 0.0)

    def layer_self(prefix):
        return sum(row["self_s"] for name, row in table.items()
                   if name.startswith(prefix + "."))

    out: dict[str, tuple[float, str]] = {}
    for op in ("rank", "kernel", "inverse", "rref", "det"):
        out[f"linalg.{op}.calls"] = (calls(f"linalg.{op}"), "count")
        out[f"linalg.{op}.self_s"] = (self_s(f"linalg.{op}"), "s")
    out["linalg.elim_qd.calls"] = (tracer.elim_qd_calls, "count")
    out["linalg.elim.max_rows"] = (tracer.elim_max_rows, "count")
    out["linalg.elim.max_cols"] = (tracer.elim_max_cols, "count")
    out["linalg.elim.max_entry_bits"] = (tracer.elim_max_entry_bits, "bits")
    out["linalg.matmul.calls"] = (calls("linalg.matmul"), "count")
    out["linalg.matmul.self_s"] = (self_s("linalg.matmul"), "s")
    out["linalg.exp_nilpotent.self_s"] = (self_s("linalg.exp_nilpotent"), "s")
    looked_up = cache_info.hits + cache_info.misses
    out["linalg.square_split.hit_ratio"] = (
        cache_info.hits / looked_up if looked_up else 0.0, "ratio")
    out["linalg.self_s"] = (layer_self("linalg"), "s")

    out["grassmann.solve.self_s"] = (self_s("grassmann.solve"), "s")
    out["grassmann.certify.self_s"] = (self_s("grassmann.certify"), "s")
    for op in ("tangent_space", "membership", "cell_interior"):
        out[f"grassmann.{op}.calls"] = (calls(f"grassmann.{op}"), "count")
        out[f"grassmann.{op}.self_s"] = (self_s(f"grassmann.{op}"), "s")
    tangents = calls("grassmann.tangent_space")
    ranks = tracer.count_under("linalg.rank", "grassmann.tangent_space")
    out["grassmann.rank_per_tangent"] = (ranks / tangents if tangents else 0.0,
                                         "ratio")
    solve = incl_s("grassmann.solve")
    out["grassmann.certify_over_solve"] = (
        incl_s("grassmann.certify") / solve if solve else 0.0, "ratio")

    for op in ("osculating_flag", "random_isotropic_flag", "exp_translate_flag",
               "flags_equal", "is_isotropic_flag"):
        out[f"flags.{op}.self_s"] = (self_s(f"flags.{op}"), "s")
    out["flags.flags_equal.rank_calls"] = (
        tracer.count_under("linalg.rank", "flags.flags_equal"), "count")

    out["poly.mul.calls"] = (calls("poly.mul"), "count")
    out["poly.mul.self_s"] = (self_s("poly.mul"), "s")
    out["poly.self_s"] = (layer_self("poly"), "s")
    out["wronski.wronskian.self_s"] = (self_s("wronski.wronskian"), "s")
    out["wronski.plane_vanishing_orders.self_s"] = (
        self_s("wronski.plane_vanishing_orders"), "s")
    out["wronski.random_plane.calls"] = (calls("wronski.random_plane"), "count")

    out["cli.parse_s"] = (incl_s("cli.build_parser") + incl_s("cli.parse_args"),
                          "s")
    out["jsonio.self_s"] = (layer_self("jsonio"), "s")
    return out

