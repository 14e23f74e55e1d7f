"""Benchmark of the schubert package, run from the root of a source checkout.

    python3 perfbench/run.py --workload four_lines --seed 1 --seconds 25 --trace 0

One process, one thread, one client in a closed loop: each op starts when
the previous one returns.  The package is imported from ``src/`` of the
checkout and measured from outside; nothing in it is changed.

``--trace 0`` times the workload for ``--seconds`` and prints the end-to-end
metrics.  Their times are scaled to a reference machine speed, measured by
:func:`probe` between ops; the wall-clock figures are printed beside them.

``--trace 1`` runs a fixed window of ops twice, untraced and then with every
public entry point wrapped in a span (see ``spans.py``), checks that both
passes print byte-identical outputs, and prints the per-layer metrics; the
spans go to ``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/schubert`` the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import types
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from spans import ROOT as ROOT_SPAN
from spans import Tracer, layer_metrics
from workloads import DEGENERATE, OK, WORKLOADS

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
PACKAGE = CHECKOUT / "src" / "schubert"
OUT = HERE / "out"

MODULES = ("linalg", "poly", "flags", "grassmann", "wronski", "jsonio", "cli")
# Set-up (import, inputs, warm-up) runs this often; setup_s is the median.
SETUP_REPEATS = 3
# A timed run completes at least this many ops, so the tail has 10 beyond it.
MIN_TIMED_OPS = 20
TAIL_BEYOND = 10
# The probe's time at the reference speed (about its time on a 2-vCPU
# Xeon KVM guest in that guest's slow state), and how often it is
# re-measured during a timed pass.
PROBE_REF_S = 0.003
PROBE_EVERY_S = 0.25


class OpError(str):
    """An op that raised instead of returning."""


def import_package():
    """A fresh import of schubert from this checkout's ``src``."""
    for name in [n for n in sys.modules
                 if n == "schubert" or n.startswith("schubert.")]:
        del sys.modules[name]
    package = importlib.import_module("schubert")
    if Path(package.__file__).resolve().parent != PACKAGE:
        raise ImportError(f"schubert was imported from {package.__file__}, "
                          f"not from {PACKAGE}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"schubert.{m}")
                                    for m in MODULES})


def probe() -> float:
    """Seconds that a fixed stdlib Fraction sum takes now.

    On a 2-vCPU KVM guest on an Intel Xeon the same code ran up to 1.7x
    faster in spells lasting seconds to tens of seconds (host turbo and
    neighbours), which no statistic over a 25 s run can average away.  The
    probe measures that speed; times scale by ``PROBE_REF_S / probe()``.
    """
    start = perf_counter()
    for _ in range(2):
        acc = Fraction(0)
        for i in range(1, 600):
            acc += Fraction(1, i)
    return (perf_counter() - start) / 2


def set_up(workload, seed):
    """Import, generate inputs and warm up, SETUP_REPEATS times; the wall
    and reference-speed seconds of each."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        before = probe()
        start = perf_counter()
        lib = import_package()
        warm, timed = workload.inputs(lib, seed)
        for op in warm:
            workload.run(lib, op)
        elapsed = perf_counter() - start
        times.append(elapsed)
        scaled.append(elapsed * 2 * PROBE_REF_S / (before + probe()))
    return times, scaled, lib, timed


@dataclass
class Pass:
    """One pass over ops: each op's wall time, the same at the reference
    speed, each op's raw output, the probe times, and the pass's wall time."""

    latencies: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    raws: list = field(default_factory=list)
    probes: list = field(default_factory=list)
    wall: float = 0.0

    def scale(self, last_probe: list[int]) -> None:
        """Scale op i by the median of the two probes before it and the two
        after it (``last_probe[i]`` is the one just before), so a probe that
        caught a passing blip of speed moves no op on its own."""
        for lat, j in zip(self.latencies, last_probe):
            near = self.probes[max(0, j - 1):j + 3]
            self.scaled.append(lat * PROBE_REF_S / statistics.median(near))


def run_ops(lib, ops, run, *, seconds=0.0, count=0, tracer=None):
    """Run ops in order until ``seconds`` have passed and ``count`` ops are
    done."""
    lib.linalg.square_split.cache_clear()
    out = Pass()
    last_probe = []
    start = now = perf_counter()
    probed = -math.inf
    i = 0
    while now - start < seconds or i < count:
        if now - probed >= PROBE_EVERY_S:
            out.probes.append(probe())
            probed = now
        last_probe.append(len(out.probes) - 1)
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        before = perf_counter()
        try:
            raw = run(lib, op)
        except (Exception, SystemExit) as e:  # an op failure, not the harness's
            raw = OpError(f"{type(e).__name__}: {e}")
        now = perf_counter()
        out.latencies.append(now - before)
        out.raws.append(raw)
        i += 1
    out.wall = now - start
    out.probes.append(probe())
    out.scale(last_probe)
    return out


def verdicts(workload, lib, ops, raws):
    out = []
    for i, raw in enumerate(raws):
        if isinstance(raw, OpError):
            out.append(raw)
            continue
        try:
            out.append(workload.check(lib, ops[i % len(ops)], raw))
        except (KeyError, TypeError, ValueError) as e:
            out.append(f"malformed output: {type(e).__name__}: {e}")
    return out


def renders(workload, ops, raws):
    return [raw if isinstance(raw, OpError)
            else workload.render(ops[i % len(ops)], raw)
            for i, raw in enumerate(raws)]


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def tail(latencies):
    """The highest whole percentile with at least TAIL_BEYOND samples above
    it: (percentile, value, samples beyond)."""
    n = len(latencies)
    p = 100 * (n - TAIL_BEYOND) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(latencies)[rank - 1], n - rank


def environment():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "platform": platform.platform(),
            "git_revision": git_revision(), "nproc": nproc}


def git_revision() -> str:
    """HEAD of the checkout read from ``.git``; "unknown" outside a clone."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(lines, correct, attempted, failed, metrics):
    for line in lines:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def bench(workload, lib, ops, args, setup, lines):
    setup_times, setup_scaled = setup
    count = max(MIN_TIMED_OPS, workload.digest_ops)
    run = run_ops(lib, ops, workload.run, seconds=args.seconds, count=count)
    results = verdicts(workload, lib, ops, run.raws)
    failed = sum(r not in (OK, DEGENERATE) for r in results)
    n = len(run.raws)
    p, tail_s, beyond = tail(run.scaled)
    lines += [
        f"closed loop, 1 client: {n} ops in {run.wall:.3f} s, "
        f"{results.count(DEGENERATE)} degenerate (exit 4)",
        f"wall clock: {n / run.wall:.6g} ops/s, "
        f"p50 {statistics.median(run.latencies) * 1e3:.6g} ms, "
        f"p{p} {tail(run.latencies)[1] * 1e3:.6g} ms, set-up "
        + ", ".join(f"{t:.4f}" for t in setup_times) + " s",
        f"probe: median {statistics.median(run.probes) * 1e3:.4f} ms, range "
        f"{min(run.probes) * 1e3:.4f}-{max(run.probes) * 1e3:.4f} ms over "
        f"{len(run.probes)} probes; times below are at {PROBE_REF_S * 1e3:g} ms",
        f"failed_ratio = {failed}/{n} = {failed / n:.6g}",
        f"latency_tail_ms is p{p} of {n} ops, {beyond} beyond it",
        f"setup_s is the median of {SETUP_REPEATS} set-ups",
        f"digest of the first {workload.digest_ops} ops: "
        + digest(renders(workload, ops, run.raws)[:workload.digest_ops]),
    ]
    lines += [f"FAILED op {i}: {r}" for i, r in enumerate(results)
              if r not in (OK, DEGENERATE)][:10]
    metrics = {
        "ops_per_s": (n / sum(run.scaled), "1/s"),
        "latency_p50_ms": (statistics.median(run.scaled) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "ok_ratio": ((n - failed) / n, "ratio"),
        "setup_s": (statistics.median(setup_scaled), "s"),
        "max_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                       "MB"),
    }
    return failed == 0, n, failed, metrics


def bench_traced(workload, lib, ops, args, lines):
    count = max(workload.digest_ops, round(args.seconds * workload.trace_ops_per_s))
    untraced = run_ops(lib, ops, workload.run, count=count)
    tracer = Tracer(lib)
    root = tracer.wrap(ROOT_SPAN, workload.run)
    tracer.install()
    try:
        traced = run_ops(lib, ops, root, count=count, tracer=tracer)
    finally:
        tracer.restore()
    raws_u, raws_t = untraced.raws, traced.raws
    time_u, time_t = sum(untraced.scaled), sum(traced.scaled)
    cache_info = lib.linalg.square_split.cache_info()
    table = tracer.table()

    problems = []
    texts = renders(workload, ops, raws_t)
    if texts != renders(workload, ops, raws_u):
        problems.append("traced and untraced outputs differ")
    if tracer.root_count() != count:
        problems.append(f"{tracer.root_count()} root spans for {count} ops")
    for name, want in workload.expected_calls(raws_t).items():
        got = table.get(name, {}).get("calls", 0)
        if got != want:
            problems.append(f"{name}: {got} calls, expected {want}")
    results = verdicts(workload, lib, ops, raws_t)
    failed = sum(r not in (OK, DEGENERATE) for r in results)

    metrics = layer_metrics(tracer, table, cache_info)
    metrics["trace.ops_per_s"] = (count / time_t, "1/s")
    metrics["trace.untraced_ops_per_s"] = (count / time_u, "1/s")
    metrics["trace.overhead_ratio"] = (time_t / time_u, "ratio")
    metrics["trace.spans"] = (len(tracer.name), "count")

    OUT.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    tracer.write(OUT / f"spans-{stem}.tsv.gz")
    summary = {"workload": workload.name, "seed": args.seed, "ops": count,
               "environment": environment(), "problems": problems,
               "digest": digest(texts[:workload.digest_ops]),
               "window_digest": digest(texts),
               "spans": table,
               "metrics": {k: v for k, (v, _) in metrics.items()}}
    (OUT / f"trace-{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")

    lines += [
        f"traced window: {count} ops, {len(tracer.name)} spans, "
        f"wall clock untraced {sum(untraced.latencies):.3f} s, "
        f"traced {sum(traced.latencies):.3f} s",
        f"digest of the first {workload.digest_ops} ops: {summary['digest']}",
        f"spans written to {OUT.relative_to(CHECKOUT)}/spans-{stem}.tsv.gz",
        f"{'span':36s} {'calls':>9s} {'incl_s':>10s} {'self_s':>10s}",
    ]
    lines += [f"{name:36s} {row['calls']:9d} {row['incl_s']:10.4f} {row['self_s']:10.4f}"
              for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"])
              if row["calls"]]
    lines += [f"SELF-CHECK FAILED: {p}" for p in problems]
    lines += [f"FAILED op {i}: {r}" for i, r in enumerate(results)
              if r not in (OK, DEGENERATE)][:10]
    return failed == 0 and not problems, count, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"no schubert package at {PACKAGE}", file=sys.stderr)
        return 2
    os.environ.pop("SCHUBERT_OUTPUT", None)  # the checks read JSON output
    sys.path.insert(0, str(PACKAGE.parent))
    workload = WORKLOADS[args.workload]

    *setup, lib, ops = set_up(workload, args.seed)
    lines = [f"workload {workload.name}, seed {args.seed}, trace {args.trace}",
             "environment: " + json.dumps(environment())]
    if args.trace:
        result = bench_traced(workload, lib, ops, args, lines)
    else:
        result = bench(workload, lib, ops, args, setup, lines)
    report(lines, *result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
