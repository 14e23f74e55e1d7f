"""Record benchmark runs in BENCH_<label>.json files and compare two of them.

    python3 tools/bench_record.py --label NAME
        [--base-checkout DIR] [--workloads W,...] [--seeds 1,2,...,10]
    python3 tools/bench_record.py --compare BENCH_BASE.json BENCH_NAME.json

Recording runs ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0`` of this checkout as it stands, once per workload and seed, and
writes ``BENCH_<label>.json`` at the root of this repository: the
environment line of the runs (Python, platform, git revision, nproc),
whether the checkout had uncommitted changes under ``src/`` or
``perfbench/`` (``uncommitted_changes``, from ``git status --porcelain``:
the git revision names HEAD even when the tree differs from it) and, per
run, the digest of its first ops' outputs and its final JSON line.
The workloads and the run length S come from ``BENCHMARK.json``;
``--workloads`` picks a subset of them.  With
``--base-checkout`` every run is paired with the same run of that checkout,
the two alternating which goes first, and the base runs go to
``BENCH_pre_<label>.json``.

``--compare`` prints, per workload and end-to-end metric of
``BENCHMARK.json``, the base median and quartile spread, the new median,
their ratio, how many runs paired by seed the new record wins, and a
verdict (see :func:`verdict`).  The ``max_rss_mb`` line also shows both
records' median ``attempted`` op counts: RSS that follows the op count is
not memory the code holds.  Below the table, one
line per workload counts the runs paired by seed whose output digests are
equal, marks a mismatch, and reads ``n/a`` when a record has no digests
(records made before they were kept).  ``--compare`` exits 1 when a row
reads ``regression`` or a digest line reads ``MISMATCH``, and 0 otherwise
(``unresolved`` included).  It ignores ``uncommitted_changes``, which
records made before it was kept lack: they read as ``unknown``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "environment: "
DIGEST_PREFIX = "digest of the first "
RSS_METRIC = "max_rss_mb"


def parse_run(stdout: str) -> tuple[dict, dict]:
    """The environment line and the final JSON line of one run's stdout."""
    lines = stdout.strip().splitlines()
    env = next(json.loads(line[len(ENV_PREFIX):]) for line in lines
               if line.startswith(ENV_PREFIX))
    return env, json.loads(lines[-1])


def parse_digest(stdout: str) -> str | None:
    """The value of the run's ``digest of the first N ops:`` line."""
    return next((line.rsplit(": ", 1)[1] for line in stdout.splitlines()
                 if line.startswith(DIGEST_PREFIX)), None)


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, str | None, dict]:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"{' '.join(argv[1:])} in {checkout} exited "
                         f"{done.returncode}:\n{done.stderr}")
    env, result = parse_run(done.stdout)
    return env, parse_digest(done.stdout), result


def uncommitted_changes(checkout: Path) -> bool | None:
    """Whether ``git status --porcelain -- src perfbench`` lists a change
    in the checkout; None when git cannot tell (no git, not a repository)."""
    try:
        done = subprocess.run(["git", "status", "--porcelain", "--", "src",
                               "perfbench"], cwd=checkout, capture_output=True,
                              text=True)
    except OSError:
        return None
    return None if done.returncode else bool(done.stdout.strip())


def tree_state(rec: dict) -> str:
    """``clean``, ``uncommitted`` or ``unknown`` (git could not tell, or
    the record predates the field) for the checkout a record ran."""
    return {False: "clean", True: "uncommitted"}.get(
        rec.get("uncommitted_changes"), "unknown")


def record(label: str, seconds: float,
           uncommitted: bool | None = None) -> dict:
    return {"label": label,
            "command": "python3 perfbench/run.py --workload W --seed N "
                       f"--seconds {seconds:g} --trace 0",
            "environment": None, "uncommitted_changes": uncommitted,
            "runs": []}


def add_run(rec: dict, workload: str, seed: int, env: dict, result: dict,
            digest: str | None = None) -> None:
    if rec["environment"] is None:
        rec["environment"] = env
    elif env != rec["environment"]:
        raise SystemExit(f"{rec['label']}: the environment changed between "
                         f"runs: {rec['environment']} then {env}")
    rec["runs"].append({"workload": workload, "seed": seed, "digest": digest,
                        "result": result})


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _values(rec: dict, workload: str, metric: str) -> dict:
    """seed -> value, for the runs of one workload."""
    return {run["seed"]: run["result"]["metrics"][metric]["value"]
            for run in rec["runs"] if run["workload"] == workload}


def _quartile_spread(values: list) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def verdict(row: dict, bound: float) -> str:
    """The first that holds of: ``regression``, the new median is worse
    than the base median by more than the relative bound; ``gain``, the new
    record wins at least nine tenths of the pairs and the medians differ, in
    the better direction, by more than the base quartile spread;
    ``unresolved``, the base quartile spread is wider than the bound, so a
    change within it cannot be told from noise; ``ok``, anything else."""
    b, n = row["base_median"], row["new_median"]
    sign = 1 if row["better"] == "higher" else -1
    if sign * (n - b) < -bound * abs(b):
        return "regression"
    if (row["pairs"] and 10 * row["wins"] >= 9 * row["pairs"]
            and sign * (n - b) > row["base_spread"]):
        return "gain"
    if row["base_spread"] > bound * abs(b):
        return "unresolved"
    return "ok"


def compare(base: dict, new: dict, metrics: list[dict]) -> list[dict]:
    """One row per workload in both records and per end-to-end metric."""
    rows = []
    workloads = dict.fromkeys(r["workload"] for r in base["runs"])
    for workload in workloads:
        if not any(r["workload"] == workload for r in new["runs"]):
            continue
        attempted = [statistics.median(r["result"]["attempted"]
                                       for r in rec["runs"]
                                       if r["workload"] == workload)
                     for rec in (base, new)]
        for spec in metrics:
            name = spec["name"]
            b = _values(base, workload, name)
            n = _values(new, workload, name)
            higher = spec["better"] == "higher"
            pairs = [(b[key], n[key]) for key in b if key in n]
            wins = sum((y > x) if higher else (y < x) for x, y in pairs)
            b_med = statistics.median(b.values())
            n_med = statistics.median(n.values())
            rows.append({"workload": workload, "metric": name,
                         "unit": spec["unit"], "better": spec["better"],
                         "base_median": b_med,
                         "base_spread": _quartile_spread(list(b.values())),
                         "new_median": n_med,
                         "ratio": n_med / b_med if b_med else float("nan"),
                         "wins": wins, "pairs": len(pairs)})
            rows[-1]["verdict"] = verdict(rows[-1], spec["bound"])
            if name == RSS_METRIC:
                rows[-1]["attempted"] = attempted  # base and new medians
    return rows


def compare_digests(base: dict, new: dict) -> list[dict]:
    """Per workload with runs in both records: how many runs paired by seed
    have equal digests, out of the pairs with a digest on both sides."""
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in base["runs"]):
        b, n = ({run["seed"]: run.get("digest") for run in rec["runs"]
                 if run["workload"] == workload} for rec in (base, new))
        if not n:
            continue
        pairs = [(b[seed], n[seed]) for seed in b
                 if seed in n and b[seed] and n[seed]]
        rows.append({"workload": workload, "pairs": len(pairs),
                     "equal": sum(x == y for x, y in pairs)})
    return rows


def format_digests(rows: list[dict]) -> str:
    lines = []
    for r in rows:
        status = (f"{r['equal']}/{r['pairs']} seed pairs equal"
                  + ("  MISMATCH" if r["equal"] < r["pairs"] else "")
                  if r["pairs"] else "n/a")
        lines.append(f"{r['workload']:16s} {'digests':16s} {status}")
    return "\n".join(lines)


def _ops_note(row: dict) -> str:
    """The base and new median op counts of a max_rss_mb row."""
    return "  attempted {:g} -> {:g}".format(*row["attempted"])


def format_rows(base: dict, new: dict, rows: list[dict]) -> str:
    lines = [f"{new['label']} against base {base['label']}",
             f"{'workload':16s} {'metric':16s} {'base median':>12s} "
             f"{'base IQR':>10s} {'new median':>12s} {'new/base':>9s} "
             f"{'wins':>7s}  {'verdict':10s}  better"]
    for r in rows:
        lines.append(
            f"{r['workload']:16s} {r['metric']:16s} {r['base_median']:12.6g} "
            f"{r['base_spread']:10.4g} {r['new_median']:12.6g} "
            f"{r['ratio']:9.4f} {r['wins']:3d}/{r['pairs']:<3d}  "
            f"{r['verdict']:10s}  {r['better']}"
            + (_ops_note(r) if "attempted" in r else ""))
    return "\n".join(lines)


def _write(rec: dict) -> Path:
    path = ROOT / f"BENCH_{rec['label']}.json"
    path.write_text(json.dumps(rec, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--label")
    parser.add_argument("--base-checkout", type=Path)
    parser.add_argument("--workloads", help="a subset of BENCHMARK.json's "
                        "workloads, comma-separated (default: all)")
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    args = parser.parse_args(argv)
    spec = benchmark_spec()

    if args.compare:
        base, new = (json.loads(Path(p).read_text(encoding="utf-8"))
                     for p in args.compare)
        rows = compare(base, new, spec["end_to_end"])
        digests = compare_digests(base, new)
        print(format_rows(base, new, rows))
        print(format_digests(digests))
        return int(any(r["verdict"] == "regression" for r in rows)
                   or any(d["equal"] < d["pairs"] for d in digests))
    if not args.label:
        parser.error("recording needs --label")
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
    except ValueError:
        parser.error(f"--seeds must be comma-separated integers: {args.seeds!r}")
    if len(set(seeds)) != len(seeds):
        parser.error(f"--seeds repeats a seed: {args.seeds}")
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else names
    if not set(workloads) <= set(names):
        parser.error(f"--workloads must be among {', '.join(names)}")
    if len(set(workloads)) != len(workloads):
        parser.error(f"--workloads repeats a workload: {args.workloads}")
    seconds = spec["run_seconds"]

    sides = [(ROOT, args.label)]
    if args.base_checkout is not None:
        sides.append((args.base_checkout, f"pre_{args.label}"))
    sides = [(checkout, record(label, seconds, uncommitted_changes(checkout)))
             for checkout, label in sides]
    for checkout, rec in sides:
        print(f"BENCH_{rec['label']}.json: {checkout} is {tree_state(rec)} "
              "under src/ and perfbench/", flush=True)
    for i, seed in enumerate(seeds):
        for workload in workloads:
            for checkout, rec in sides[::-1] if i % 2 else sides:
                env, digest, result = run_once(checkout, workload, seed, seconds)
                add_run(rec, workload, seed, env, result, digest)
                path = _write(rec)  # after every run, so a cut run keeps its data
                print(f"{path.name}: {workload} seed {seed}, "
                      f"{result['metrics']['ops_per_s']['value']:.4g} ops/s",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
