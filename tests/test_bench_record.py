"""The BENCH recorder's parsing and comparison, on small in-memory records;
no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

METRICS = [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
           {"name": "max_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]
ENV = {"python": "3.11.7", "platform": "Linux", "git_revision": "abc", "nproc": 2}


def _record(label, runs, attempted=10):
    rec = bench_record.record(label, 25)
    for workload, seed, ops, rss in runs:
        result = {"correct": True, "attempted": attempted, "failed": 0,
                  "metrics": {"ops_per_s": {"value": ops, "unit": "1/s"},
                              "max_rss_mb": {"value": rss, "unit": "MB"}}}
        bench_record.add_run(rec, workload, seed, ENV, result)
    return rec


def test_parse_run_reads_environment_and_final_line():
    stdout = ("workload eh_check, seed 1, trace 0\n"
              'environment: {"python": "3.11.7", "nproc": 2}\n'
              "  ops_per_s  120 1/s\n"
              '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}\n')
    env, result = bench_record.parse_run(stdout)
    assert env == {"python": "3.11.7", "nproc": 2}
    assert result["attempted"] == 5


def test_compare_pairs_runs_by_seed():
    base = _record("base", [("eh_check", 1, 100.0, 30.0),
                            ("eh_check", 2, 110.0, 31.0),
                            ("eh_check", 3, 120.0, 29.0),
                            ("four_lines", 1, 10.0, 27.0)])
    new = _record("new", [("eh_check", 3, 150.0, 33.0),
                          ("eh_check", 1, 130.0, 31.0),
                          ("eh_check", 2, 105.0, 30.0)])
    rows = bench_record.compare(base, new, METRICS)
    # four_lines has no new runs, so only eh_check is compared
    assert [(r["workload"], r["metric"]) for r in rows] == [
        ("eh_check", "ops_per_s"), ("eh_check", "max_rss_mb")]
    ops, rss = rows
    assert ops["base_median"] == 110.0 and ops["new_median"] == 130.0
    assert ops["ratio"] == pytest.approx(130 / 110)
    assert ops["base_spread"] == pytest.approx(10.0)
    assert (ops["wins"], ops["pairs"]) == (2, 3)  # seed 2 lost
    assert rss["ratio"] == pytest.approx(31 / 30)
    assert (rss["wins"], rss["pairs"]) == (1, 3)  # lower is better: seed 2
    text = bench_record.format_rows(base, new, rows)
    assert text.splitlines()[0] == "new against base base"
    assert "1.1818" in text and "2/3" in text


def test_compare_shows_op_counts_beside_rss():
    base = _record("base", [("eh_check", 1, 100.0, 30.0),
                            ("eh_check", 2, 110.0, 31.0)], attempted=2500)
    new = _record("new", [("eh_check", 1, 150.0, 32.0)], attempted=3750)
    base["runs"][1]["result"]["attempted"] = 2700  # median of 2500 and 2700
    rows = bench_record.compare(base, new, METRICS)
    ops, rss = rows
    assert "attempted" not in ops
    assert rss["attempted"] == [2600, 3750]
    ops_line, rss_line = bench_record.format_rows(base, new, rows).splitlines()[2:]
    assert "attempted" not in ops_line
    assert rss_line.startswith("eh_check") and "max_rss_mb" in rss_line
    assert rss_line.endswith("lower  attempted 2600 -> 3750")


def test_environment_must_not_change():
    rec = _record("base", [("eh_check", 1, 100.0, 30.0)])
    with pytest.raises(SystemExit):
        bench_record.add_run(rec, "eh_check", 2, dict(ENV, git_revision="def"),
                             rec["runs"][0]["result"])


@pytest.mark.parametrize("argv", [
    ["--label", "x", "--seeds", "1,2,1"],
    ["--label", "x", "--seeds", "1,x"],
    ["--label", "x", "--seeds", ""],
    ["--label", "x", "--seeds", "1,,2"],
    ["--label", "x", "--workloads", "eh_check,no_such_workload"],
    ["--label", "x", "--base-checkout", ".", "--base-label", "x"],
])
def test_recording_rejects_bad_selection_before_running(argv):
    with pytest.raises(SystemExit) as e:
        bench_record.main(argv)
    assert e.value.code == 2
