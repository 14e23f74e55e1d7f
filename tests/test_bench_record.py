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


def test_parse_digest_reads_the_digest_line():
    stdout = ("workload eh_check, seed 1, trace 0\n"
              'environment: {"python": "3.11.7", "nproc": 2}\n'
              "digest of the first 24 ops: 2909f869\n"
              '{"correct": true, "attempted": 5, "failed": 0, "metrics": {}}\n')
    assert bench_record.parse_digest(stdout) == "2909f869"
    assert bench_record.parse_digest(stdout.replace("digest", "hash")) is None
    rec = bench_record.record("x", 25)
    bench_record.add_run(rec, "eh_check", 1, ENV, {}, "2909f869")
    assert rec["runs"][0]["digest"] == "2909f869"


def _with_digests(rec, digests):
    for run, digest in zip(rec["runs"], digests):
        run["digest"] = digest
    return rec


def _digest_records(base_digests, new_digests):
    runs = [("eh_check", s, 100.0, 30.0) for s in (1, 2, 3)]
    base = _with_digests(_record("base", runs), base_digests)
    # the new record lists its seeds in another order
    new = _with_digests(_record("new", runs[::-1]), new_digests[::-1])
    return bench_record.compare_digests(base, new)


def test_compare_digests_equal():
    rows = _digest_records(["a", "b", "c"], ["a", "b", "c"])
    assert rows == [{"workload": "eh_check", "pairs": 3, "equal": 3}]
    assert bench_record.format_digests(rows) == (
        f"{'eh_check':16s} {'digests':16s} 3/3 seed pairs equal")


def test_compare_digests_flags_a_mismatch():
    rows = _digest_records(["a", "b", "c"], ["a", "x", "c"])
    assert rows == [{"workload": "eh_check", "pairs": 3, "equal": 2}]
    assert bench_record.format_digests(rows).endswith(
        "2/3 seed pairs equal  MISMATCH")


def test_compare_digests_of_older_records_read_n_a():
    base = _record("base", [("eh_check", 1, 100.0, 30.0),
                            ("four_lines", 1, 10.0, 27.0)])
    for run in base["runs"]:
        del run["digest"]  # a record made before digests were kept
    new = _with_digests(_record("new", [("eh_check", 1, 100.0, 30.0)]), ["a"])
    rows = bench_record.compare_digests(base, new)
    assert rows == [{"workload": "eh_check", "pairs": 0, "equal": 0}]
    assert bench_record.format_digests(rows).endswith("digests          n/a")


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
    ["--label", "x", "--workloads", "eh_check,eh_check"],
])
def test_recording_rejects_bad_selection_before_running(argv):
    with pytest.raises(SystemExit) as e:
        bench_record.main(argv)
    assert e.value.code == 2


def _ten_pairs(base_ops, new_ops, base_rss=30.0, new_rss=30.0):
    """Records of ten seeds: the base's ops/s per seed and the new record's."""
    base = _record("base", [("eh_check", s, ops, base_rss)
                            for s, ops in enumerate(base_ops, 1)])
    new = _record("new", [("eh_check", s, ops, new_rss)
                          for s, ops in enumerate(new_ops, 1)])
    return {r["metric"]: r for r in bench_record.compare(base, new, METRICS)}


SPREAD = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]


@pytest.mark.parametrize("new_ops, want", [
    ([x + 20 for x in SPREAD], "gain"),                    # 10/10, +20 > IQR 4.5
    ([x + 20 for x in SPREAD[:9]] + [90.0], "gain"),       # 9/10 still counts
    ([x + 20 for x in SPREAD[:8]] + [90.0, 90.0], "ok"),   # 8/10 does not
    ([x + 3 for x in SPREAD], "ok"),                       # 10/10, +3 < IQR
    ([x - 20 for x in SPREAD], "ok"),                      # worse, within 25 %
    ([x * 0.7 for x in SPREAD], "regression"),             # worse by 30 %
])
def test_compare_verdict_on_ops(new_ops, want):
    row = _ten_pairs(SPREAD, new_ops)["ops_per_s"]
    assert row["verdict"] == want
    assert f"  {want:10s}  higher" in bench_record.format_rows(
        {"label": "base"}, {"label": "new"}, [row])


def test_compare_verdict_unresolved_when_base_spreads_past_the_bound():
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]
    assert _ten_pairs(wide, [x + 5 for x in wide])["ops_per_s"]["verdict"] \
        == "unresolved"  # IQR 45 > 0.25 * 105
    # a worse median past the bound is a regression whatever the spread
    assert _ten_pairs(wide, [x * 0.5 for x in wide])["ops_per_s"]["verdict"] \
        == "regression"


def test_compare_verdict_on_a_lower_is_better_metric():
    # max_rss_mb: lower is better, bound 10 %; every base run reads 30 MB
    rows = _ten_pairs(SPREAD, SPREAD, new_rss=33.5)
    assert rows["max_rss_mb"]["verdict"] == "regression"
    assert rows["ops_per_s"]["verdict"] == "ok"
    assert _ten_pairs(SPREAD, SPREAD, new_rss=32.5)["max_rss_mb"]["verdict"] == "ok"
    assert _ten_pairs(SPREAD, SPREAD, new_rss=25.0)["max_rss_mb"]["verdict"] == "gain"



WIDE = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]


@pytest.mark.parametrize("base_ops, new_ops, last_digest, code, want", [
    (SPREAD, SPREAD, "a", 0, "ok"),
    (SPREAD, [x * 0.7 for x in SPREAD], "a", 1, "regression"),
    (SPREAD, SPREAD, "b", 1, "MISMATCH"),
    (WIDE, [x + 5 for x in WIDE], "a", 0, "unresolved"),
], ids=["ok", "regression", "mismatch", "unresolved"])
def test_compare_exit_code(tmp_path, monkeypatch, capsys, base_ops, new_ops,
                           last_digest, code, want):
    monkeypatch.setattr(bench_record, "benchmark_spec",
                        lambda: {"end_to_end": METRICS})
    paths = []
    for label, ops, last in (("base", base_ops, "a"), ("new", new_ops, last_digest)):
        rec = _with_digests(_record(label, [("eh_check", s, x, 30.0)
                                            for s, x in enumerate(ops, 1)]),
                            ["a"] * 9 + [last])
        paths.append(tmp_path / f"{label}.json")
        paths[-1].write_text(bench_record.json.dumps(rec), encoding="utf-8")
    assert bench_record.main(["--compare", *map(str, paths)]) == code
    assert want in capsys.readouterr().out


class _Done:
    def __init__(self, returncode, stdout):
        self.returncode, self.stdout = returncode, stdout


@pytest.mark.parametrize("outcome, want", [
    (_Done(0, " M src/schubert/linalg.py\n?? perfbench/new.py\n"), True),
    (_Done(0, ""), False),
    (_Done(128, ""), None),           # not a git repository
    (FileNotFoundError("git"), None),  # no git at all
], ids=["changed", "clean", "not-a-repository", "no-git"])
def test_uncommitted_changes_reads_git_status(monkeypatch, tmp_path, outcome,
                                              want):
    seen = []

    def run(argv, **kwargs):
        seen.append((argv, kwargs["cwd"]))
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setattr(bench_record.subprocess, "run", run)
    assert bench_record.uncommitted_changes(tmp_path) is want
    assert seen == [(["git", "status", "--porcelain", "--", "src",
                      "perfbench"], tmp_path)]
    rec = bench_record.record("x", 25, want)
    assert rec["uncommitted_changes"] is want
    assert bench_record.tree_state(rec) == {True: "uncommitted", False: "clean",
                                            None: "unknown"}[want]


def test_recording_keeps_each_checkouts_tree_state(monkeypatch, tmp_path):
    # the checkout under test has changes, the base checkout is clean; the
    # runs themselves are stubbed and the records kept in memory
    monkeypatch.setattr(bench_record, "uncommitted_changes",
                        lambda checkout: checkout == bench_record.ROOT)
    result = {"correct": True, "attempted": 5, "failed": 0,
              "metrics": {"ops_per_s": {"value": 100.0, "unit": "1/s"}}}
    monkeypatch.setattr(bench_record, "run_once",
                        lambda checkout, w, seed, s: (ENV, "a", result))
    written = {}

    def write(rec):
        written[rec["label"]] = rec
        return Path(f"BENCH_{rec['label']}.json")

    monkeypatch.setattr(bench_record, "_write", write)
    assert bench_record.main(["--label", "x", "--workloads", "eh_check",
                              "--seeds", "1", "--base-checkout",
                              str(tmp_path)]) == 0
    assert written["x"]["uncommitted_changes"] is True
    assert written["pre_x"]["uncommitted_changes"] is False


def test_compare_ignores_the_tree_state(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_record, "benchmark_spec",
                        lambda: {"end_to_end": METRICS})
    runs = [("eh_check", s, 100.0 + s, 30.0) for s in (1, 2, 3)]
    old = _record("base", runs)
    del old["uncommitted_changes"]  # a record made before the field was kept
    assert bench_record.tree_state(old) == "unknown"
    texts = []
    for state in (None, False, True):
        new = _record("new", runs)
        new["uncommitted_changes"] = state
        paths = [tmp_path / "base.json", tmp_path / "new.json"]
        for path, rec in zip(paths, (old, new)):
            path.write_text(bench_record.json.dumps(rec), encoding="utf-8")
        assert bench_record.main(["--compare", *map(str, paths)]) == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] == texts[2]
