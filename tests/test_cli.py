"""Command-line behavior: exit codes, JSON payloads, determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from schubert import cli
from schubert.cli import main
from schubert.flags import GroupKind, osculating_flag
from schubert.grassmann import small_solver_gr24
from schubert.linalg import QuadExt
from schubert.wronski import EHReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_curve_frozen_payload(capsys):
    code, data = run_json(capsys, "curve", "--kind", "sp", "--n", "2", "--t", "2")
    assert code == 0
    assert data["point"] == ["1", "2", "2", "-4/3"]
    assert data["kind"] == {"type": "Sp", "n": 2}


def test_curve_sl_at_zero(capsys):
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3", "--t", "0")
    assert code == 0
    assert data["point"] == ["1", "0", "0"]


def test_unsupported_kind_exits_3(capsys):
    code, data = run_json(capsys, "curve", "--kind", "so-even", "--n", "2",
                          "--t", "1")
    assert code == 3 and "error" in data


def test_missing_size_parameter_exits_2(capsys):
    code, data = run_json(capsys, "curve", "--kind", "sp", "--t", "1")
    assert code == 2 and "error" in data


@pytest.mark.parametrize("command", [
    ["curve", "--t", "1"], ["osculating-flag", "--t", "1"],
    ["verify-isotropy", "--t", "1"], ["nilpotent"],
    ["peterson-check", "--t", "1"]])
def test_kind_commands_reject_the_other_size_option(capsys, command):
    code, data = run_json(capsys, *command, "--kind", "sl", "--m", "3",
                          "--n", "5")
    assert code == 2 and data["error"] == "--n is not used with --kind sl"
    for kind in ("sp", "so-odd", "so-even"):
        code, data = run_json(capsys, *command, "--kind", kind, "--n", "2",
                              "--m", "9")
        assert code == 2
        assert data["error"] == f"--m is not used with --kind {kind}"


def test_bad_rational_exits_2(capsys):
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "one")
    assert code == 2


def test_huge_decimal_exponent_exits_2_at_once(capsys):
    # Fraction alone spends tens of seconds building 10**30000000
    start = time.perf_counter()
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "1e30000000")
    assert code == 2 and "'1e30000000'" in data["error"]
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "1", "--points=1e3000000")
    assert code == 2 and "'1e3000000'" in data["error"]
    assert time.perf_counter() - start < 5.0


def test_exact_output_has_no_digit_limit(capsys):
    # t**2 = 10**6000 has more digits than Python prints from an int by
    # default; the output must still be exact
    start = time.perf_counter()
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "1e3000")
    assert code == 0
    assert data["point"] == ["1", "1" + "0" * 3000, "1" + "0" * 6000]
    assert time.perf_counter() - start < 5.0
    # while an input literal of that size is still refused
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "1" * 5000)
    assert (code, data["error_type"]) == (2, "ValueError")


@pytest.mark.parametrize("fmt", ["json", "plain"])
def test_quadext_d_past_the_digit_limit_prints_in_full(capsys, fmt):
    # with a point at 1e900 the solutions' d has more digits than Python
    # prints from an int by default, in the JSON number and the plain line
    flags = [osculating_flag(GroupKind.sl(4), Fraction(t))
             for t in (0, 1, 2, 10**900)]
    want = {x.d for V in small_solver_gr24(flags)
            for row in V.basis.to_rows() for x in row if type(x) is QuadExt}
    assert len(want) == 1 and len(str(Decimal(*want))) > 4300
    limit = sys.get_int_max_str_digits()
    code, out = run_cli(capsys, "--format", fmt, "solve-four-lines",
                        "--osculating", "--points=0,1,2,1e900")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    if fmt == "json":
        data = json.loads(out, parse_int=lambda s: int(Decimal(s)))
        got = {x["d"] for sol in data["solutions"] for row in sol["basis"]
               for x in row if isinstance(x, dict)}
    else:
        got = {int(Decimal(line.split(": ")[1])) for line in out.splitlines()
               if line.strip().startswith("d: ")}
    assert got == want


def test_errors_name_their_type(capsys, tmp_path):
    code, data = run_json(capsys, "curve", "--kind", "so-even", "--n", "2",
                          "--t", "1")
    assert (code, data["error_type"]) == (3, "UnsupportedGroup")
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "one")
    assert (code, data["error_type"]) == (2, "ValueError")
    code, data = run_json(capsys, "dim-report", str(tmp_path / "absent.json"))
    assert (code, data["error_type"]) == (2, "FileNotFoundError")
    code, data = run_json(capsys, "pad", "--k", "2", "--m", "4",
                          "--condition", "1,2@0", "--condition", "2,4@1",
                          "--fresh", "5")
    assert (code, data["error_type"]) == (4, "NegativeExpectedDimension")
    assert list(data) == ["error", "error_type"]


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_osculating_flag_payload(capsys):
    code, data = run_json(capsys, "osculating-flag", "--kind", "sl", "--m", "2",
                          "--t", "3")
    assert code == 0
    assert data["flag"]["basis"] == [["1", "0"], ["3", "1"]]


def test_verify_isotropy_all_true(capsys):
    code, data = run_json(capsys, "verify-isotropy", "--kind", "sp", "--n", "3",
                          "--t", "0,1,-1,1/2")
    assert code == 0
    assert data["all_isotropic"] is True
    assert [r["t"] for r in data["results"]] == ["0", "1", "-1", "1/2"]


def test_verify_isotropy_empty_list(capsys):
    # a verdict over no points would rest on zero checks
    for command in ("verify-isotropy", "peterson-check"):
        for points in ("", ","):
            code, data = run_json(capsys, command, "--kind", "so-odd",
                                  "--n", "2", "--t", points)
            assert code == 2 and "--t" in data["error"], (command, points)


def test_verify_isotropy_needs_a_form_before_points(capsys):
    # SL(m) preserves no form: exit 3 even when the point list is empty
    code, data = run_json(capsys, "verify-isotropy", "--kind", "sl",
                          "--m", "3", "--t", "")
    assert (code, data["error_type"]) == (3, "UnsupportedGroup")


def test_point_verdicts_exit_1_when_a_check_fails(capsys, monkeypatch):
    real = cli.flags_equal
    calls = iter([True, False, True])
    monkeypatch.setattr(cli, "flags_equal", lambda a, b: real(a, b) and next(calls))
    code, data = run_json(capsys, "peterson-check", "--kind", "sp", "--n", "2",
                          "--t", "0,1,2")
    assert code == 1 and data["all_equal"] is False
    assert [r["equal"] for r in data["results"]] == [True, False, True]
    monkeypatch.setattr(cli, "is_isotropic_flag", lambda flag, form: False)
    code, data = run_json(capsys, "verify-isotropy", "--kind", "sp", "--n", "2",
                          "--t", "0")
    assert code == 1 and data["all_isotropic"] is False


def test_nilpotent_payloads(capsys):
    code, data = run_json(capsys, "nilpotent", "--kind", "sp", "--n", "2")
    assert code == 0
    assert data["nilpotency_index"] == 4 and data["principal_in_sl"] is True
    code, data = run_json(capsys, "nilpotent", "--kind", "so-even", "--n", "3")
    assert code == 0
    assert data["nilpotency_index"] == 5 and data["principal_in_sl"] is False
    code, data = run_json(capsys, "nilpotent", "--kind", "sl", "--m", "5")
    assert data["nilpotency_index"] == 5


def test_peterson_check(capsys):
    code, data = run_json(capsys, "peterson-check", "--kind", "so-odd",
                          "--n", "2", "--t", "0,1,-2/3")
    assert code == 0 and data["all_equal"] is True


def test_solve_four_lines_osculating(capsys):
    code, data = run_json(capsys, "solve-four-lines", "--osculating",
                          "--points", "0,1,2,3")
    assert code == 0
    assert data["count"] == 2 and data["all_transverse"] is True
    for sol in data["solutions"]:
        cert = sol["certificate"]
        assert cert == {"transverse": True, "tangent_codim": 4, "codim_sum": 4}


def test_solve_four_lines_repeated_point_exits_4(capsys):
    code, data = run_json(capsys, "solve-four-lines", "--osculating",
                          "--points", "0,1,2,2")
    assert code == 4 and "error" in data


def test_solve_four_lines_random_seed(capsys):
    code, data = run_json(capsys, "solve-four-lines", "--isotropic-sp4",
                          "--seed", "17")
    assert code == 0
    assert data["count"] == 2 and data["all_transverse"] is True


def test_solve_four_lines_mode_required(capsys):
    code, data = run_json(capsys, "solve-four-lines", "--points", "0,1,2,3")
    assert code == 2
    code, data = run_json(capsys, "solve-four-lines", "--osculating",
                          "--isotropic-sp4", "--points", "0,1,2,3")
    assert code == 2


def test_solve_four_lines_rejects_an_option_its_mode_ignores(capsys):
    code, data = run_json(capsys, "solve-four-lines", "--isotropic-sp4",
                          "--points", "0,1,2,3")
    assert code == 2 and "--points" in data["error"]
    code, data = run_json(capsys, "solve-four-lines", "--osculating",
                          "--points", "0,1,2,3", "--seed", "5")
    assert code == 2 and "--seed" in data["error"]


@pytest.mark.parametrize("argv, message", [
    (["solve-four-lines", "--osculating"], "--osculating requires --points"),
    (["solve-four-lines", "--osculating", "--points", "0,1,2"],
     "--points needs exactly four rational values"),
    (["pad", "--k", "2", "--m", "4", "--condition", "1,3"],
     "condition must look like 'i1,i2,...@point': '1,3'"),
], ids=["osculating-without-points", "three-points", "condition-without-point"])
def test_argument_errors_exit_2(capsys, argv, message):
    code, data = run_json(capsys, *argv)
    assert code == 2
    assert data == {"error": message, "error_type": "ValueError"}


def test_dim_report_index_conditions_need_one_step(capsys, tmp_path):
    path = tmp_path / "two_step.json"
    path.write_text(json.dumps({"ambient": {"m": 5, "dims": [2, 3]},
                                "conditions": [{"indices": [2, 4]}]}))
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 2
    assert data == {"error": "index conditions need a single-step ambient",
                    "error_type": "ValueError"}


def test_eh_check_exits_1_on_a_failure(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_eh_report",
                        lambda plane, W, t: EHReport(1, 2, False))
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "2", "--points", "0,1/2")
    assert code == 1
    assert data["all_equal"] is False and data["checked"] == 4
    assert data["failures"] == [
        {"sample": s, "t": t, "codim": 1, "wronski_order": 2}
        for s in range(2) for t in ("0", "1/2")]


def test_eh_check(capsys):
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "10", "--points", "0,1")
    assert code == 0
    assert data["checked"] == 20 and data["failures"] == []
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "0", "--points", "0")
    assert code == 2 and "--samples" in data["error"]
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "10", "--points", "")
    assert code == 2 and "--points" in data["error"]


def test_eh_check_rejects_large_m(capsys):
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "9",
                          "--samples", "1", "--points", "0")
    assert code == 2
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "-3", "--points", "0")
    assert code == 2 and "error" in data


def test_eh_check_rejects_too_many_samples(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("drew a plane")

    # validation alone: no plane is ever drawn for a rejected size
    monkeypatch.setattr(cli, "random_plane", refuse)
    limit = cli.MAX_EH_SAMPLES
    assert limit >= 100  # the default
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", str(limit + 1), "--points", "0")
    assert code == 2 and str(limit) in data["error"]
    with pytest.raises(AssertionError, match="drew a plane"):
        main(["eh-check", "--k", "2", "--m", "4", "--samples", str(limit),
              "--points", "0"])


def test_dim_report_flag_manifold(capsys, tmp_path):
    problem = {"ambient": {"m": 5, "dims": [1, 3]},
               "conditions": [{"perm": [3, 2, 5, 1, 4]},
                              {"perm": [2, 1, 4, 3, 5]},
                              {"perm": [2, 1, 4, 3, 5]}]}
    path = tmp_path / "fl135.json"
    path.write_text(json.dumps(problem))
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 0
    assert data == {"dim": 8, "codims": [5, 2, 2], "expected": -1,
                    "empty_for_general": True}


def test_dim_report_grassmannian(capsys, tmp_path):
    problem = {"ambient": {"m": 4, "dims": [2]},
               "conditions": [{"indices": [2, 4]}] * 4}
    path = tmp_path / "gr24.json"
    path.write_text(json.dumps(problem))
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 0
    assert data["dim"] == 4 and data["expected"] == 0
    assert data["empty_for_general"] is False


def test_dim_report_no_conditions(capsys, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"ambient": {"m": 5, "dims": [1, 3]}}))
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 0 and data["expected"] == data["dim"] == 8


def test_dim_report_malformed_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert run_cli(capsys, "dim-report", str(path))[0] == 2
    assert run_cli(capsys, "dim-report", str(tmp_path / "missing.json"))[0] == 2


def test_dim_report_huge_m_exits_2(capsys, tmp_path):
    # a permutation whose length is not m is refused before anything of
    # size m is built
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"ambient": {"m": 10**30, "dims": [1]},
                                "conditions": [{"perm": [2, 1]}]}))
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 2 and "permutation" in data["error"]


@pytest.mark.parametrize("problem, field", [
    ({"ambient": {"m": 5, "dims": "13"}}, "ambient.dims"),
    ({"ambient": {"m": 5, "dims": [1, 3]},
      "conditions": [{"perm": "32514"}]}, "conditions[0].perm"),
    ({"ambient": {"m": 5, "dims": [1, 3]},
      "conditions": [{"perm": [3, 2.9, 5, 1, 4]}]}, "conditions[0].perm[1]"),
    ({"ambient": {"m": 4.9, "dims": [2]}}, "ambient.m"),
    ({"ambient": {"m": 4, "dims": [True]}}, "ambient.dims[0]"),
    ({"ambient": {"m": 4, "dims": [2]},
      "conditions": [{"indices": [2, 4]}, {"indices": [True, 4]}]},
     "conditions[1].indices[0]"),
    ({"ambient": {"m": 4, "dims": [2]}, "conditions": ""}, "conditions"),
    ([1, 2], "the top level"),
    ({"ambient": [5, [2]]}, "ambient must"),
    ({"dims": [2]}, "ambient must"),
    ({"ambient": {"m": 4}}, "ambient.dims"),
    ({"ambient": {"m": 4, "dims": [2]},
      "conditions": [{"indices": [2, 4], "perm": [1, 2, 3, 4]}]},
     "conditions[0] needs"),
    ({"ambient": {"m": 4, "dims": [2]}, "conditions": [{}]},
     "conditions[0] needs"),
])
def test_dim_report_takes_only_json_integers_and_arrays(capsys, tmp_path,
                                                        problem, field):
    # int() and iteration used to read each of these as a different problem,
    # a condition with both keys as its "perm" alone, and indexing a list
    # by key failed with an error that named no field
    path = tmp_path / "loose.json"
    path.write_text(json.dumps(problem))
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 2 and field in data["error"], data


def test_dim_report_deep_nesting_exits_2(capsys, tmp_path):
    # exit 1 is kept for a falsified claim, not for a RecursionError
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, data = run_json(capsys, "dim-report", str(path))
    assert code == 2 and str(path) in data["error"], data


def test_dim_report_long_complete_flag(capsys, tmp_path):
    # the pairwise sum over dimension gaps took seconds at this size
    m = 20_001
    path = tmp_path / "complete.json"
    path.write_text(json.dumps({"ambient": {"m": m, "dims": list(range(1, m))}}))
    start = time.perf_counter()
    code, data = run_json(capsys, "dim-report", str(path))
    assert time.perf_counter() - start < 5.0
    assert code == 0 and data["dim"] == m * (m - 1) // 2 == 200_010_000


def test_pad_command(capsys):
    code, data = run_json(capsys, "pad", "--k", "2", "--m", "4",
                          "--condition", "2,4@0", "--condition", "2,4@1",
                          "--fresh", "2,3")
    assert code == 0
    assert data["expected_before"] == 2 and data["expected_after"] == 0
    assert [c["point"] for c in data["conditions"]] == ["0", "1", "2", "3"]


def test_pad_negative_expected_exits_4(capsys):
    code, data = run_json(capsys, "pad", "--k", "2", "--m", "4",
                          "--condition", "1,2@0", "--condition", "2,4@1",
                          "--fresh", "5")
    assert code == 4


@pytest.mark.parametrize("k, m", [(-1, 5), (0, 5), (3, 2), (4, 4)])
def test_pad_with_k_outside_1_to_m_minus_1_exits_2(capsys, k, m):
    code, data = run_json(capsys, "pad", "--k", str(k), "--m", str(m))
    assert code == 2
    assert data == {"error": f"need 1 <= k < m, got k={k}, m={m}",
                    "error_type": "ValueError"}


def test_pad_too_few_fresh_points_exits_2_in_small_memory(capsys):
    # the k indices of the padding condition are built only once the fresh
    # points suffice, so a large k without them costs no memory
    tracemalloc.start()
    try:
        code, data = run_json(capsys, "pad", "--k", "1000000",
                              "--m", "1000001")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert data == {"error": "need 1000000 fresh points, got 0",
                    "error_type": "ValueError"}
    assert peak < 1_000_000


def test_pad_colliding_fresh_exits_2(capsys):
    code, data = run_json(capsys, "pad", "--k", "2", "--m", "4",
                          "--condition", "2,4@0", "--fresh", "0,1,2")
    assert code == 2


def test_flags_commands_match_recorded_bytes(capsys):
    # stdout recorded from the Fraction-matrix and PolyQ-derivative
    # implementation of the flags layer; entries print exactly, so a wrong
    # value anywhere is a byte difference
    golden = Path(__file__).with_name("data") / "flags_cli_golden.json"
    for case in json.loads(golden.read_text(encoding="utf-8")):
        code, out = run_cli(capsys, *case["argv"])
        assert code == 0
        assert out == case["stdout"], case["argv"]


def test_elimination_commands_match_recorded_bytes(capsys):
    # stdout and exit code recorded from the implementation with separate
    # Bareiss, Gauss-Jordan, det and column-reduction loops: Q(sqrt d)
    # solutions and their certificates, a degenerate instance, and
    # Eisenbud-Harris verdicts; the last, at points u/v with v != 1, from
    # the one that divided the Wronskian into Fractions before its root
    # orders
    golden = Path(__file__).with_name("data") / "engine_cli_golden.json"
    for case in json.loads(golden.read_text(encoding="utf-8")):
        code, out = run_cli(capsys, *case["argv"])
        assert code == case["code"], case["argv"]
        assert out == case["stdout"], case["argv"]


def test_plain_output_matches_recorded_bytes(capsys, tmp_path):
    # `--format plain` stdout recorded from the three-helper renderer, for
    # every argv of the two JSON goldens, a curve, a dim-report (its problem
    # file written here), a pad and an error payload: nested objects and
    # arrays, flat and empty arrays, booleans and Q(sqrt d) entries
    golden = Path(__file__).with_name("data") / "plain_cli_golden.json"
    for case in json.loads(golden.read_text(encoding="utf-8")):
        argv = list(case["argv"])
        if "problem" in case:
            path = tmp_path / "problem.json"
            path.write_text(json.dumps(case["problem"]))
            argv.append(str(path))
        code, out = run_cli(capsys, "--format", "plain", *argv)
        assert code == case["code"], case["argv"]
        assert out == case["stdout"], case["argv"]


def test_identical_invocations_are_byte_identical(capsys):
    _, first = run_cli(capsys, "solve-four-lines", "--isotropic-sp4",
                       "--seed", "3")
    _, second = run_cli(capsys, "solve-four-lines", "--isotropic-sp4",
                        "--seed", "3")
    assert first == second


def test_kind_commands_reject_too_large_ambient_dimension(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built a flag before the size check")

    # the check must fire before any construction
    monkeypatch.setattr(cli, "curve_point", refuse)
    monkeypatch.setattr(cli, "osculating_flag", refuse)
    limit = cli.MAX_AMBIENT_DIM
    code, data = run_json(capsys, "curve", "--kind", "sl",
                          "--m", str(limit + 1), "--t", "0")
    assert code == 2 and str(limit) in data["error"]
    code, data = run_json(capsys, "osculating-flag", "--kind", "so-odd",
                          "--n", str(limit // 2), "--t", "1")
    assert code == 2 and str(limit + 1) in data["error"]


def test_main_reuses_one_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("built a parser per call")

    monkeypatch.setattr(cli, "build_parser", refuse)
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "1")
    assert code == 0 and data["point"] == ["1", "1", "1"]


def test_plain_format_flag(capsys):
    code, out = run_cli(capsys, "--format", "plain", "nilpotent", "--kind",
                        "sl", "--m", "3")
    assert code == 0
    assert "nilpotency_index: 3" in out


def test_format_goes_before_the_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nilpotent", "--kind", "sl", "--m", "3", "--format", "plain"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def _run_module(*argv):
    """Run ``python -m schubert.cli argv`` in a child process, which imports
    the same package, also when pytest alone put it on sys.path (pyproject's
    pythonpath); entry() hands main's exit code to the shell."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "schubert.cli", *argv],
                          capture_output=True, text=True, env=env)


def test_installed_entry_point_runs():
    proc = _run_module("curve", "--kind", "sp", "--n", "2", "--t", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["point"] == ["1", "2", "2", "-4/3"]


def test_installed_entry_point_exits_with_mains_code():
    proc = _run_module("verify-isotropy", "--kind", "sl", "--m", "3",
                       "--t", "1")
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error_type"] == "UnsupportedGroup"
