"""Command-line behavior: exit codes, JSON payloads, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schubert import cli
from schubert.cli import main


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


def test_bad_rational_exits_2(capsys):
    code, data = run_json(capsys, "curve", "--kind", "sl", "--m", "3",
                          "--t", "one")
    assert code == 2


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
    code, data = run_json(capsys, "verify-isotropy", "--kind", "so-odd",
                          "--n", "2", "--t", "")
    assert code == 0 and data["results"] == []


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


def test_eh_check(capsys):
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "10", "--points", "0,1")
    assert code == 0
    assert data["checked"] == 20 and data["failures"] == []
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "0", "--points", "0")
    assert code == 0 and data["checked"] == 0


def test_eh_check_rejects_large_m(capsys):
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "9",
                          "--samples", "1", "--points", "0")
    assert code == 2
    code, data = run_json(capsys, "eh-check", "--k", "2", "--m", "4",
                          "--samples", "-3", "--points", "0")
    assert code == 2 and "error" in data


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


def test_pad_colliding_fresh_exits_2(capsys):
    code, data = run_json(capsys, "pad", "--k", "2", "--m", "4",
                          "--condition", "2,4@0", "--fresh", "0,1,2")
    assert code == 2


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


def test_env_var_overrides_format(capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERT_OUTPUT", "plain")
    code, out = run_cli(capsys, "--format", "json", "curve", "--kind", "sl",
                        "--m", "3", "--t", "1/2")
    assert code == 0
    assert "point: [1, 1/2, 1/4]" in out
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)


def test_env_var_validated(capsys, monkeypatch):
    monkeypatch.setenv("SCHUBERT_OUTPUT", "yaml")
    code, _ = run_cli(capsys, "curve", "--kind", "sl", "--m", "3", "--t", "0")
    assert code == 2


def test_plain_format_flag(capsys):
    code, out = run_cli(capsys, "--format", "plain", "nilpotent", "--kind",
                        "sl", "--m", "3")
    assert code == 0
    assert "nilpotency_index: 3" in out


def test_installed_entry_point_runs():
    # the child imports the same package, also when pytest alone put it on
    # sys.path (pyproject's pythonpath)
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "schubert.cli", "curve", "--kind", "sp",
         "--n", "2", "--t", "2"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["point"] == ["1", "2", "2", "-4/3"]
