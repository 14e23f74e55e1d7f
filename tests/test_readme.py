"""The command examples in README.md run as documented."""

import json
import re
import shlex
from pathlib import Path

from schubert.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(
    encoding="utf-8")


def _block(lang, containing):
    blocks = re.findall(rf"```{lang}\n(.*?)```", README, re.S)
    return next(b for b in blocks if containing in b)


def test_readme_commands_run(capsys, monkeypatch, tmp_path):
    # dim-report's example input, under the name the command block uses
    (tmp_path / "problem.json").write_text(_block("json", '"ambient"'))
    monkeypatch.chdir(tmp_path)
    lines = [line for line in _block("sh", "schubert ").splitlines()
             if line.startswith("schubert ")]
    assert len(lines) >= 10
    for line in lines:
        code = main(shlex.split(line)[1:])
        out = capsys.readouterr().out
        assert code == 0, line
        assert isinstance(json.loads(out), dict), line


def test_readme_dim_report_answer(capsys, tmp_path):
    path = tmp_path / "example.json"
    path.write_text(_block("json", '"ambient"'))
    assert main(["dim-report", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    stated = re.search(r"answers `(\{.*?\})`", README, re.S).group(1)
    assert out == json.loads(stated) == {
        "dim": 8, "codims": [5, 2, 2], "expected": -1,
        "empty_for_general": True}
