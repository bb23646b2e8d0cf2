"""Replay the benchmark's recorded CLI commands: exit code and stdout must
match the golden answers byte for byte."""

import json
from pathlib import Path

import pytest

from ordo.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden" / "answers.json").read_text())
CLI_CASES = [(json.loads(key)["argv"], json.loads(answer))
             for key, answer in sorted(GOLDEN.items()) if json.loads(key)["op"] == "cli"]


@pytest.mark.parametrize("argv,recorded", CLI_CASES, ids=[argv[0] for argv, _ in CLI_CASES])
def test_cli_matches_golden(argv, recorded, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(argv))
    assert {"exit": code, "stdout": capsys.readouterr().out} == recorded
