"""Full stdout digests past `bench/golden.json`, one row each in
`census.json`.  Rows marked `"tier1": false` take seconds each and run
only when asked for: `pytest -m slow tests/test_census.py`."""

import hashlib
import json
from pathlib import Path

import pytest

from torex.cli import main

with open(Path(__file__).with_name("census.json"), encoding="utf-8") as fh:
    ROWS = json.load(fh)["rows"]


@pytest.mark.parametrize("command, want", [
    pytest.param(row["command"], row["sha256"], id=row["command"],
                 marks=() if row["tier1"] else pytest.mark.slow)
    for row in ROWS
])
def test_stdout_digest(capsysbinary, monkeypatch, command, want):
    monkeypatch.delenv("EXCESS_CACHE_DIR", raising=False)
    code = main(command.split())
    got = hashlib.sha256(capsysbinary.readouterr().out).hexdigest()
    assert (code, got) == (0, want), "%s: stdout sha256 %s, census %s (exit %d)" % (
        command, got, want, code)
