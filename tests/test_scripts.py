"""Smoke runs of the scripts in scripts/, so API drift in them fails here."""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_search_caps_runs(monkeypatch, capsys):
    assert _load("search_caps", monkeypatch).main(["--geometry", "2,4", "--seeds", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("PG(2,4): 5 greedy runs in ")
    assert lines[-1].startswith("best: n=6 at seed ")


def test_pg12_stress_runs(monkeypatch, capsys):
    """A 200-point cap of PG(12,4) in 4 windows on 2 workers: a cap, not complete, exit 1.

    Its first ten witnesses lie in blocks 0, 1 and 2.
    """
    assert _load("pg12_stress", monkeypatch).main(["--size", "200", "--shards", "4", "--workers", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("grew a 200-point cap (seed 0) in ")
    assert json.loads("\n".join(lines[1:-1]))["uncovered_sample"] == [1, 4, 5, 6, 7, 16, 17, 18, 19, 20]
    assert lines[-1].startswith("a cap, 22309805 uncovered; 59700 marks in ")
    assert lines[-1].endswith(", peak window memory 4194304 bytes")


@pytest.mark.parametrize(
    "script, argv, message",
    [
        ("search_caps", ["--geometry", "3"], "expected r,q but got '3'"),
        ("search_caps", ["--geometry", "2,4", "--seeds", "0"],
         "expected a positive integer but got '0'"),
        ("pg12_stress", ["--shards", "0"], "expected a positive integer but got '0'"),
    ],
)
def test_script_usage_errors(script, argv, message, monkeypatch, capsys):
    with pytest.raises(SystemExit) as exc:
        _load(script, monkeypatch).main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and message in err
