"""End-to-end CLI behaviour: exit codes, formats, and option handling."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from capcheck import Cap, Geometry, check_oracle, random_cap, write_cap
from capcheck.cli import EXIT_PIPE, main

MASKED = {"elapsed_ms", "shards", "peak_coverage_bytes"}


def run_cli(argv, capsys, monkeypatch=None, stdin=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture
def oval_file(tmp_path, hyperoval):
    p = tmp_path / "oval.txt"
    p.write_text(write_cap(hyperoval))
    return str(p)


@pytest.fixture
def frame4_file(tmp_path, frame4):
    p = tmp_path / "frame4.txt"
    p.write_text(write_cap(frame4))
    return str(p)


@pytest.fixture
def bad_file(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0 0 1\n0 1 0\n0 1 1\n")  # three points of one line
    return str(p)


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_ok(oval_file, capsys):
    code, out, _ = run_cli(["validate", "--geometry", "2,4", oval_file], capsys)
    assert code == 0
    assert out.strip() == "cap: 6 points in PG(2,4)"


def test_validate_collinear(bad_file, capsys):
    code, out, _ = run_cli(["validate", "--geometry", "2,4", bad_file], capsys)
    assert code == 2
    assert "not a cap" in out and "collinear points" in out


def test_validate_json(oval_file, bad_file, capsys):
    code, out, _ = run_cli(
        ["validate", "--geometry", "2,4", "--format", "json", oval_file], capsys
    )
    assert code == 0
    assert json.loads(out) == {
        "valid": True,
        "n": 6,
        "geometry": "PG(2,4)",
        "witness": None,
    }
    code, out, _ = run_cli(
        ["validate", "--geometry", "2,4", "--format", "json", bad_file], capsys
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["valid"] is False
    assert sorted(payload["witness"]) == payload["witness"]
    assert len(payload["witness"]) == 3


def test_validate_from_stdin(capsys, monkeypatch, hyperoval):
    code, out, _ = run_cli(
        ["validate", "--geometry", "2,4", "-"],
        capsys,
        monkeypatch,
        stdin=write_cap(hyperoval),
    )
    assert code == 0 and "6 points" in out


def test_validate_packed_input(tmp_path, hyperoval, capsys):
    p = tmp_path / "oval.hex"
    p.write_text(write_cap(hyperoval, fmt="packed"))
    code, _, _ = run_cli(["validate", "--geometry", "2,4", str(p)], capsys)
    assert code == 0


def test_validate_garbage(tmp_path, capsys):
    p = tmp_path / "junk.txt"
    p.write_text("1 2\n")
    code, _, err = run_cli(["validate", "--geometry", "2,4", str(p)], capsys)
    assert code == 3
    assert "parse error" in err


def test_header_geometry_mismatch(tmp_path, hyperoval, capsys):
    p = tmp_path / "oval.txt"
    p.write_text(write_cap(hyperoval, header=True))
    code, _, err = run_cli(["validate", "--geometry", "3,4", str(p)], capsys)
    assert code == 3
    assert "PG(2,4)" in err


def test_extend_past_the_byte_map_bound_exits_4(tmp_path, capsys):
    """PG(15,4): the bit-map of a check fits the bound, growth's byte per code does not."""
    p = tmp_path / "two.hex"
    p.write_text("1\n4\n")
    code, out, err = run_cli(["extend", "--geometry", "15,4", str(p)], capsys)
    assert code == 4 and not out
    assert "bound exceeded" in err and "one per code" in err


def test_closed_stdout_ends_quietly(tmp_path):
    """`capcheck check ... | head -1`: no input error, no traceback."""
    p = tmp_path / "cap.txt"
    p.write_text(write_cap(random_cap(Geometry(5, 4), 20, seed=0)))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "capcheck", "check", "--geometry", "5,4", "--all-witnesses", str(p)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == EXIT_PIPE


def test_unwritable_output_exits_3(frame4_file, tmp_path, capsys):
    dest = tmp_path / "no-such-dir" / "report.txt"
    code, _, err = run_cli(["check", "--geometry", "2,4", "--output", str(dest), frame4_file], capsys)
    assert code == 3
    assert "cannot write output" in err


def test_missing_file(capsys):
    code, _, err = run_cli(["validate", "--geometry", "2,4", "/no/such/file"], capsys)
    assert code == 3
    assert "cannot read input" in err


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def test_check_complete(oval_file, capsys):
    code, out, _ = run_cli(["check", "--geometry", "2,4", oval_file], capsys)
    assert code == 0
    assert "complete: yes" in out


def test_check_incomplete_human(frame4_file, capsys):
    code, out, _ = run_cli(["check", "--geometry", "2,4", frame4_file], capsys)
    assert code == 1
    assert "complete: no" in out
    assert "uncovered_count: 2" in out
    assert "0x1b (1 2 3)" in out  # 27 decoded
    assert "0x1e (1 3 2)" in out


def test_check_json_report(frame4_file, capsys):
    code, out, _ = run_cli(
        ["check", "--geometry", "2,4", "--format", "json", frame4_file], capsys
    )
    assert code == 1
    rep = json.loads(out)
    assert set(rep) == {
        "complete",
        "n",
        "geometry",
        "algorithm",
        "shards",
        "uncovered_count",
        "uncovered_sample",
        "pairs_processed",
        "elapsed_ms",
        "peak_coverage_bytes",
    }
    assert rep["complete"] is False
    assert rep["n"] == 4
    assert rep["geometry"] == "PG(2,4)"
    assert rep["algorithm"] == "fast"
    assert rep["uncovered_sample"] == [27, 30]
    assert rep["pairs_processed"] == 6


def test_check_json_witnesses_verify(frame4_file, frame4, capsys):
    _, out, _ = run_cli(
        ["check", "--geometry", "2,4", "--format", "json", frame4_file], capsys
    )
    truth = set(check_oracle(frame4).uncovered.tolist())
    for code in json.loads(out)["uncovered_sample"]:
        assert code in truth


def test_check_witness_truncation(tmp_path, capsys):
    p = tmp_path / "empty.txt"
    p.write_text("# no points\n")
    argv = ["check", "--geometry", "2,4", "--format", "json", str(p)]
    rep = json.loads(run_cli(argv, capsys)[1])
    assert rep["uncovered_count"] == 21
    assert len(rep["uncovered_sample"]) == 10
    rep = json.loads(run_cli(argv + ["--all-witnesses"], capsys)[1])
    assert len(rep["uncovered_sample"]) == 21


@pytest.mark.parametrize(
    "options",
    [["--algorithm", "fast"], ["--algorithm", "naive"], ["--algorithm", "oracle"],
     ["--shards", "4", "--workers", "2"]],
    ids=["fast", "naive", "oracle", "shards"],
)
def test_check_rejects_non_cap(bad_file, options, capsys):
    code, out, _ = run_cli(["check", "--geometry", "2,4", *options, bad_file], capsys)
    assert code == 2
    assert out == "not a cap: collinear points 0x1, 0x4, 0x5\n"


def test_check_no_validate_skips(bad_file, capsys):
    code, _, _ = run_cli(
        ["check", "--geometry", "2,4", "--no-validate", bad_file], capsys
    )
    assert code in (0, 1)


@pytest.mark.parametrize("algorithm", ["fast", "naive", "oracle"])
def test_check_algorithms_same_verdict(frame4_file, algorithm, capsys):
    code, out, _ = run_cli(
        [
            "check", "--geometry", "2,4", "--algorithm", algorithm,
            "--format", "json", frame4_file,
        ],
        capsys,
    )
    assert code == 1
    rep = json.loads(out)
    assert rep["algorithm"] == algorithm
    assert rep["uncovered_sample"] == [27, 30]


def test_check_split_grid_masked_identical(frame4_file, capsys):
    base = None
    for shards in ("1", "2", "4"):
        for workers in ("1", "2"):
            code, out, _ = run_cli(
                [
                    "check", "--geometry", "2,4", "--format", "json",
                    "--shards", shards, "--workers", workers, frame4_file,
                ],
                capsys,
            )
            assert code == 1
            rep = {k: v for k, v in json.loads(out).items() if k not in MASKED}
            if base is None:
                base = rep
            assert rep == base


def test_check_oracle_large_geometry_exits_4(tmp_path, capsys):
    from capcheck import Geometry, encode_point

    g = Geometry(12, 4)
    pts = sorted(encode_point([0] * i + [1] + [0] * (12 - i), g) for i in range(3))
    p = tmp_path / "units.txt"
    p.write_text(write_cap(Cap(g, tuple(pts))))
    code, _, err = run_cli(
        ["check", "--geometry", "12,4", "--algorithm", "oracle", str(p)], capsys
    )
    assert code == 4
    assert "bound exceeded" in err


def test_extend_64_bit_codes_exits_4(tmp_path, capsys):
    """PG(7,256) codes take exactly 64 bits; its map is past the bound."""
    p = tmp_path / "two.hex"
    p.write_text("1\n100\n")
    code, _, err = run_cli(["extend", "--geometry", "7,256", str(p)], capsys)
    assert code == 4
    assert "bound exceeded" in err


@pytest.mark.parametrize(
    "options", [[], ["--shards", "4", "--workers", "2"], ["--algorithm", "naive"]], ids=["fast", "split", "naive"]
)
def test_check_past_the_point_flag_bound_exits_4(tmp_path, capsys, options):
    """PG(7,256) has 7.2e16 points: their flags, a bit each or a byte each for naive, are refused before any is allocated."""
    p = tmp_path / "three.hex"
    p.write_text("1\n100\n10000\n")
    code, out, err = run_cli(["check", "--geometry", "7,256", *options, str(p)], capsys)
    assert code == 4 and not out
    points = Geometry(7, 256).point_count
    flags = points if "naive" in options else -(-points // 8)
    assert err == f"capcheck: bound exceeded: PG(7,256) needs {flags} bytes of per-point flags (> {1 << 31})\n"


def test_check_output_file(frame4_file, tmp_path, capsys):
    dest = tmp_path / "report.json"
    code, out, _ = run_cli(
        [
            "check", "--geometry", "2,4", "--format", "json",
            "--output", str(dest), frame4_file,
        ],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert json.loads(dest.read_text())["uncovered_sample"] == [27, 30]


# ---------------------------------------------------------------------------
# extend
# ---------------------------------------------------------------------------


def test_extend_from_empty(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["extend", "--geometry", "2,4", "-"], capsys, monkeypatch, stdin=""
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "# PG(2,4)"
    assert len(lines) == 7  # header + a complete 6-cap


def test_extend_deterministic(capsys, monkeypatch):
    runs = [
        run_cli(
            ["extend", "--geometry", "2,4", "--seed", "5", "-"],
            capsys,
            monkeypatch,
            stdin="",
        )[1]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]


def test_extend_complete_cap_unchanged(oval_file, hyperoval, capsys):
    code, out, _ = run_cli(["extend", "--geometry", "2,4", oval_file], capsys)
    assert code == 0
    assert out.rstrip("\n") == write_cap(hyperoval, header=True).rstrip("\n")


def test_extend_writes_output_file(tmp_path, frame4_file, capsys):
    dest = tmp_path / "grown.txt"
    code, _, _ = run_cli(
        ["extend", "--geometry", "2,4", "--output", str(dest), frame4_file], capsys
    )
    assert code == 0
    validate = run_cli(["check", "--geometry", "2,4", str(dest)], capsys)
    assert validate[0] == 0  # grown cap is complete


def test_extend_non_cap(bad_file, capsys):
    code, _, err = run_cli(["extend", "--geometry", "2,4", bad_file], capsys)
    assert code == 2
    assert "not a cap" in err


# ---------------------------------------------------------------------------
# quantum
# ---------------------------------------------------------------------------


def test_quantum_hyperoval(oval_file, capsys):
    code, out, _ = run_cli(["quantum", "--geometry", "2,4", oval_file], capsys)
    assert code == 0
    assert "is_quantum_cap: True" in out


def test_quantum_frame(frame4_file, capsys):
    code, out, _ = run_cli(
        ["quantum", "--geometry", "2,4", "--format", "json", frame4_file], capsys
    )
    assert code == 1
    verdict = json.loads(out)
    assert verdict["is_quantum_cap"] is False
    assert verdict["spans_space"] is True


def test_quantum_non_cap(bad_file, capsys):
    assert run_cli(["quantum", "--geometry", "2,4", bad_file], capsys)[0] == 2


def test_quantum_wrong_field(tmp_path, capsys):
    p = tmp_path / "fano.txt"
    p.write_text("1 0 0\n0 1 0\n0 0 1\n")
    code, _, err = run_cli(["quantum", "--geometry", "2,2", str(p)], capsys)
    assert code == 3
    assert "GF(4)" in err


# ---------------------------------------------------------------------------
# usage and configuration errors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["check"],  # missing --geometry
        ["check", "--geometry", "2", "x.txt"],
        ["check", "--geometry", "a,b", "x.txt"],
        ["check", "--geometry", "2,4", "--algorithm", "magic", "x.txt"],
        ["frobnicate", "--geometry", "2,4"],
        ["check", "--geometry", "2,4", "--frobnicate", "x.txt"],
        # these read a complete cap from stdin, so only the option can fail
        ["check", "--geometry", "2,4", "--shards", "0"],
        ["check", "--geometry", "2,4", "--shards", "-3"],
        ["check", "--geometry", "2,4", "--workers", "0"],
        # shards and workers apply only to the fast checker
        ["check", "--geometry", "2,4", "--algorithm", "naive", "--shards", "4"],
        ["check", "--geometry", "2,4", "--algorithm", "naive", "--workers", "2"],
        ["check", "--geometry", "2,4", "--algorithm", "oracle", "--shards", "4"],
        ["check", "--geometry", "2,4", "--algorithm", "oracle", "--workers", "2"],
        ["check", "--geometry", "2,4", "--shards", "abc"],  # not an integer
    ],
)
def test_usage_errors_exit_3(argv, capsys, monkeypatch, hyperoval):
    code, _, err = run_cli(argv, capsys, monkeypatch, stdin=write_cap(hyperoval))
    assert code == 3 and "error: " in err
    if "abc" in argv:
        assert "--shards: expected a positive integer but got 'abc'" in err


def test_bench_is_not_a_command(oval_file, capsys):
    code, _, err = run_cli(["bench", "--geometry", "2,4", oval_file], capsys)
    assert code == 3
    assert "invalid choice: 'bench'" in err


def test_unsupported_geometry_exits_3(oval_file, capsys):
    for geometry in ("2,9", "1,512"):
        code, _, err = run_cli(["validate", "--geometry", geometry, oval_file], capsys)
        assert code == 3


def test_codes_over_64_bits_exit_4(oval_file, capsys):
    """PG(8,256) needs 72-bit codes: refused when the geometry is built."""
    code, _, err = run_cli(["validate", "--geometry", "8,256", oval_file], capsys)
    assert code == 4
    assert "bound exceeded" in err


def test_explicit_modulus(oval_file, capsys):
    ok = ["validate", "--geometry", "2,4", "--modulus", "7", oval_file]
    assert run_cli(ok, capsys)[0] == 0
    bad = ["validate", "--geometry", "2,4", "--modulus", "6", oval_file]
    code, _, err = run_cli(bad, capsys)
    assert code == 3
    assert "reducible" in err.lower() or "modulus" in err.lower()
