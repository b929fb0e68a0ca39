"""Self-test of the benchmark harness at toy scale.

The same three workload shapes run on PG(4,4) and PG(2,4) in place of
PG(12,4) and PG(3,4), so the whole file takes well under a minute:

    python3 -m pytest -q perfbench/test_harness.py
"""

from __future__ import annotations

import json

import pytest

import run
import spans

WORKLOADS = sorted(run.WORKLOADS)
SLACK_S = 1e-3  # perf_counter reads and root-span bookkeeping outside the spans


@pytest.fixture(scope="module", autouse=True)
def library():
    assert run.library_ok()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_matches_pins(workload):
    outcome = run.run_workload("toy", workload, run.DEFAULT_SEED, 0.2, trace=False)
    assert outcome.tally.failed == 0, outcome.tally.problems
    result = run.result_json(outcome, trace=False)
    assert result["correct"]
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_expected_digest_counts_as_failure(workload, tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    expected["toy"][run.WORKLOADS[workload]]["input_sha256"] = "0" * 64
    path = tmp_path / "expected.json"
    path.write_text(json.dumps(expected))
    outcome = run.run_workload("toy", workload, run.DEFAULT_SEED, 0.2, False, path)
    assert outcome.tally.failed == 1
    assert not run.result_json(outcome, trace=False)["correct"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_self_times_add_up(workload):
    outcome = run.run_workload("toy", workload, 5, 0.2, trace=True)
    assert outcome.tally.failed == 0, outcome.tally.problems
    assert set(outcome.metrics) == set(run.layer_metric_names())
    sharded = run.WORKLOADS[workload] == "sparse"
    for op, tr in outcome.traces.items():
        recorded = tr.tracer.spans
        assert spans.orphans(recorded) == []
        assert [s.name for s in recorded if s.parent is None] == ["op"]
        selfs = spans.self_times(recorded)
        assert min(selfs.values()) >= 0
        total = sum(selfs.values()) / 1e9
        overhead = abs(tr.overhead_s)
        if sharded and op == "check":
            # window spans of concurrent workers overlap in time
            assert tr.traced_s - SLACK_S <= total <= run.SCALES["toy"].workers * tr.traced_s
        else:
            assert abs(total - tr.traced_s) <= overhead + SLACK_S


@pytest.mark.parametrize("kind", ["dense", "sparse"])
def test_collinear_or_incomplete_extension_is_caught(kind):
    from capcheck import Cap, greedy_extend, normalize, write_cap

    run.WORK.mkdir(exist_ok=True)
    inp = run.make_input("toy", kind, 1)
    inp.path.unlink()
    good = greedy_extend(inp.cap, 2)
    assert run.verify_extend(inp, 0, write_cap(good, header=True))[0] == []
    p, q = inp.cap.points[:2]
    bad = Cap(good.geometry, inp.cap.points + (normalize(p ^ q, good.geometry),))
    assert run.verify_extend(inp, 0, write_cap(bad, header=True))[0]
    short = Cap(good.geometry, good.points[:-1])
    assert run.verify_extend(inp, 0, write_cap(short, header=True))[0]


def test_layer_counts_at_toy_scale():
    toy = run.SCALES["toy"]
    dense = run.run_workload("toy", "pg10-dense", 1, 0.2, trace=True).metrics
    assert dense["check.coverage.maps_built"] == 2
    assert dense["check.coverage.landed_ratio"] == 1.0
    sparse = run.run_workload("toy", "pg10-sparse", 1, 0.2, trace=True).metrics
    pairs = toy.sparse_n * (toy.sparse_n - 1) // 2
    assert sparse["check.completeness.windows"] == toy.shards
    assert sparse["check.completeness.pairs_replayed"] == toy.shards * pairs
    assert sparse["check.completeness.landed_ratio"] == pytest.approx(1 / toy.shards)


def test_renamed_function_is_reported_absent(monkeypatch):
    renamed = {"parse_cap", "check_split"}
    points = [
        (mod, f"{attr}_renamed" if attr in renamed else attr, name)
        for mod, attr, name in spans.WRAP_POINTS
    ]
    monkeypatch.setattr(spans, "WRAP_POINTS", points)
    outcome = run.run_workload("toy", "pg10-sparse", 2, 0.2, trace=True)
    assert outcome.tally.failed == 0
    assert outcome.absent == {"cap.parse_cap", "completeness.check_split"}
    for gone in ("cap.parse_s", "completeness.check_s", "completeness.windows",
                 "completeness.pairs_replayed", "completeness.landed_ratio"):
        assert f"check.{gone}" not in outcome.metrics
    assert "check.cap.validate_s" in outcome.metrics
    assert "check.coverage.landed_ratio" in outcome.metrics


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name.split(".", 1)[1]) for name in run.layer_metric_names()
    }
