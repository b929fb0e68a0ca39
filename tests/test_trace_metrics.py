"""A traced benchmark run reports every declared per-layer metric.

`perfbench/spans.py` records spans by patching capcheck's layer
boundaries.  A function that still exists but is no longer called
through its wrapped name leaves the metrics read from its span out of
the traced result line, which `tests/test_trace_points.py` cannot see.
This runs both workloads traced at toy scale (a few seconds) and
compares the reported names with the declared ones.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_reports_every_layer_metric(workload):
    outcome = run.run_workload("toy", workload, 5, 0.2, trace=True)
    assert outcome.tally.failed == 0, outcome.tally.problems
    assert set(outcome.metrics) == set(run.layer_metric_names())
