"""Every name the benchmark's tracer wraps resolves in this tree.

`perfbench/spans.py` patches capcheck functions by (module, attribute).
A target that no longer exists is only marked absent there, and every
traced metric that reads its span drops out of the result line.  This
reads the two lists from that file, without installing the tracer, so a
refactor that drops a wrapped import fails here instead.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SPANS = _spans()


@pytest.mark.parametrize(
    "module, attribute",
    [(m, a) for m, a, _ in _SPANS.WRAP_POINTS],
    ids=[f"{m}.{a}" for m, a, _ in _SPANS.WRAP_POINTS],
)
def test_wrap_point_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(module), attribute, None))


@pytest.mark.parametrize(
    "module, cls, method",
    [(m, c, f) for m, c, f, _ in _SPANS.METHOD_POINTS],
    ids=[f"{m}.{c}.{f}" for m, c, f, _ in _SPANS.METHOD_POINTS],
)
def test_method_point_resolves(module, cls, method):
    owner = getattr(importlib.import_module(module), cls, None)
    assert callable(getattr(owner, method, None))
