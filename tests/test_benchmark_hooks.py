"""The benchmark's traced pass wraps package functions by name and reads the
session phase at each delivered message; a wrapped name that goes away only
turns its metric "absent" in a benchmark run.  These tests load
`perfbench/tracing.py` as it is and fail on such a name here instead."""

from __future__ import annotations

import importlib.util
import math
from pathlib import Path

import pytest

from qkdlab.protocol import SessionConfig, run_protocol

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_metric_has_its_hook(tracing):
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        run_protocol(SessionConfig(n=16, epsilon=0.35, seed=3))
        values, absent = tracing.layer_metrics(tracer, 1)
    finally:
        tracer.uninstall()
    assert absent == []
    assert all(math.isfinite(v) for v in values.values()), values
    # every (role, phase) the spans name is a phase a session passes through
    for span in set(tracing.PHASE_SPANS.values()):
        assert tracer.incl[span] > 0.0, span
