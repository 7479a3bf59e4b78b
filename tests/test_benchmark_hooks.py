"""The benchmark's traced pass wraps package functions by name and reads the
session phase at each delivered message; a wrapped name that goes away only
turns its metric "absent" in a benchmark run.  Its workloads digest every
final key as `n:hex` and compare the two keys with `!=`.  These tests load
`perfbench/tracing.py` and `perfbench/workloads.py` as they are and fail on
such a change here instead."""

from __future__ import annotations

import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest

from qkdlab.cli import build_session_config
from qkdlab.protocol import SessionConfig, run_protocol

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


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


def test_key_digest_reads_the_final_key_and_none(workloads):
    goldens = workloads.load_goldens()
    outcomes = set()
    for raw in (c for c in workloads.sweep_cases() if c["seed"] == 0):
        res = run_protocol(build_session_config(raw))
        key = res.alice_key
        if key is None:
            assert res.bob_key is None
            want = "none"
        else:
            # the two keys compare as values, both ways the workloads ask
            assert key == res.bob_key and not key != res.bob_key
            want = f"{key.n}:{key.value.to_bytes((key.n + 7) // 8, 'little').hex()}"
        digest = workloads.key_digest(key)
        assert digest == hashlib.sha256(want.encode()).hexdigest()[:32]
        golden = goldens[workloads.case_label(raw)]
        if "key" in golden:  # not an input that raised when it was captured
            assert digest == golden["key"]
            outcomes.add(key is None)
    assert outcomes == {True, False}  # finished sessions and intercepted ones
