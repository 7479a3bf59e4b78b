"""Transcripts and keys stay byte-identical on a fixed grid of sessions.

`golden_transcripts.json` holds SHA-256 digests of the transcript text and
of the final key for every grid config that completed without raising when
the digests were captured.  Regenerate it only in a change meant to alter
protocol outputs:

    PYTHONPATH=src python tests/test_golden_transcripts.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from qkdlab.cli import build_session_config
from qkdlab.protocol import run_protocol

GOLDEN_FILE = Path(__file__).with_name("golden_transcripts.json")

GRID_N = (7, 100, 256, 2048)
GRID_CHANNELS = (
    {"kind": "identity"},
    {"kind": "depolarizing", "p": 0.1},
    {"kind": "intercept_resend"},
)
GRID_EPSILONS = (0.35, 0.05)
GRID_POLICIES = ("hamming_blocks", "repetition_blocks:inner=3")
GRID_SEED = 3

# a partial swap of signal and ancilla by 0.2 rad: the custom channel row
_C, _S = math.cos(0.2), math.sin(0.2)
_PARTIAL_SWAP = [[1.0, 0.0, 0.0, 0.0], [0.0, _C, -_S, 0.0], [0.0, _S, _C, 0.0], [0.0, 0.0, 0.0, 1.0]]
# beyond the perfect source and the three channels above: two
# uncharacterized sources and a custom unitary channel, each at two sizes
EXTRA_N = (100, 256)
EXTRA_ROWS = (
    {"source": {"kind": "rotated_z", "theta": 0.4}, "channel": {"kind": "identity"},
     "epsilon": 0.35, "code_policy": "hamming_blocks"},
    {"source": {"kind": "entangled", "phi": 0.3}, "channel": {"kind": "depolarizing", "p": 0.05},
     "epsilon": 0.05, "code_policy": "repetition_blocks:inner=3"},
    {"channel": {"kind": "custom", "unitary": _PARTIAL_SWAP},
     "epsilon": 0.35, "code_policy": "hamming_blocks"},
)


def grid() -> list[dict]:
    plain = [
        {"n": n, "epsilon": eps, "channel": dict(ch), "code_policy": policy, "seed": GRID_SEED}
        for n in GRID_N
        for ch in GRID_CHANNELS
        for eps in GRID_EPSILONS
        for policy in GRID_POLICIES
    ]
    extra = [{"n": n, **row, "seed": GRID_SEED} for n in EXTRA_N for row in EXTRA_ROWS]
    return plain + extra


def _entry(model: dict) -> str:
    """A model's config as k=v pairs; a custom unitary is named by its kind."""
    return ",".join(f"{k}={v}" for k, v in model.items() if k != "unitary")


def label(raw: dict) -> str:
    src = f"{_entry(raw['source'])} " if "source" in raw else ""
    return (
        f"n={raw['n']} eps={raw['epsilon']} {src}{_entry(raw['channel'])} "
        f"{raw['code_policy']} seed={raw['seed']}"
    )


def digests(raw: dict) -> dict:
    res = run_protocol(build_session_config(raw))
    assert res.alice_key == res.bob_key
    key = "none" if res.bob_key is None else f"{res.bob_key.n}:{res.bob_key.to_hex()}"
    return {
        "transcript": hashlib.sha256(res.transcript.to_text().encode()).hexdigest(),
        "key": hashlib.sha256(key.encode()).hexdigest(),
    }


def _goldens() -> dict:
    return json.loads(GOLDEN_FILE.read_text())


@pytest.mark.parametrize("name", sorted(_goldens()))
def test_transcript_and_key_match_golden(name):
    entry = _goldens()[name]
    assert digests(entry["config"]) == entry["digests"]


def capture() -> None:
    out = {}
    for raw in grid():
        try:
            got = digests(raw)
        except Exception as exc:  # left out: the config raised when captured
            print(f"skip {label(raw)}: {type(exc).__name__}: {exc}", file=sys.stderr)
            continue
        out[label(raw)] = {"config": raw, "digests": got}
    GOLDEN_FILE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    capture()
