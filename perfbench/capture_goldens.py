"""Capture the transcript and key SHA-256 of every session input the
workloads can draw, as the current sources produce them, into goldens.json.

    python3 perfbench/capture_goldens.py

Run it only when a change is meant to alter transcripts or keys (for example
a wire-format version bump); otherwise a mismatch is a regression that the
benchmark reports as incorrect output.  Sessions that raise are recorded with
the exception type and have no golden output: if they later complete, the
benchmark checks them by key agreement and replay instead.  Takes about two
minutes on 2 cores (the four n=8192 sessions dominate).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qkdlab import cli, protocol  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    cases = workloads.sweep_cases() + workloads.loopback_cases()
    for row in workloads.large_cases():
        cases += row
    goldens = {}
    for raw in cases:
        label = workloads.case_label(raw)
        if label in goldens:
            continue
        try:
            result = protocol.run_protocol(cli.build_session_config(raw))
        except Exception as exc:  # recorded: the benchmark counts it as failed
            goldens[label] = {"raises": type(exc).__name__}
            continue
        goldens[label] = {
            "transcript": workloads.transcript_digest(result.transcript),
            "key": workloads.key_digest(result.alice_key),
        }
    entries = (f"{json.dumps(k)}: {json.dumps(goldens[k], sort_keys=True)}" for k in sorted(goldens))
    workloads.GOLDENS.write_text("{\n" + ",\n".join(entries) + "\n}\n")
    raised = sum("raises" in g for g in goldens.values())
    print(f"wrote {len(goldens)} goldens ({raised} raise) to {workloads.GOLDENS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
