"""qkdlab benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sweep_small, session_large, loopback, audit_bounds, or `all` (each
workload in turn).  Each workload runs in a fresh interpreter (worker.py)
that imports the package from ./src of this checkout, so set-up time and peak
memory belong to that workload alone.  --trace 0 prints the end-to-end
metrics; --trace 1 runs a second, traced pass and prints the per-layer
metrics.  Both print the input rows, the environment, every output problem
found, and as the last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

The run fails (exit code 1 or 2, no JSON line) if the package sources are
missing or a worker dies or overruns.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sweep_small", "session_large", "loopback", "audit_bounds")
# setup_s is the median over this many fresh interpreters, half of them
# started before the measuring one and half after it, so that the median
# samples the host's speed across the whole run rather than at its start
SETUP_RUNS = 9
RUN_LIMIT = 170.0  # seconds one workload may take, set-up and checks included


class BenchError(Exception):
    pass


def worker(args, *extra: str, timeout: float) -> tuple[float, list[str]]:
    """Start a worker and wait for it; (start instant, its stdout lines)."""
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    if args.max_ops is not None:
        cmd += ["--max-ops", str(args.max_ops)]
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args.workload}: worker overran {timeout:.0f} s") from exc
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise BenchError(f"{args.workload}: worker exited with {proc.returncode}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise BenchError(f"{args.workload}: worker printed nothing")
    return start, lines


def run_workload(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT

    def setup_only() -> float:
        start, lines = worker(args, "--setup-only", timeout=deadline - time.monotonic())
        return json.loads(lines[-1])["t_ready"] - start

    setups = [setup_only() for _ in range(SETUP_RUNS // 2)]
    start, lines = worker(args, timeout=deadline - time.monotonic())
    result = json.loads(lines[-1])
    setups.append(result.pop("t_ready") - start)
    setups += [setup_only() for _ in range(SETUP_RUNS - len(setups))]
    setup_s = statistics.median(setups)

    print(f"# workload {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for line in lines[:-1]:
        print(line)
    samples = " ".join(f"{s:.4f}" for s in setups)
    print(f"metric setup_s = {setup_s:.6f} s (median of {len(setups)} set-ups: {samples})")
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": setup_s, "unit": "s"}
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="qkdlab benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument(
        "--max-ops", type=int, default=None, help="stop each pass after this many operations"
    )
    args = p.parse_args(argv)
    if not (ROOT / "src" / "qkdlab" / "__init__.py").is_file():
        print(f"perfbench: no qkdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{metric}": value
            for name, r in results.items()
            for metric, value in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
