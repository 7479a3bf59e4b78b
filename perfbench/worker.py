"""One workload in a fresh interpreter: set up, run the closed loop, check
every output and report.

run.py starts this script; it is not meant to be run by hand.  It prints the
report lines and, last, one JSON object for run.py.  With --setup-only it
stops where the first timed operation would start and reports that instant,
so run.py can time set-up (interpreter start, imports, config generation,
listener bind) several times per run.

Untraced (--trace 0): the closed loop runs as many whole rounds of
operations as fit in --seconds, at least one, and times a fixed reference
computation between operations; the end-to-end metrics come from it.
Inputs kept out of the timed pool as known defects run once afterwards.
Traced (--trace 1): the loop runs untraced for half of --seconds, then the
same operations run again with the timing wrappers of tracing.py installed;
the per-layer metrics come from the second pass and trace.overhead_frac
compares the two.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

import numpy

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qkdlab"
SPAN_DIR = ROOT / ".bench_build" / "perfbench"
TAIL_BEYOND = 10  # samples above the reported tail percentile


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--max-ops", type=int, default=None)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


REF_ARRAY = numpy.arange(256, dtype=numpy.int64)


def reference() -> int:
    """A fixed computation that never touches the package, about 1.5 ms on
    the reference machine: integer arithmetic in a Python loop, building
    small objects in a dict, and small numpy array operations, the three
    kinds of work a session does.  Its wall time, taken between operations,
    is the unit of the machine-relative metrics."""
    total = 0
    for i in range(7_000):
        total += i * i
    table = {}
    for i in range(1_000):
        table[i] = (i, str(i), [i])
    x = REF_ARRAY
    for _ in range(100):
        x = (x * 3 + 1) & 1023
    return total + len(table) + int(x.sum())


def time_reference(op_seconds: float) -> list[float]:
    """Time the reference about once per 50 ms of operation time (1 to 50
    times), so long operations get as many samples of the machine's speed
    as short ones per second of run."""
    samples = []
    for _ in range(max(1, min(50, int(op_seconds / 0.05)))):
        t0 = time.perf_counter()
        reference()
        samples.append(time.perf_counter() - t0)
    return samples


def run_pass(workload, rounds, budget: float, max_ops: int | None, tracer=None, refs=None):
    """Closed loop: one operation at a time, in as many whole rounds as fit
    in the budget, at least one (or up to the op cap).  Exceptions are failed
    operations, never fatal.  With a `refs` list, the reference computation
    is timed before the first operation and after every one, outside the
    operations' times and the loop's wall time: refs[i] holds the reference
    times taken just before operation i, refs[i + 1] those just after it."""
    outcomes = []
    start = time.perf_counter()
    paused = 0.0
    if refs is not None:
        refs.append(time_reference(0.0))
    for done, round_ in enumerate(rounds, 1):
        for op in round_:
            if tracer is not None:
                tracer.op = len(outcomes)
            raw, error = None, None
            t0 = time.perf_counter()
            try:
                raw = workload.run(op)
            except Exception as exc:  # counted per type in the report
                error = type(exc).__name__
            seconds = time.perf_counter() - t0
            if refs is not None:
                t1 = time.perf_counter()
                refs.append(time_reference(seconds))
                paused += time.perf_counter() - t1
            outcomes.append(workload.outcome(op, raw, error, seconds))
            if len(outcomes) == max_ops:
                return outcomes, time.perf_counter() - start - paused
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / done > budget:  # a mean round more would overrun
            break
    return outcomes, time.perf_counter() - start - paused


def is_failed(out) -> bool:
    return out.error is not None or bool(out.problems)


def tail_of(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with TAIL_BEYOND samples beyond it: (value,
    percentile, samples beyond); the maximum when there are too few."""
    values = sorted(values)
    n = len(values)
    if n > TAIL_BEYOND:
        return values[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return values[-1], 100.0, 0


def end_to_end(outcomes, wall: float, sessions: bool, refs: list[list[float]]):
    """The end-to-end metrics {name: (value, unit)} and their report lines.
    The bounded time metrics are machine-relative (unit `ref`): each
    operation's time is divided by the median of the reference times taken
    just before and just after it, and the loop's throughput by the mean of
    all reference times of the run (throughput is a time average, so it is
    set against the host's average speed).  This cancels most of the speed
    swings of a shared host; the seconds are printed beside them."""
    times = [o.seconds for o in outcomes]
    n = len(times)
    ratios = [t / statistics.median(refs[i] + refs[i + 1]) for i, t in enumerate(times)]
    ref = statistics.fmean(t for samples in refs for t in samples)
    p50, ratio_p50 = statistics.median(times), statistics.median(ratios)
    tail, pct, beyond = tail_of(times)
    ratio_tail = tail_of(ratios)[0]
    note = "" if beyond else f", fewer than {TAIL_BEYOND + 1} samples: maximum"
    failed = [o for o in outcomes if is_failed(o)]
    kinds = Counter(o.error or "output_check" for o in failed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "op_ref_p50": (ratio_p50, "ref"),
        "op_ref_tail": (ratio_tail, "ref"),
        "ops_per_kref": (1000.0 * ref * n / wall, "1/kref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [
        f"metric ref_s = {ref:.7f} s (mean of {sum(map(len, refs))} reference timings)",
        f"metric op_s_p50 = {p50:.6f} s (median of {n} ops)",
        f"metric op_ref_p50 = {ratio_p50:.4f} ref (median of {n} op / local ref ratios)",
        f"metric op_s_tail = {tail:.6f} s (p{pct:.2f} of {n} ops, {beyond} beyond{note})",
        f"metric op_ref_tail = {ratio_tail:.4f} ref (p{pct:.2f} of {n} op / local ref ratios)",
        f"metric ops_per_s = {n / wall:.4f} 1/s ({n} ops in {wall:.3f} s)",
        f"metric ops_per_kref = {1000.0 * ref * n / wall:.4f} 1/kref",
    ]
    if sessions:
        bits = sum(o.key_bits for o in outcomes)
        lines.append(f"metric key_bits_per_s = {bits / wall:.2f} bit/s ({bits} agreed key bits)")
    else:
        lines.append("metric key_bits_per_s = absent (no sessions in this workload)")
    detail = ", ".join(f"{k}:{v}" for k, v in sorted(kinds.items()))
    lines.append(
        f"metric failed_frac = {len(failed) / n:.6f} ({len(failed)} of {n}"
        + (f": {detail})" if detail else ")")
    )
    lines.append(f"metric peak_rss_mb = {rss_mb:.2f} MB")
    return metrics, lines


def session_layer(outcomes) -> tuple[dict, list[str]]:
    """protocol.aborts / errors / key_yield, from the traced operations."""
    n = len(outcomes)
    sessions = [o for o in outcomes if o.op.kind == "session"]
    aborts = Counter(o.abort for o in sessions if o.abort)
    errors = Counter(o.error for o in sessions if o.error)
    signals = sum(o.signals for o in sessions)
    values = {
        "protocol.aborts": sum(aborts.values()) / n,
        "protocol.errors": sum(errors.values()) / n,
        "protocol.key_yield": sum(o.key_bits for o in sessions) / signals if signals else 0.0,
    }
    lines = [
        "by_reason protocol.aborts " + (",".join(f"{k}:{v}" for k, v in sorted(aborts.items())) or "-"),
        "by_type protocol.errors " + (",".join(f"{k}:{v}" for k, v in sorted(errors.items())) or "-"),
    ]
    return values, lines


LAYER_UNITS = {"protocol.key_yield": "bit/bit", "bounds.trials_per_s": "1/s", "trace.overhead_frac": "ratio"}


def layer_unit(name: str) -> str:
    return LAYER_UNITS.get(name, "s" if name.endswith("_s") else "count")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    benchmark may run in an exported tree, which has no .git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no qkdlab sources under {PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import qkdlab

    if Path(qkdlab.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported qkdlab from {qkdlab.__file__}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    t_ready = time.monotonic()
    if args.setup_only:
        workload.close()
        print(json.dumps({"t_ready": t_ready}))
        return 0

    workload.goldens = workloads.load_goldens()
    budget = args.seconds / 2 if args.trace else args.seconds
    refs: list[list[float]] = []
    try:
        outcomes, wall = run_pass(workload, workload.rounds(), budget, args.max_ops, refs=refs)
        traced, tracer = [], None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                traced, _ = run_pass(
                    workload, [[o.op for o in outcomes]], float("inf"), None, tracer
                )
            finally:
                tracer.uninstall()
        defects, defect_lines = workload.known_defects()
        workload.deferred_checks(outcomes + traced + defects)
    finally:
        workload.close()

    for plain, tr in zip(outcomes, traced):
        if (plain.transcript, plain.key, plain.error) != (tr.transcript, tr.key, tr.error):
            tr.problems.append(f"{tr.op.label}: traced run differs from untraced run")

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env " + json.dumps(env))
    for line in workloads.report_rows(outcomes):
        print(line)
    e2e, lines = end_to_end(outcomes, wall, workload.sessions, refs)
    for line in lines + defect_lines:
        print(line)

    everything = outcomes + traced
    problems = [p for o in everything + defects for p in o.problems]
    for p in problems[:20]:
        print(f"problem {p}")
    if len(problems) > 20:
        print(f"problem ... {len(problems) - 20} more")

    if args.trace:
        layer, absent = tracing.layer_metrics(tracer, len(traced))
        session_values, session_lines = session_layer(traced)
        layer.update(session_values)
        plain_s = sum(o.seconds for o in outcomes)
        layer["trace.overhead_frac"] = (sum(o.seconds for o in traced) - plain_s) / plain_s
        for name, value in layer.items():
            print(f"layer {name} = {value:.6g} {layer_unit(name)}")
        for name in absent:
            print(f"layer {name} = absent (wrapped function no longer exists)")
        for line in session_lines:
            print(line)
        SPAN_DIR.mkdir(parents=True, exist_ok=True)
        span_file = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(span_file)
        print(f"spans {len(tracer.spans)} written to {span_file.relative_to(ROOT)}"
              f" ({tracer.dropped} beyond the cap not kept)")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    result = {
        "t_ready": t_ready,
        "correct": not problems,
        "attempted": len(everything),
        "failed": sum(is_failed(o) for o in everything),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
