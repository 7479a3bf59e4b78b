"""Spans and counters for the traced pass, recorded from outside the package.

The package has no session trace of its own yet, so this module wraps public
functions and methods of each layer (module attributes and class attributes)
with timing wrappers.  The wrappers are installed only for the traced pass and
removed afterwards; the untraced pass that gives the end-to-end numbers runs
the package unmodified.

A span is recorded per wrapped call, with name, start, end, parent span and
operation id.  A call whose span name is already open on the same thread
(recursion, `super().__init__`, a block code calling its inner codes) is not a
new span: its time stays in the enclosing span.  Self time of a span is its
duration minus the time covered by its child spans.  Aggregates are kept
online; the raw spans of the first `SPAN_CAP` calls are kept in memory and
written out when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict

SPAN_CAP = 50_000

# (role, phase before the call) -> protocol handler span.  Phases that do no
# real work (hello reply, delta/perm bookkeeping, done) share `control`.
PHASE_SPANS = {
    ("alice", "hello"): "protocol.emit",
    ("bob", "collect"): "protocol.collect",
    ("alice", "await_bases"): "protocol.sift",
    ("bob", "await_bases_a"): "protocol.sift",
    ("alice", "await_subset"): "protocol.sift",
    ("bob", "await_test_bits"): "protocol.announce",
    ("alice", "await_code"): "protocol.code_check",
    ("alice", "await_syndrome"): "protocol.correct",
    ("alice", "await_confirm"): "protocol.confirm",
}

BOUNDS_TABLE_FUNCTIONS = (
    "binary_entropy",
    "key_rate",
    "mayers_rate",
    "key_rate_threshold",
    "sampling_bound",
    "leakage_bound",
)
GF2_REDUCTIONS = ("rank", "kernel_basis", "independent_rows", "inverse")

# metric -> (span name, "incl" or "self").  Divided by operations traced.
TIME_METRICS = {
    "protocol.emit_s": ("protocol.emit", "incl"),
    "protocol.collect_s": ("protocol.collect", "incl"),
    "protocol.sift_s": ("protocol.sift", "incl"),
    "protocol.announce_s": ("protocol.announce", "incl"),
    "protocol.code_check_s": ("protocol.code_check", "incl"),
    "protocol.correct_s": ("protocol.correct", "incl"),
    "protocol.confirm_s": ("protocol.confirm", "incl"),
    "protocol.control_s": ("protocol.control", "incl"),
    "protocol.channel_s": ("protocol.channel", "self"),
    "codes.construct_s": ("codes.construct", "incl"),
    "codes.ladder_s": ("codes.ladder", "incl"),
    "codes.leader_table_s": ("codes.leader_table", "self"),
    "codes.syndrome_s": ("codes.syndrome", "self"),
    "codes.correct_s": ("codes.correct", "self"),
    "codes.coset_key_s": ("codes.coset_key", "self"),
    "gf2.reduce_s": ("gf2.reduce", "self"),
    "gf2.apply_s": ("gf2.apply", "self"),
    "netchan.send_s": ("netchan.send", "self"),
    "netchan.recv_s": ("netchan.recv", "self"),
    "netchan.connect_s": ("netchan.connect", "self"),
    "qsim.audit_s": ("qsim.audit", "self"),
    "qsim.key_circuit_s": ("qsim.key_circuit", "self"),
    "bounds.sampling_check_s": ("bounds.sampling_check", "self"),
    "bounds.table_s": ("bounds.table", "self"),
}

# metric -> (counter, span name it depends on).  Divided by operations traced.
COUNT_METRICS = {
    "protocol.messages": ("messages", "protocol.message"),
    "protocol.payload_bytes": ("payload_bytes", "protocol.message"),
    "codes.constructed": ("constructed", "codes.construct"),
    "codes.decoding_failures": ("decoding_failures", "codes.correct"),
    "gf2.reduce_calls": ("reduce_calls", "gf2.reduce"),
    "gf2.reduce_cells": ("reduce_cells", "gf2.reduce"),
    "netchan.frames": ("frames", "netchan.send"),
    "netchan.bytes": ("bytes", "netchan.send"),
    "netchan.connect_retries": ("connect_retries", "netchan.connect"),
    "qsim.audits": ("audits", "qsim.audit"),
}


class Tracer:
    """Records spans from wrapped calls; one instance per traced pass."""

    def __init__(self) -> None:
        self.op = -1
        self.incl: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.spans: list[tuple] = []
        self.dropped = 0
        self.installed: set[str] = set()
        self._ids = itertools.count(1)  # next() on a count is atomic in CPython
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object, bool]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def in_span(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def wrap(self, fn, name, *, on_call=None, on_error=None):
        """Timing wrapper around `fn`.

        `name` is a span name or a function of the call arguments returning
        one; `on_call(args, kwargs)` and `on_error(exc)` update counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            stack = tracer._stack()
            if any(frame[0] == span for frame in stack):
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            span_id = next(tracer._ids)
            frame = [span, span_id, 0.0]
            parent = stack[-1][1] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][2] += duration
                with tracer._lock:
                    tracer.incl[span] += duration
                    tracer.self_time[span] += duration - frame[2]
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, parent, span, start, end, tracer.op))
                    else:
                        tracer.dropped += 1

        return wrapper

    def count(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] += amount

    def patch(self, owner, attr: str, replacement, span: str | None) -> None:
        had = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had))
        setattr(owner, attr, replacement)
        if span is not None:
            self.installed.add(span)

    def patch_fn(self, owner, attr: str, name, **hooks) -> bool:
        """Wrap `owner.attr` if it exists; report whether it did."""
        fn = getattr(owner, attr, None)
        if fn is None:
            return False
        span = name if isinstance(name, str) else None
        self.patch(owner, attr, self.wrap(fn, name, **hooks), span)
        return True

    def write_spans(self, path) -> None:
        """One JSON list per line: id, parent id (0 at the root), name,
        start, end (perf_counter seconds), operation index."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def uninstall(self) -> None:
        for owner, attr, old, had in reversed(self._undo):
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)
        self._undo.clear()


class _CountingSocketModule:
    """Stands in for the `socket` module inside netchan to count connection
    attempts; every other attribute is the real module's."""

    def __init__(self, real, on_connect) -> None:
        self._real = real
        self._on_connect = on_connect

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def create_connection(self, *args, **kwargs):
        self._on_connect()
        return self._real.create_connection(*args, **kwargs)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read.  A function or
    class that no longer exists is skipped; its metrics read as absent."""
    from qkdlab import bounds, codes, gf2, netchan, protocol, qsim

    t = tracer

    # protocol: one span per delivered message, named by role and phase
    def phase_span(args):
        session = args[0]
        return PHASE_SPANS.get((session.role_name, session.phase), "protocol.control")

    def count_message(args, kwargs):
        msg = args[1] if len(args) > 1 else kwargs["msg"]
        t.count("messages")
        t.count("payload_bytes", len(msg.payload))

    for role_cls in ("AliceSession", "BobSession"):
        session_cls = getattr(protocol, role_cls, None)
        if session_cls is not None and t.patch_fn(
            session_cls, "on_message", phase_span, on_call=count_message
        ):
            t.installed.update({*PHASE_SPANS.values(), "protocol.control", "protocol.message"})

    channel_base = getattr(protocol, "ChannelModel", None)
    if channel_base is not None:
        for cls in [channel_base, *channel_base.__subclasses__()]:
            if "apply_batch" in vars(cls):
                t.patch_fn(cls, "apply_batch", "protocol.channel")

    t.patch_fn(
        protocol,
        "choose_reconciliation_code",
        "codes.ladder",
        on_call=lambda args, kwargs: t.count("ladder_calls"),
    )

    # codes
    linear = getattr(codes, "LinearCode", None)
    block = getattr(codes, "BlockCode", None)

    def count_construct(args, kwargs):
        t.count("constructed")
        if block is not None and isinstance(args[0], block) and t.in_span("codes.ladder"):
            t.count("ladder_built")

    def count_decoding_failure(exc):
        if type(exc).__name__ == "DecodingFailure":
            t.count("decoding_failures")

    code_methods = {
        "__init__": ("codes.construct", {"on_call": count_construct}),
        "syndrome": ("codes.syndrome", {}),
        "correct_with_syndrome": ("codes.correct", {"on_error": count_decoding_failure}),
        "leader_table": ("codes.leader_table", {}),
        "coset_key": ("codes.coset_key", {}),
    }
    for cls in (linear, block):
        if cls is None:
            continue
        for attr, (span, hooks) in code_methods.items():
            if attr in vars(cls):
                t.patch_fn(cls, attr, span, **hooks)

    # gf2: reductions counted with their exact work, rows x columns
    matrix = getattr(gf2, "GF2Matrix", None)

    def reduction_counter(cols_factor):
        def on_call(args, kwargs):
            m = args[0]
            t.count("reduce_calls")
            t.count("reduce_cells", m.rows * m.cols * cols_factor)

        return on_call

    if matrix is not None:
        for attr in GF2_REDUCTIONS:
            # inverse reduces the matrix augmented with the identity
            factor = 2 if attr == "inverse" else 1
            t.patch_fn(matrix, attr, "gf2.reduce", on_call=reduction_counter(factor))
        t.patch_fn(matrix, "apply", "gf2.apply")

    # netchan
    def count_frames(args, kwargs):
        messages = args[1] if len(args) > 1 else kwargs["messages"]
        t.count("frames", len(messages))
        t.count("bytes", sum(5 + len(m.payload) for m in messages))

    t.patch_fn(netchan, "send_frames", "netchan.send", on_call=count_frames)
    t.patch_fn(netchan, "recv_frame", "netchan.recv")
    # retries = connection attempts (counted on netchan's socket module)
    # minus calls to connect_with_retry
    if t.patch_fn(
        netchan,
        "connect_with_retry",
        "netchan.connect",
        on_call=lambda args, kwargs: t.count("connect_retries", -1),
    ) and hasattr(netchan, "socket"):
        counting = _CountingSocketModule(netchan.socket, lambda: t.count("connect_retries"))
        t.patch(netchan, "socket", counting, None)

    # qsim
    t.patch_fn(qsim, "audit_protocol3", "qsim.audit", on_call=lambda a, k: t.count("audits"))
    t.patch_fn(qsim, "build_key_circuit", "qsim.key_circuit")

    # bounds
    def count_trials(args, kwargs):
        t.count("trials", args[0] if args else kwargs["trials"])

    t.patch_fn(bounds, "empirical_sampling_check", "bounds.sampling_check", on_call=count_trials)
    for attr in BOUNDS_TABLE_FUNCTIONS:
        t.patch_fn(bounds, attr, "bounds.table")


def layer_metrics(tracer: Tracer, ops: int) -> tuple[dict[str, float], list[str]]:
    """Per-operation layer metrics of a traced pass, plus the names of those
    whose wrapped function no longer exists (absent, not zero)."""
    values: dict[str, float] = {}
    absent: list[str] = []
    for metric, (span, kind) in TIME_METRICS.items():
        if span not in tracer.installed:
            absent.append(metric)
            continue
        table = tracer.incl if kind == "incl" else tracer.self_time
        values[metric] = table.get(span, 0.0) / ops
    for metric, (counter, span) in COUNT_METRICS.items():
        if span not in tracer.installed:
            absent.append(metric)
            continue
        values[metric] = tracer.counts.get(counter, 0) / ops
    if "codes.ladder" in tracer.installed and "codes.construct" in tracer.installed:
        ladders = tracer.counts.get("ladder_calls", 0)
        values["codes.ladder_built"] = tracer.counts.get("ladder_built", 0) / ladders if ladders else 0.0
    else:
        absent.append("codes.ladder_built")
    if "bounds.sampling_check" in tracer.installed:
        busy = tracer.incl.get("bounds.sampling_check", 0.0)
        values["bounds.trials_per_s"] = tracer.counts.get("trials", 0) / busy if busy else 0.0
    else:
        absent.append("bounds.trials_per_s")
    return values, absent

