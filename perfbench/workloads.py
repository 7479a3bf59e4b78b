"""The four closed-loop workloads: their inputs, one operation each, and the
checks on every operation's outputs.

Every workload has one client that starts the next operation only after the
previous one finished.  Inputs come from the workload seed: session configs
are drawn, in a seed-shuffled order, from fixed pools whose transcripts and
keys were captured in `goldens.json` (see `capture_goldens.py`), so every
completed session can be checked byte for byte.  See README.md for why each
workload exists and which layer it stresses.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from qkdlab import bounds, cli, codes, netchan, protocol, qsim

# Bound at import, before any wrapper is installed: the report rows use these
# so that computing them never shows up in a traced layer.
from qkdlab.bounds import key_rate as untraced_key_rate
from qkdlab.bounds import sampling_bound as untraced_sampling_bound

GOLDENS = Path(__file__).with_name("goldens.json")

SESSION_TIMEOUT = 10.0  # seconds; bounds every socket wait of a loopback session

SWEEP_N = 256
SWEEP_CHANNELS = (
    {"kind": "identity"},
    {"kind": "depolarizing", "p": 0.02},
    {"kind": "depolarizing", "p": 0.06},
    {"kind": "depolarizing", "p": 0.1},
    {"kind": "intercept_resend"},
)
SWEEP_EPSILONS = (0.35, 0.05)
# Sixteen seeds per row: a 25 s run repeats each input about six times, so
# every run holds nearly the same inputs and its p99 tail is not set by
# which slow inputs a partial pass happened to draw.
SWEEP_SEEDS = range(16)

LOOPBACK_CHANNELS = (
    {"kind": "identity"},
    {"kind": "depolarizing", "p": 0.1},
    {"kind": "intercept_resend"},
)
LOOPBACK_SEEDS = range(32)

LARGE_ROWS = (
    # (n, channel, session seeds); the two ROADMAP baseline rows
    (2048, {"kind": "depolarizing", "p": 0.1}, range(48)),
    (8192, {"kind": "identity"}, range(4)),
)
# One round: seven n=2048 sessions, one n=8192 session, seven more n=2048
# sessions (about 20 s at the baseline).  A run ends on a round boundary, so
# every run has the same mix; cut by time alone, the count of short sessions
# beside the long one would swing with its duration.  The short sessions sit
# on both sides of the long one so that their median samples the machine at
# both ends of the run.
LARGE_SMALL_PER_SIDE = 7

AUDIT_N = 4
# the four shipped attacks, named as `qkdlab audit --attack` names them
AUDIT_ATTACKS = {
    "identity": ("identity_attack", {}),
    "rotation:theta=0.3": ("rotation_attack", {"theta": 0.3}),
    "swap": ("swap_attack", {}),
    "entangle:alpha=0.3,beta=0.2": ("entangle_attack", {"alpha": 0.3, "beta": 0.2}),
}
AUDIT_CODES = (f"repetition:n={AUDIT_N}", f"hamming_blocks:n={AUDIT_N}")
SAMPLING = {"trials": 20_000, "n": 256, "delta": 0.05, "epsilon": 0.05}
# Five sampling checks per round of eight audits keep the median operation
# inside the block of [7,4]-code audits instead of on the edge between the
# two audit codes, where it would jump between 3 ms and 14 ms.
SAMPLING_PER_ROUND = 5
TABLE = {"deltas": [i / 100 for i in range(51)], "n": 1024, "epsilon": 0.05}


def channel_label(channel: dict) -> str:
    params = ",".join(f"{k}={v}" for k, v in channel.items() if k != "kind")
    return channel["kind"] + (f":{params}" if params else "")


def case_row(n: int, epsilon: float, channel: dict) -> str:
    return f"n={n} eps={epsilon} {channel_label(channel)}"


def case_label(raw: dict) -> str:
    return f"{case_row(raw['n'], raw['epsilon'], raw['channel'])} seed={raw['seed']}"


def session_case(n: int, epsilon: float, channel: dict, seed: int) -> dict:
    return {"n": n, "epsilon": epsilon, "channel": dict(channel), "seed": seed}


def sweep_cases() -> list[dict]:
    return [
        session_case(SWEEP_N, eps, ch, s)
        for ch in SWEEP_CHANNELS
        for eps in SWEEP_EPSILONS
        for s in SWEEP_SEEDS
    ]


def loopback_cases() -> list[dict]:
    return [session_case(SWEEP_N, 0.35, ch, s) for ch in LOOPBACK_CHANNELS for s in LOOPBACK_SEEDS]


def large_cases() -> list[list[dict]]:
    return [[session_case(n, 0.35, ch, s) for s in seeds] for n, ch, seeds in LARGE_ROWS]


def _digest(text: str) -> str:
    # first 128 bits of SHA-256: ample to catch any change, half the file size
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def transcript_digest(transcript) -> str:
    return _digest(transcript.to_text())


def key_digest(key) -> str:
    return _digest("none" if key is None else f"{key.n}:{key.to_hex()}")


def load_goldens() -> dict:
    return json.loads(GOLDENS.read_text())


@dataclass(frozen=True)
class Op:
    kind: str  # session (in-process or loopback) | audit | sampling | table
    row: str  # report row the operation belongs to
    label: str  # unique name of the input; the golden key for sessions
    params: object = None


@dataclass
class Outcome:
    """What one operation produced, reduced to what the checks and the
    report need (the session objects themselves are dropped)."""

    op: Op
    seconds: float
    error: str | None = None
    abort: str | None = None
    key_bits: int = 0
    signals: int = 0
    transcript: str | None = None
    key: str | None = None
    values: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


class Workload:
    """A pool of inputs, the operation that runs one, and its checks."""

    name = "?"
    sessions = False

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.goldens: dict | None = None
        self.replays: dict[str, tuple] = {}

    def rounds(self):
        """Endless rounds (lists of operations); a run ends on a round
        boundary, so every run has the same mix of inputs."""
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def outcome(self, op: Op, raw, error: str | None, seconds: float) -> Outcome:
        raise NotImplementedError

    def deferred_checks(self, outcomes: list[Outcome]) -> None:
        """Checks that re-run the program, made after the timed region; a
        problem is added to every outcome of the input it concerns."""
        for label, (cfg, transcript) in self.replays.items():
            try:
                protocol.replay_protocol(cfg, transcript)
            except Exception as exc:  # a replay mismatch or a crash: both wrong
                problem = f"{label}: replay failed: {type(exc).__name__}: {exc}"
                for out in outcomes:
                    if out.op.label == label:
                        out.problems.append(problem)

    def known_defects(self) -> tuple[list[Outcome], list[str]]:
        """Inputs kept out of the timed pool because they raise at the
        baseline, run once untimed: (their outcomes, report lines)."""
        return [], []

    def close(self) -> None:
        pass

    def _cycle(self, pool: list):
        while True:
            order = list(pool)
            self.rng.shuffle(order)
            yield from order

    def _row_rounds(self, pool: list[Op]):
        """Rounds of one operation from every row, rows and seeds in shuffled
        order, so each row has the same share of every run."""
        rows = defaultdict(list)
        for op in pool:
            rows[op.row].append(op)
        cycles = [self._cycle(ops) for _, ops in sorted(rows.items())]
        while True:
            self.rng.shuffle(cycles)
            yield [next(cycle) for cycle in cycles]

    # -- shared session checks ------------------------------------------------

    def _session_op(self, raw: dict) -> Op:
        return Op(
            "session",
            case_row(raw["n"], raw["epsilon"], raw["channel"]),
            case_label(raw),
            cli.build_session_config(raw),
        )

    def _check_session(self, out: Outcome, abort, alice_key, bob_key, stats, transcript) -> None:
        cfg = out.op.params
        out.abort = abort
        out.signals = cfg.omega_size
        out.values = {
            "r": stats.r,
            "tau": stats.tau,
            "key_rate_net": stats.key_rate_net,
            "delta": stats.delta,
        }
        if out.abort is None:
            if alice_key is None or alice_key != bob_key or alice_key.n != stats.r:
                out.problems.append(f"{out.op.label}: keys disagree or length != r")
            else:
                out.key_bits = alice_key.n
        # Intercept-resend must fail the error test.  A session whose sifting
        # already fell short (sift_failed, any channel) never reaches it.
        if isinstance(cfg.channel, protocol.InterceptResendChannel) and out.abort not in (
            protocol.ABORT_DELTA,
            protocol.ABORT_SIFT if stats.delta is None else None,
        ):
            out.problems.append(f"{out.op.label}: intercept-resend ended in {out.abort!r}")
        out.transcript = transcript_digest(transcript)
        out.key = key_digest(alice_key)
        golden = self.goldens.get(out.op.label)
        if golden is not None and "transcript" in golden:
            if golden != {"transcript": out.transcript, "key": out.key}:
                out.problems.append(f"{out.op.label}: transcript or key differs from golden")
        elif out.op.label not in self.replays:
            # no golden output to compare with (the session raised when the
            # goldens were captured): replay it after the timed region
            self.replays[out.op.label] = (cfg, transcript)


class InProcessSessions(Workload):
    sessions = True

    def run(self, op: Op):
        return protocol.run_protocol(op.params)

    def outcome(self, op, raw, error, seconds):
        out = Outcome(op, seconds, error)
        if raw is not None:
            self._check_session(
                out, raw.stats.abort_reason, raw.alice_key, raw.bob_key, raw.stats, raw.transcript
            )
        return out


class SweepSmall(InProcessSessions):
    """The timed pool holds the grid inputs that completed when the goldens
    were captured.  The inputs that raised then (the ladder crash) are run
    once per run after the timed region, by known_defects(), and reported
    on their own line, so the defect stays in view without putting a
    failure count that depends on run length into every result."""

    name = "sweep_small"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        raised = {label for label, g in load_goldens().items() if "raises" in g}
        ops = [self._session_op(raw) for raw in sweep_cases()]
        self.pool = [op for op in ops if op.label not in raised]
        self.defect_ops = [op for op in ops if op.label in raised]

    def rounds(self):
        return self._row_rounds(self.pool)

    def known_defects(self) -> tuple[list[Outcome], list[str]]:
        """Run every grid input that raised at capture once, untimed; a run
        that now completes is checked like any session."""
        outcomes = []
        for op in self.defect_ops:
            raw, error = None, None
            try:
                raw = self.run(op)
            except Exception as exc:  # the known defect: reported, not fatal
                error = type(exc).__name__
            outcomes.append(self.outcome(op, raw, error, 0.0))
        errors = Counter(o.error for o in outcomes if o.error)
        detail = ",".join(f"{k}:{v}" for k, v in sorted(errors.items())) or "-"
        rows = sorted({o.op.row for o in outcomes if o.error})
        line = (
            f"known_defect ladder crash: {sum(errors.values())} of {len(outcomes)} grid inputs "
            f"that raised at capture still raise ({detail}; rows: {'; '.join(rows) or '-'})"
        )
        return outcomes, [line]


class SessionLarge(InProcessSessions):
    name = "session_large"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        small, big = ([self._session_op(raw) for raw in row] for row in large_cases())
        self.small, self.big = small, big

    def rounds(self):
        # a short session first, so that a run of one operation stays short
        small, big = self._cycle(self.small), self._cycle(self.big)
        while True:
            before = [next(small) for _ in range(LARGE_SMALL_PER_SIDE)]
            after = [next(small) for _ in range(LARGE_SMALL_PER_SIDE)]
            yield before + [next(big)] + after


class Loopback(Workload):
    """Alice on the calling thread, Bob on one worker thread, one TCP
    connection over 127.0.0.1 per session; Bob realizes the channel."""

    name = "loopback"
    sessions = True

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.pool = [self._session_op(raw) for raw in loopback_cases()]
        self.listener = netchan.open_listener("127.0.0.1", 0)

    def rounds(self):
        return self._row_rounds(self.pool)

    def run(self, op: Op):
        cfg = op.params
        box: dict = {}
        port = self.listener.getsockname()[1]

        def bob() -> None:
            try:
                box["bob"] = netchan.serve_party(
                    cfg, "bob", listener=self.listener, timeout=SESSION_TIMEOUT
                )
            except Exception as exc:  # handed to the calling thread below
                box["error"] = exc

        thread = threading.Thread(target=bob, daemon=True)
        thread.start()
        try:
            alice = netchan.serve_party(
                cfg, "alice", connect=("127.0.0.1", port), timeout=SESSION_TIMEOUT
            )
        finally:
            thread.join(2 * SESSION_TIMEOUT)
            if thread.is_alive():
                # Bob is stuck: closing the listener ends his wait, and the
                # next session gets a fresh one
                self.listener.close()
                self.listener = netchan.open_listener("127.0.0.1", 0)
        if thread.is_alive():
            raise TimeoutError("receiver did not finish")
        if "error" in box:
            raise box["error"]
        return alice, box["bob"]

    def outcome(self, op, raw, error, seconds):
        out = Outcome(op, seconds, error)
        if raw is None:
            return out
        alice, bob = raw
        abort = alice.abort_reason or bob.abort_reason
        self._check_session(out, abort, alice.final_key, bob.final_key, bob.stats, alice.transcript)
        if alice.transcript != bob.transcript:
            out.problems.append(f"{op.label}: the two parties recorded different transcripts")
        return out

    def deferred_checks(self, outcomes):
        super().deferred_checks(outcomes)
        inprocess: dict[str, str] = {}
        for out in outcomes:
            if out.transcript is None:
                continue
            label = out.op.label
            if label not in inprocess:
                try:
                    result = protocol.run_protocol(out.op.params)
                    inprocess[label] = transcript_digest(result.transcript)
                except Exception as exc:  # reported as a mismatch below
                    inprocess[label] = f"in-process run raised {type(exc).__name__}"
            if inprocess[label] != out.transcript:
                out.problems.append(f"{label}: socket transcript differs from in-process run")

    def close(self) -> None:
        self.listener.close()


class AuditBounds(Workload):
    """Exact audits at n=4, Monte-Carlo sampling checks and the rate table;
    the only workload that runs qsim and bounds, and no session code."""

    name = "audit_bounds"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.audits = [
            Op(
                "audit",
                f"audit {attack} {desc}",
                f"{attack} {desc}",
                (getattr(qsim, fn)(**kwargs), desc),
            )
            for attack, (fn, kwargs) in AUDIT_ATTACKS.items()
            for desc in AUDIT_CODES
        ]
        self.table = Op("table", f"bounds_table n={TABLE['n']} eps={TABLE['epsilon']}", "table")
        self.sampling_row = "sampling_check " + " ".join(f"{k}={v}" for k, v in SAMPLING.items())

    def rounds(self):
        # Fixed order within a round: a 13 ms audit right after a sampling
        # check (80 MB of fresh arrays) runs slower, so a shuffled order
        # would move the median with the shuffle.  The seed draws the
        # sampling-check seeds.
        while True:
            sampling = []
            for _ in range(SAMPLING_PER_ROUND):
                seed = self.rng.getrandbits(32)
                sampling.append(Op("sampling", self.sampling_row, f"sampling seed={seed}", seed))
            yield self.audits + [self.table] + sampling

    def run(self, op: Op):
        if op.kind == "audit":
            attack, desc = op.params
            return qsim.audit_protocol3(attack, AUDIT_N, codes.code_from_descriptor(desc))
        if op.kind == "sampling":
            s = SAMPLING
            return bounds.empirical_sampling_check(
                s["trials"], s["n"], s["delta"], s["epsilon"], seed=op.params
            )
        rows = [
            (
                d,
                bounds.binary_entropy(d),
                bounds.key_rate(d),
                bounds.mayers_rate(d),
                bounds.sampling_bound(TABLE["n"], d, TABLE["epsilon"]),
            )
            for d in TABLE["deltas"]
        ]
        return rows, bounds.key_rate_threshold()

    def outcome(self, op, raw, error, seconds):
        out = Outcome(op, seconds, error)
        if error == "SamplingBoundExceeded":
            out.problems.append(f"{op.label}: frequency above the envelope")
        if raw is None:
            return out
        if op.kind == "audit":
            checks = cli.audit_checks(raw)
            failed = [name for name, entry in checks.items() if entry.get("pass") is False]
            if failed:
                out.problems.append(f"{op.label}: audit checks failed: {failed}")
            out.values = {"eta": raw.eta, "skipped": sum("skipped" in e for e in checks.values())}
        elif op.kind == "sampling":
            s = SAMPLING
            envelope = max(
                untraced_sampling_bound(s["n"], s["delta"], s["epsilon"]), 10.0 / s["trials"]
            )
            if not 0.0 <= raw <= envelope:
                out.problems.append(f"{op.label}: frequency {raw} outside [0, {envelope}]")
            out.values = {"freq": raw, "envelope": envelope}
        else:
            rows, threshold = raw
            if not 0.1100 < threshold < 0.1101:
                out.problems.append(f"rate table: threshold {threshold} is not 0.11003")
            if any(not math.isfinite(v) for row in rows for v in row) or rows[0][2] != 1.0:
                out.problems.append("rate table: non-finite entry or key_rate(0) != 1")
            out.values = {"threshold": threshold}
        return out


WORKLOADS = {w.name: w for w in (SweepSmall, SessionLarge, Loopback, AuditBounds)}


def report_rows(outcomes: list[Outcome]) -> list[str]:
    """One line per input row: counts, median time and the outputs."""
    groups: dict[str, list[Outcome]] = defaultdict(list)
    for out in outcomes:
        groups[out.op.row].append(out)
    lines = []
    for row, outs in sorted(groups.items()):
        fields = {
            "ops": len(outs),
            "failed": sum(o.error is not None for o in outs),
            "median_s": f"{statistics.median(o.seconds for o in outs):.5f}",
        }
        values = defaultdict(list)
        for o in outs:
            for k, v in o.values.items():
                if v is not None:
                    values[k].append(v)
        deltas = values.pop("delta", [])
        for k, vs in values.items():
            fields[k] = f"{statistics.median(vs):.6g}"
        if deltas:
            fields["delta"] = f"{statistics.median(deltas):.6g}"
            fields["one_minus_2h"] = f"{statistics.median(untraced_key_rate(d) for d in deltas):.6g}"
        aborts = Counter(o.abort for o in outs if o.abort)
        errors = Counter(o.error for o in outs if o.error)
        if aborts:
            fields["aborts"] = ",".join(f"{k}:{v}" for k, v in sorted(aborts.items()))
        if errors:
            fields["errors"] = ",".join(f"{k}:{v}" for k, v in sorted(errors.items()))
        lines.append(f"row {row} | " + " ".join(f"{k}={v}" for k, v in fields.items()))
    return lines
