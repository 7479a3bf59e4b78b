"""Acceptance gate: eleven numbered criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print; each criterion is a single test so the verbose listing doubles as
the pass/fail report.
"""

from __future__ import annotations

import contextlib
import json
import math
import random
import subprocess
import sys
import time

import numpy as np

from qkdlab.bounds import (
    empirical_sampling_check,
    key_rate,
    key_rate_threshold,
    mayers_rate,
    sampling_bound,
)
from qkdlab.codes import CorrectableSet, hamming, repetition, reversal_holds
from qkdlab.gf2 import BitVec
from qkdlab.protocol import (
    ABORT_DELTA,
    ABORT_SOURCE,
    DepolarizingChannel,
    EntangledSource,
    InterceptResendChannel,
    LeakyTwoCopySource,
    PerfectSource,
    RotatedZSource,
    SessionConfig,
    Transcript,
    check_basis_independence,
    decode_delta,
    run_protocol,
)
from qkdlab.qsim import (
    StateVector,
    audit_protocol3,
    build_key_circuit,
    entangle_attack,
    error_reversal_check,
    extract_final_key,
    fidelity,
    identity_attack,
    project_correctable,
    rotation_attack,
    swap_attack,
)


def report(num: int, label: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} {label}: {detail}"


# ---------------------------------------------------------------------------
# 1.  code duality


def test_criterion_01_code_duality():
    t0 = time.perf_counter()
    failures = 0
    for code in (repetition(3), hamming(3), hamming(4)):
        if not reversal_holds(code):
            failures += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "code duality",
        failures == 0 and elapsed < 10.0,
        f"0 failures expected, got {failures}; {elapsed:.2f}s of 10s",
    )


# ---------------------------------------------------------------------------
# 2.  circuit duality


def circuit_description_deviation(code) -> float:
    """Max amplitude deviation of the first stage against both of its basis
    descriptions, checked on every computational and every conjugate basis
    state."""
    n, r = code.n, code.k
    c = build_key_circuit(code)
    dim = 1 << (n + r)
    idx = np.arange(dim, dtype=np.int64)

    # One basis: message y adds its codeword onto the signal register.
    x, y = idx & ((1 << n) - 1), idx >> n
    cw = np.array([code.encode(BitVec(r, v)).value for v in range(1 << r)])
    expected = (x ^ cw[y]) | (y << n)
    z_dev = 0.0 if np.array_equal(c.perm_u1, expected) else 1.0

    # Conjugate basis: the message label gains the coset key of the signal
    # label, computed independently from generator columns.
    signs = 1.0 - 2.0 * (
        np.bitwise_count(np.bitwise_and.outer(idx, idx)).astype(np.int64) & 1
    )
    inv = np.empty(dim, dtype=np.int64)
    inv[c.perm_u1] = idx
    gt = np.zeros(dim, dtype=np.int64)
    for j in range(r):
        col = code.gen.col(j).value
        gt |= (np.bitwise_count(x & col).astype(np.int64) & 1) << j
    q = x | ((y ^ gt) << n)
    x_dev = float(np.max(np.abs(signs[inv, :] - signs[:, q]))) / math.sqrt(dim)
    return max(z_dev, x_dev)


def test_criterion_02_circuit_duality():
    worst = max(
        circuit_description_deviation(code) for code in (repetition(3), hamming(3))
    )
    report(2, "circuit duality", worst < 1e-10, f"max amplitude deviation {worst:.2e}")


# ---------------------------------------------------------------------------
# 3.  key extraction


def test_criterion_03_key_extraction():
    rng = random.Random(2026)
    mismatches = 0
    for code in (repetition(3), hamming(3)):
        circuit = build_key_circuit(code)
        for _ in range(100):
            kappa = BitVec.random(code.n, rng)
            # extract_final_key itself raises unless the readout has
            # probability one within 1e-10
            if extract_final_key(circuit, kappa) != code.coset_key(kappa):
                mismatches += 1
    report(3, "key extraction", mismatches == 0, f"{mismatches} mismatches in 200")


# ---------------------------------------------------------------------------
# 4.  error reversal


def test_criterion_04_error_reversal():
    worst = 0.0
    patterns = 0
    for code in (repetition(3), repetition(5), repetition(7), hamming(3)):
        circuit = build_key_circuit(code)
        for x in code.correctable_set():
            worst = max(worst, abs(error_reversal_check(circuit, x) - 1.0))
            patterns += 1
    report(
        4,
        "error reversal",
        worst < 1e-10,
        f"worst |P-1| = {worst:.2e} over {patterns} patterns",
    )


# ---------------------------------------------------------------------------
# 5.  fidelity identity


def test_criterion_05_fidelity_identity():
    rng = np.random.default_rng(515)
    worst = 0.0
    for n_signal in (2, 3):
        corr = CorrectableSet(n_signal, max_weight=1)
        dim = 1 << (n_signal + 2)
        for _ in range(25):
            amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            rho = StateVector(amps / np.linalg.norm(amps)).density()
            projected, eta = project_correctable(rho, corr)
            worst = max(worst, abs(fidelity(projected, rho) - (1.0 - eta)))
    report(5, "fidelity identity", worst < 1e-8, f"worst deviation {worst:.2e} on 50 states")


# ---------------------------------------------------------------------------
# 6.  proof-chain inequalities


def test_criterion_06_proof_chain_inequalities():
    attacks = [
        identity_attack(),
        rotation_attack(0.05),
        rotation_attack(0.3),
        rotation_attack(0.672),
        entangle_attack(0.3, 0.2),
        entangle_attack(0.1, 0.3),
        entangle_attack(0.5, 0.1),
        swap_attack(),
    ]
    slack = 1e-8
    violations = 0
    audits = 0
    for n in (3, 4):
        code = repetition(n)
        for attack in attacks:
            rep = audit_protocol3(attack, n, code)
            audits += 1
            if rep.q0_fidelity < 1.0 - rep.eta - slack:
                violations += 1
            if rep.uniformity_fidelity < rep.uniformity_floor - slack:
                violations += 1
            if rep.entropy_bound_valid and rep.entropy_q > rep.entropy_bound + slack:
                violations += 1
            # the key-entropy floor is an accept-regime statement; audits of
            # attacks the verification test would reject are out of its scope
            if not rep.abort_expected and rep.key_entropy < rep.key_entropy_floor - slack:
                violations += 1
    report(
        6,
        "proof-chain inequalities",
        violations == 0,
        f"{violations} violations beyond 1e-8 across {audits} audits",
    )


# ---------------------------------------------------------------------------
# 7.  source admissibility


def test_criterion_07_source_admissibility():
    compliant = [
        PerfectSource(),
        RotatedZSource(0.3),
        RotatedZSource(1.1),
        EntangledSource(0.0),
        EntangledSource(0.7),
    ]
    worst = max(check_basis_independence(s) for s in compliant)
    leaky = check_basis_independence(LeakyTwoCopySource(0.5))
    run = run_protocol(SessionConfig(n=16, epsilon=0.35, source=LeakyTwoCopySource(0.5)))
    gate_rejects = (
        run.stats.abort_reason == ABORT_SOURCE
        and [rec.step for rec in run.transcript.records] == ["ABORT"]
    )
    ok = worst < 1e-10 and leaky > 0.1 and abs(leaky - 0.25) < 1e-12 and gate_rejects
    report(
        7,
        "source admissibility",
        ok,
        f"compliant worst {worst:.2e}, leaky distance {leaky!r}, gate rejects: {gate_rejects}",
    )


# ---------------------------------------------------------------------------
# 8.  protocol behavior


def test_criterion_08_protocol_behavior():
    t0 = time.perf_counter()
    problems = []

    for seed in range(20):
        run = run_protocol(SessionConfig(n=256, epsilon=0.35, seed=seed))
        if run.aborted or run.alice_key != run.bob_key or run.stats.delta != 0.0:
            problems.append(f"noiseless seed {seed}")

    deltas_ir = []
    for seed in range(20):
        run = run_protocol(
            SessionConfig(
                n=2048,
                epsilon=0.35,
                seed=seed,
                channel=InterceptResendChannel(),
                delta_max=0.15,
            )
        )
        deltas_ir.append(run.stats.delta)
        if run.stats.abort_reason != ABORT_DELTA or not 0.22 <= run.stats.delta <= 0.28:
            problems.append(f"intercept seed {seed}: delta={run.stats.delta}")

    deltas_dp = []
    for seed in range(20):
        run = run_protocol(
            SessionConfig(
                n=2048, epsilon=0.35, seed=seed, channel=DepolarizingChannel(0.1)
            )
        )
        deltas_dp.append(run.stats.delta)
        if (
            run.aborted
            or run.alice_key != run.bob_key
            or run.alice_key is None
            or not 0.03 <= run.stats.delta <= 0.07
        ):
            problems.append(f"depolarizing seed {seed}: delta={run.stats.delta}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 120.0
    report(
        8,
        "protocol behavior",
        ok,
        f"{len(problems)} bad runs of 60 "
        f"(intercept delta {min(deltas_ir):.3f}..{max(deltas_ir):.3f}, "
        f"depolarizing delta {min(deltas_dp):.3f}..{max(deltas_dp):.3f}); "
        f"{elapsed:.1f}s of 120s"
        + (f"; first problem: {problems[0]}" if problems else ""),
    )


# ---------------------------------------------------------------------------
# 9.  rate functions


def test_criterion_09_rate_functions():
    crossing = key_rate_threshold()
    grid_ok = all(
        key_rate(d) > mayers_rate(d) for d in (0.11 * (i + 1) / 101 for i in range(100))
    )
    ok = 0.1100 <= crossing <= 0.1101 and grid_ok
    report(
        9,
        "rate functions",
        ok,
        f"zero crossing {crossing:.6f}, grid dominance: {grid_ok}",
    )


# ---------------------------------------------------------------------------
# 10.  sampling bound


def test_criterion_10_sampling_bound():
    trials = 100_000
    freq = empirical_sampling_check(trials, 200, 0.1, 0.1, seed=0)
    envelope = sampling_bound(200, 0.1, 0.1) + 10.0 / trials
    report(
        10,
        "sampling bound",
        freq <= envelope,
        f"frequency {freq!r} vs envelope {envelope:.6f}",
    )


# ---------------------------------------------------------------------------
# 11.  network equivalence


@contextlib.contextmanager
def run_cli(*args):
    """A qkdlab subprocess, killed if still running and reaped on exit."""
    with subprocess.Popen(
        [sys.executable, "-m", "qkdlab", *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            yield proc
        finally:
            proc.kill()


def listening_port(proc) -> int:
    line = proc.stdout.readline()
    assert line.startswith("LISTENING "), f"unexpected first line {line!r}"
    return int(line.split()[1])


def test_criterion_11_network_equivalence(tmp_path):
    # Two separate OS processes over loopback, noiseless.
    cfg = {"n": 256, "epsilon": 0.35, "seed": 123}
    cfg_path = tmp_path / "session.json"
    cfg_path.write_text(json.dumps(cfg))
    with run_cli(
        "bob",
        "--listen",
        "127.0.0.1:0",
        "--config",
        str(cfg_path),
        "--transcript-out",
        str(tmp_path / "bob.transcript"),
    ) as bob:
        port = listening_port(bob)
        with run_cli(
            "alice",
            "--connect",
            f"127.0.0.1:{port}",
            "--config",
            str(cfg_path),
            "--transcript-out",
            str(tmp_path / "alice.transcript"),
        ) as alice:
            assert alice.wait(timeout=60) == 0, alice.stderr.read()
        assert bob.wait(timeout=60) == 0, bob.stderr.read()
    reference = run_protocol(SessionConfig(n=256, epsilon=0.35, seed=123))
    wire_bytes = (tmp_path / "alice.transcript").read_bytes()
    loopback_ok = (
        wire_bytes == (tmp_path / "bob.transcript").read_bytes()
        and wire_bytes == reference.transcript.to_text().encode()
    )

    # Same config and seeds with an intercepting proxy in the middle:
    # three processes, reproducing the in-process attack abort exactly.
    atk = {"n": 2048, "epsilon": 0.35, "delta_max": 0.15, "seed": 123}
    atk_path = tmp_path / "attacked.json"
    atk_path.write_text(json.dumps(atk))
    with run_cli(
        "bob",
        "--listen",
        "127.0.0.1:0",
        "--config",
        str(atk_path),
        "--transcript-out",
        str(tmp_path / "attacked.transcript"),
    ) as bob:
        bob_port = listening_port(bob)
        with run_cli(
            "eve",
            "--listen",
            "127.0.0.1:0",
            "--connect",
            f"127.0.0.1:{bob_port}",
            "--mode",
            "intercept_resend",
            "--seed",
            "123",
        ) as eve:
            eve_port = listening_port(eve)
            with run_cli(
                "alice", "--connect", f"127.0.0.1:{eve_port}", "--config", str(atk_path)
            ) as alice:
                alice_code = alice.wait(timeout=60)
            bob_code = bob.wait(timeout=60)
            eve.wait(timeout=60)

    attacked_ref = run_protocol(
        SessionConfig(
            n=2048,
            epsilon=0.35,
            seed=123,
            channel=InterceptResendChannel(),
            delta_max=0.15,
        )
    )
    transcript = Transcript.from_text((tmp_path / "attacked.transcript").read_text())
    decision = [rec for rec in transcript.records if rec.step == "DELTA_DECISION"]
    delta, proceed = decode_delta(decision[0].payload) if decision else (None, True)
    attack_ok = (
        alice_code == 2
        and bob_code == 2
        and attacked_ref.stats.abort_reason == ABORT_DELTA
        and transcript == attacked_ref.transcript
        and not proceed
        and 0.22 <= delta <= 0.28
    )
    report(
        11,
        "network equivalence",
        loopback_ok and attack_ok,
        f"loopback transcripts byte-identical: {loopback_ok}; "
        f"proxied attack delta {delta} aborts like in-process: {attack_ok}",
    )
