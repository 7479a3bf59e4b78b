"""Session engine tests: source gate, sifting, reconciliation, end-to-end runs.

Statistical assertions use windows several standard deviations wide at the
configured sizes, with fixed seeds throughout; nothing here should flake.
"""

from __future__ import annotations

import collections
import functools
import math
import random
import struct
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import qkdlab.protocol as protocol_module
from qkdlab.codes import code_from_descriptor, rec_repetition
from qkdlab.gf2 import BitVec
from qkdlab.protocol import (
    ABORT_CONFIRM,
    ABORT_DELTA,
    ABORT_MALFORMED,
    ABORT_PHASE,
    ABORT_POOL,
    ABORT_RECONCILE,
    ABORT_SIFT,
    ABORT_SOURCE,
    ABORT_TRANSPORT,
    ABORT_VERSION,
    BURST_HEAD,
    ROLE_ALICE,
    ROLE_BOB,
    TAG_ABORT,
    TAG_BASES_A_AND_R,
    TAG_BASES_B,
    TAG_CODE,
    TAG_DELTA_DECISION,
    TAG_DONE,
    TAG_HELLO,
    TAG_KEY_CONFIRM,
    TAG_NAMES,
    TAG_PERM,
    TAG_QBURST,
    TAG_SUBSET_S,
    TAG_SYNDROME_ENC,
    TAG_TEST_BITS,
    WIRE_VERSION,
    AliceSession,
    BobSession,
    CustomUnitaryChannel,
    DepolarizingChannel,
    DetectorModel,
    EntangledSource,
    InterceptResendChannel,
    LeakyTwoCopySource,
    PerfectSource,
    ProtocolError,
    ReplayMismatch,
    RotatedZSource,
    SecretPool,
    SessionConfig,
    Transcript,
    TranscriptRecord,
    WireMessage,
    _NAME_TAGS,
    check_basis_independence,
    choose_reconciliation_code,
    decode_bases_a_and_r,
    decode_bases_b,
    decode_delta,
    decode_perm,
    decode_syndrome,
    encode_bases_a_and_r,
    encode_bases_b,
    encode_delta,
    encode_hello,
    encode_perm,
    encode_qburst,
    encode_syndrome,
    estimate_error,
    replay_protocol,
    run_protocol,
    run_protocol3,
    sift,
    source_from_config,
    states_from_bytes,
    states_to_bytes,
    stream_seed,
)

PoolExhausted = __import__("qkdlab.protocol", fromlist=["PoolExhausted"]).PoolExhausted


# ---------------------------------------------------------------------------
# source models and the compliance gate


def test_perfect_source_is_basis_independent():
    assert check_basis_independence(PerfectSource()) < 1e-14


def test_rotated_source_is_basis_independent_for_any_angle():
    for theta in [0.1, 0.3, 1.0, 2.2, math.pi]:
        assert check_basis_independence(RotatedZSource(theta)) < 1e-12


def test_entangled_source_is_basis_independent_for_any_tilt():
    for phi in [0.0, 0.2, 0.7, 1.3]:
        assert check_basis_independence(EntangledSource(phi)) < 1e-12


def test_entangled_source_untilted_reduces_to_textbook_states():
    src = EntangledSource(0.0)
    ref = PerfectSource()
    for a in range(2):
        for g in range(2):
            assert abs(src.probs[a][g] - 0.25) < 1e-12
            assert np.max(np.abs(src.emission[a][g] - ref.emission[a][g])) < 1e-12


def test_entangled_source_tilt_changes_states_not_compliance():
    src = EntangledSource(0.6)
    ref = PerfectSource()
    assert np.max(np.abs(src.emission[1][0] - ref.emission[1][0])) > 0.01
    assert check_basis_independence(src) < 1e-12


def test_leaky_source_distance_matches_closed_form():
    # averaging the two-copy emissions leaves lam/4 * (ZZ - XX), whose
    # trace norm is 2*lam, so the distance comes out at lam/2
    for lam in [0.1, 0.25, 0.5, 0.9, 1.0]:
        got = check_basis_independence(LeakyTwoCopySource(lam))
        assert abs(got - lam / 2.0) < 1e-12


def test_biased_key_bits_break_basis_independence():
    # averaged emission is I/2 + (1/2-b)Z in one basis and the X twin in
    # the other; the gap has trace norm sqrt(2)|1-2b|
    for bias in [0.5, 0.6, 0.7, 0.9]:
        got = check_basis_independence(PerfectSource(bias=bias))
        assert abs(got - math.sqrt(2.0) * abs(0.5 - bias)) < 1e-12


def test_basis_independence_zero_iff_compliant():
    assert check_basis_independence(PerfectSource()) < 1e-12
    assert check_basis_independence(RotatedZSource(0.8)) < 1e-12
    assert check_basis_independence(EntangledSource(0.4)) < 1e-12
    assert check_basis_independence(LeakyTwoCopySource(0.5)) == pytest.approx(0.25)


def test_source_factory_roundtrip():
    assert source_from_config({"kind": "perfect"}).kind == "perfect"
    assert source_from_config({"kind": "rotated_z", "theta": 0.3}).theta == 0.3
    assert source_from_config({"kind": "entangled", "phi": 0.1}).phi == 0.1
    assert source_from_config({"kind": "leaky_two_copy"}).leak_prob == 0.5
    with pytest.raises(ValueError):
        source_from_config({"kind": "carrier_pigeon"})


def test_source_parameter_validation():
    with pytest.raises(ValueError):
        PerfectSource(bias=0.0)
    with pytest.raises(ValueError):
        LeakyTwoCopySource(leak_prob=1.5)


# ---------------------------------------------------------------------------
# channels and detector


def test_depolarizing_flip_probability():
    chan = DepolarizingChannel(0.12)
    zero = np.zeros((200_000, 2, 2), dtype=np.complex128)
    zero[:, 0, 0] = 1.0
    out = chan.apply_batch(zero, np.random.default_rng(1))
    p_one = out[:, 1, 1].real
    assert np.allclose(p_one, 0.06)  # p/2 lands on the orthogonal state


def test_intercept_resend_error_rate_and_output_purity():
    chan = InterceptResendChannel()
    m = 200_000
    zero = np.zeros((m, 2, 2), dtype=np.complex128)
    zero[:, 0, 0] = 1.0
    out = chan.apply_batch(zero, np.random.default_rng(2))
    p_err = float(np.mean(out[:, 1, 1].real))
    assert abs(p_err - 0.25) < 0.01
    # every forwarded state is one of the four reference states
    plus = 0.5 * np.ones((2, 2))
    refs = np.stack(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), plus, plus * np.array([[1, -1], [-1, 1]])]
    ).astype(np.complex128)
    gaps = np.min(
        np.max(np.abs(out[:, None, :, :] - refs[None, :, :, :]), axis=(2, 3)), axis=1
    )
    assert np.max(gaps) < 1e-12


def test_custom_channel_pure_rotation_matches_direct_conjugation():
    theta = 0.7
    ry = np.array(
        [
            [math.cos(theta / 2), -math.sin(theta / 2)],
            [math.sin(theta / 2), math.cos(theta / 2)],
        ],
        dtype=np.complex128,
    )
    chan = CustomUnitaryChannel(np.kron(np.eye(2), ry))
    rng = np.random.default_rng(3)
    states = np.zeros((16, 2, 2), dtype=np.complex128)
    for i in range(16):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        states[i] = np.outer(v, v.conj())
    out = chan.apply_batch(states, rng)
    want = np.einsum("ij,mjk,lk->mil", ry, states, ry.conj())
    assert np.max(np.abs(out - want)) < 1e-12


def test_custom_channel_copy_gate_dephases_superpositions():
    # controlled flip of the ancilla by the signal bit: Z states pass
    # through untouched, X states lose their coherence entirely
    u = np.zeros((4, 4))
    for anc in range(2):
        for sig in range(2):
            u[2 * (anc ^ sig) + sig, 2 * anc + sig] = 1.0
    chan = CustomUnitaryChannel(u)
    states = np.zeros((2, 2, 2), dtype=np.complex128)
    states[0] = np.diag([1.0, 0.0])
    states[1] = 0.5 * np.ones((2, 2))
    out = chan.apply_batch(states, np.random.default_rng(0))
    assert np.max(np.abs(out[0] - np.diag([1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(out[1] - 0.5 * np.eye(2))) < 1e-12


def test_custom_channel_rejects_nonunitary():
    with pytest.raises(ValueError):
        CustomUnitaryChannel(np.ones((4, 4)))


def test_detector_exact_outcomes_on_eigenstates():
    det = DetectorModel()
    plus = np.full((50, 2, 2), 0.5, dtype=np.complex128)
    ones = np.zeros((50, 2, 2), dtype=np.complex128)
    ones[:, 1, 1] = 1.0
    h, seen = det.measure_batch(plus, np.ones(50, dtype=np.uint8), np.random.default_rng(4))
    assert seen.all() and not h.any()
    h, seen = det.measure_batch(ones, np.zeros(50, dtype=np.uint8), np.random.default_rng(5))
    assert seen.all() and h.all()


def test_detector_efficiency_validation():
    with pytest.raises(ValueError):
        DetectorModel(efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorModel(efficiency=1.2)


@pytest.mark.parametrize("epsilon, efficiency", [(63.0, 1.0), (15.0, 0.5)])
def test_burst_limit_is_exactly_two_to_the_twenty(epsilon, efficiency):
    # omega_size = 2 * ceil(2n(1+eps)/eff^2) = 256n here: n=4096 fills the cap
    at_cap = SessionConfig(n=4096, epsilon=epsilon, detector=DetectorModel(efficiency))
    assert at_cap.omega_size == 1 << 20
    with pytest.raises(ValueError, match="burst limit"):
        SessionConfig(n=4097, epsilon=epsilon, detector=DetectorModel(efficiency))


# ---------------------------------------------------------------------------
# secret pool and seed derivation


def test_stream_seed_values_are_stable():
    # replay across machines depends on these derivations never moving
    assert stream_seed(0, "pool") == 9703776615011949270
    assert stream_seed(0, "pool") != stream_seed(1, "pool")
    assert stream_seed(0, "alice|emit") != stream_seed(0, "bob|quantum")


def test_pool_bits_are_stable_and_ordered():
    pool = SecretPool(stream_seed(0, "pool"), 64)
    assert pool.take(16).value == 59430
    assert pool.take(8).value == 238
    assert pool.remaining() == 40


def test_pool_exhaustion():
    pool = SecretPool(1, 10)
    pool.take(10)
    with pytest.raises(PoolExhausted):
        pool.take(1)


def test_pool_same_seed_same_bits():
    a = SecretPool(42, 300)
    b = SecretPool(42, 300)
    assert a.take(300).value == b.take(300).value


# ---------------------------------------------------------------------------
# wire codecs


def test_hello_layout():
    cfg = SessionConfig(n=64, epsilon=0.35, seed=9)
    version, role, n, epsilon, delta_max, omega = struct.unpack(
        ">HBIddI", encode_hello(cfg, ROLE_BOB)
    )
    assert version == WIRE_VERSION == 2
    assert role == ROLE_BOB
    assert n == 64
    assert epsilon == 0.35
    assert delta_max == cfg.delta_max
    assert omega == cfg.omega_size


def test_qburst_roundtrip():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(17, 2)) + 1j * rng.normal(size=(17, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    states = np.einsum("mi,mj->mij", v, v.conj())
    (msg,) = encode_qburst(states_to_bytes(states))
    assert msg.tag == TAG_QBURST
    assert BURST_HEAD.unpack_from(msg.payload) == (0, 17)
    assert np.array_equal(states_from_bytes(msg.payload[BURST_HEAD.size :]), states)


def test_bases_roundtrips():
    syms = np.array([0, 1, 2, 1, 0, 2, 2, 1, 0], dtype=np.uint8)
    assert np.array_equal(decode_bases_b(encode_bases_b(syms)), syms)
    a = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    r = np.array([1, 1, 0, 0, 1], dtype=np.uint8)
    a2, r2 = decode_bases_a_and_r(encode_bases_a_and_r(a, r))
    assert np.array_equal(a2, a) and np.array_equal(r2, r)


def test_delta_perm_syndrome_roundtrips():
    assert decode_delta(encode_delta(0.25, True)) == (0.25, True)
    assert decode_delta(encode_delta(0.5, False)) == (0.5, False)
    perm = [3, 0, 2, 1]
    assert decode_perm(encode_perm(perm)).tolist() == perm
    enc = BitVec.from_str("1011001")
    desc, back = decode_syndrome(encode_syndrome("rec_hamming:n=14", enc))
    assert desc == "rec_hamming:n=14" and back == enc


def test_codec_length_mismatches_raise():
    syms = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ProtocolError):
        decode_bases_b(encode_bases_b(syms) + b"\x00")
    with pytest.raises(ProtocolError):
        decode_perm(encode_perm([0, 1]) + b"\x00")


# ---------------------------------------------------------------------------
# transcript


def test_transcript_text_roundtrip():
    t = Transcript()
    t.append("BASES_B", "bob", b"\x01\x02")
    t.append("DONE_MARK", "alice", b"")
    back = Transcript.from_text(t.to_text())
    assert back == t
    assert "-" in t.to_text()


def test_transcript_equality_is_byte_exact():
    t1 = Transcript()
    t1.append("CODE", "bob", b"abc")
    t2 = Transcript()
    t2.append("CODE", "bob", b"abd")
    assert t1 != t2


# ---------------------------------------------------------------------------
# sifting and error estimation


def test_sift_hand_enumeration():
    a = [0, 1, 0, 1, 0, 1, 0, 1]
    b = [0, 0, 2, 1, 1, 1, 0, 0]
    r_mask = [1, 1, 1, 1, 0, 0, 0, 0]
    res = sift(a, b, r_mask, 1, random.Random(0))
    assert res.abort_reason is None
    assert res.test_set == (0, 3)
    assert res.key_set in ((4,), (7,))


def test_sift_aborts_when_no_opposite_basis_matches():
    # receiver bases equal to announced ones everywhere: T is huge but the
    # untested half offers nothing measured in the sent basis
    a = [0, 1] * 8
    b = list(a)
    r_mask = [1] * 8 + [0] * 8
    res = sift(a, b, r_mask, 2, random.Random(0))
    assert res.abort_reason == ABORT_SIFT
    assert len(res.test_set) == 8


def test_sift_aborts_on_all_null():
    res = sift([0] * 8, [2] * 8, [1] * 4 + [0] * 4, 1, random.Random(0))
    assert res.abort_reason == ABORT_SIFT
    assert res.test_set == ()


def test_sift_test_half_size_statistics():
    rng = np.random.default_rng(7)
    pick = random.Random(8)
    m, n = 64, 8
    sizes = []
    for _ in range(200):
        a = rng.integers(0, 2, size=m)
        b = rng.integers(0, 2, size=m)
        r_mask = np.zeros(m, dtype=int)
        r_mask[pick.sample(range(m), m // 2)] = 1
        res = sift(a.tolist(), b.tolist(), r_mask.tolist(), n, pick)
        sizes.append(len(res.test_set))
        if res.key_set is not None:
            assert len(res.key_set) == n
            assert all(not r_mask[i] and b[i] == 1 - a[i] for i in res.key_set)
    # |T| ~ Binomial(32, 1/2): mean 16, sd 2.83
    assert abs(np.mean(sizes) - 16.0) < 0.7


def test_estimate_error_values():
    assert estimate_error([0, 0, 0], [0, 0, 0]) == 0.0
    assert estimate_error([1, 1], [0, 0]) == 1.0
    assert estimate_error([0] * 24, [1] * 3 + [0] * 21) == 0.125
    with pytest.raises(ValueError):
        estimate_error([0], [0, 1])
    with pytest.raises(ValueError):
        estimate_error([], [])


def test_estimate_error_counts_ones_against_zero_reference():
    # the adversarial-preparation variant scores outcome-one as an error
    assert estimate_error([0] * 8, [1, 0, 1, 0, 0, 0, 0, 0]) == 0.25


# ---------------------------------------------------------------------------
# reconciliation ladder


def test_ladder_picks_match_exact_binomial_arithmetic():
    assert choose_reconciliation_code(16, 0.0, 1e-6, 1e-4).descriptor() == "rec_identity:n=16"
    assert choose_reconciliation_code(16, 0.0, 0.001, 1e-4).descriptor() == "rec_hamming:n=16"
    got = choose_reconciliation_code(16, 0.0, 0.05, 1e-4)
    assert got.descriptor() == "rec_repetition:n=16,inner=9"
    assert choose_reconciliation_code(16, 0.1, 0.05, 1e-4).descriptor() == "rec_verbatim:n=16"


def test_ladder_cost_is_monotone_in_observed_rate():
    taus = []
    for delta in [0.0, 0.01, 0.02, 0.05, 0.1, 0.2, 0.4]:
        code = choose_reconciliation_code(256, delta, 0.02, 1e-4)
        taus.append(code.n - code.k)
    assert taus == sorted(taus)


def test_ladder_always_returns_matching_length():
    for n in [7, 16, 100, 257]:
        code = choose_reconciliation_code(n, 0.03, 0.05, 1e-4)
        assert code.n == n


# ---------------------------------------------------------------------------
# full sessions


def _noiseless_cfg(n=16, seed=7, **kw):
    return SessionConfig(n=n, epsilon=0.35, seed=seed, **kw)


def test_noiseless_run_produces_equal_keys():
    res = run_protocol(_noiseless_cfg())
    assert res.stats.abort_reason is None
    assert res.stats.delta == 0.0
    assert res.alice_key == res.bob_key
    assert res.alice_key is not None and res.alice_key.n == res.stats.r
    assert res.stats.code_descriptor == "hamming_blocks:n=16"
    assert res.stats.r == 10


def test_transcript_has_every_announcement_once():
    res = run_protocol(_noiseless_cfg())
    steps = [rec.step for rec in res.transcript.records]
    assert steps == [
        "BASES_B",
        "BASES_A_AND_R",
        "SUBSET_S",
        "TEST_BITS",
        "DELTA_DECISION",
        "PERM",
        "CODE",
        "SYNDROME_ENC",
        "KEY_CONFIRM",
    ]
    assert res.alice.transcript == res.bob.transcript


def test_final_key_is_the_coset_label_of_the_sifted_key():
    res = run_protocol(_noiseless_cfg(seed=11))
    pa = code_from_descriptor(res.stats.code_descriptor)
    assert res.bob_key == pa.coset_key(res.bob.kappa)
    assert res.alice.kappa == res.bob.kappa


def test_plain_privacy_code_session_stays_small():
    # a plain [n, 1] code as the key-extraction code: its coset key is one
    # packed parity, with no n-by-n bit array behind it (16.8 MB at n=4096)
    tracemalloc.start()
    try:
        res = run_protocol(_noiseless_cfg(n=4096, code_policy="repetition"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.stats.abort_reason is None
    assert res.alice_key == res.bob_key == BitVec(1, res.bob.kappa.weight() & 1)
    assert peak < 16 << 20


def test_same_seed_reproduces_everything():
    cfg = SessionConfig(n=32, epsilon=0.35, seed=5, channel=DepolarizingChannel(0.05))
    r1 = run_protocol(cfg)
    r2 = run_protocol(cfg)
    assert r1.transcript == r2.transcript
    assert r1.alice_key == r2.alice_key and r1.bob_key == r2.bob_key
    r3 = run_protocol(
        SessionConfig(n=32, epsilon=0.35, seed=6, channel=DepolarizingChannel(0.05))
    )
    assert r1.transcript != r3.transcript


def test_replay_accepts_genuine_and_rejects_tampered():
    cfg = SessionConfig(n=32, epsilon=0.35, seed=5, channel=DepolarizingChannel(0.05))
    res = run_protocol(cfg)
    again = replay_protocol(cfg, res.transcript)
    assert again.bob_key == res.bob_key
    forged = Transcript.from_text(res.transcript.to_text())
    rec = forged.records[3]
    flipped = rec.payload[:-1] + bytes([rec.payload[-1] ^ 1])
    forged.records[3] = type(rec)(rec.step, rec.sender, flipped)
    with pytest.raises(ReplayMismatch):
        replay_protocol(cfg, forged)


def test_intercept_resend_is_caught():
    cfg = SessionConfig(
        n=512, epsilon=0.35, seed=1, channel=InterceptResendChannel(), delta_max=0.15
    )
    res = run_protocol(cfg)
    assert res.stats.abort_reason == ABORT_DELTA
    assert 0.19 < res.stats.delta < 0.31
    assert res.alice_key is None and res.bob_key is None
    assert res.transcript.records[-1].step == "DELTA_DECISION"


def test_depolarizing_run_still_agrees():
    cfg = SessionConfig(n=512, epsilon=0.35, seed=1, channel=DepolarizingChannel(0.1))
    res = run_protocol(cfg)
    assert res.stats.abort_reason is None
    assert 0.02 < res.stats.delta < 0.08
    assert res.alice_key == res.bob_key is not None


def test_reconciliation_repairs_even_heavy_noise():
    # verdict threshold wide open: the verbatim fallback still equalizes
    cfg = SessionConfig(
        n=128, epsilon=0.35, seed=4, channel=InterceptResendChannel(), delta_max=0.45
    )
    res = run_protocol(cfg)
    assert res.stats.abort_reason is None
    assert res.alice_key == res.bob_key is not None
    assert res.stats.rec_descriptor == "rec_verbatim:n=128"


def test_abort_is_monotone_in_the_threshold():
    base = dict(n=128, epsilon=0.35, seed=2, channel=InterceptResendChannel())
    probe = run_protocol(SessionConfig(delta_max=0.49, **base))
    delta = probe.stats.delta
    flags = []
    for dm in [0.05, 0.15, delta - 0.01, delta + 0.01, 0.45, 0.49]:
        res = run_protocol(SessionConfig(delta_max=dm, **base))
        assert res.stats.delta == delta  # verdict does not disturb the estimate
        flags.append(res.stats.abort_reason is not None)
        assert (res.stats.abort_reason is not None) == (delta > dm)
    assert flags == sorted(flags, reverse=True)


def test_low_efficiency_runs_rarely_abort():
    aborts = 0
    for seed in range(30):
        cfg = SessionConfig(
            n=64, epsilon=0.35, seed=seed, detector=DetectorModel(efficiency=0.8)
        )
        res = run_protocol(cfg)
        if res.stats.abort_reason is not None:
            aborts += 1
        else:
            assert res.alice_key == res.bob_key
    assert aborts <= 1  # budget is 5% of runs


def test_nulls_are_visible_and_discarded():
    cfg = SessionConfig(n=32, epsilon=0.35, seed=3, detector=DetectorModel(efficiency=0.5))
    res = run_protocol(cfg)
    assert (res.bob.b_symbols == 2).sum() > 0
    for i in res.bob.test_set:
        assert res.bob.b_symbols[i] != 2
    if res.bob.key_set:
        for i in res.bob.key_set:
            assert res.bob.b_symbols[i] != 2


def test_leaky_source_is_rejected_before_any_signal():
    res = run_protocol(_noiseless_cfg(source=LeakyTwoCopySource(0.5)))
    assert res.stats.abort_reason == ABORT_SOURCE
    assert [r.step for r in res.transcript.records] == ["ABORT"]
    assert res.alice.a_bits is None  # nothing was ever emitted


def test_pool_exhaustion_aborts():
    res = run_protocol(SessionConfig(n=64, epsilon=0.35, seed=2, pool_bits=64))
    assert res.stats.abort_reason == ABORT_POOL


def test_miscorrection_is_caught_by_the_confirmation_hash():
    # a reconciliation target so loose the chosen code corrects nothing,
    # over a channel that does flip key bits
    cfg = SessionConfig(
        n=32,
        epsilon=0.2,
        seed=0,
        channel=DepolarizingChannel(0.05),
        rec_target_fail=0.9999,
    )
    res = run_protocol(cfg)
    assert res.stats.rec_descriptor == "rec_identity:n=32"
    assert res.stats.abort_reason == ABORT_CONFIRM
    assert res.alice_key is None and res.bob_key is None


def test_hello_disagreement_aborts():
    bob = BobSession(SessionConfig(n=16, epsilon=0.35, seed=0))
    other = SessionConfig(n=32, epsilon=0.35, seed=0)
    out = bob.on_message(WireMessage(0x01, encode_hello(other, ROLE_ALICE)))
    assert bob.abort_reason == ABORT_VERSION
    assert out and out[0].tag == TAG_ABORT


def _drive_alice_from_transcript(cfg, transcript, swap_step=None, swap_payload=None):
    """Replay a recorded partner against a fresh sender session, optionally
    substituting one announcement."""
    alice = AliceSession(cfg)
    alice.start()
    alice.on_message(WireMessage(0x01, encode_hello(cfg, ROLE_BOB)))
    for rec in transcript.records:
        if rec.sender != "bob":
            continue
        payload = rec.payload
        if rec.step == swap_step:
            payload = swap_payload
        alice.on_message(WireMessage(_NAME_TAGS[rec.step], payload))
        if alice.terminal:
            break
    return alice


def test_decoding_failure_surfaces_as_reconcile_abort(monkeypatch):
    # every code the ladder picks is perfect, so no honest session fails to
    # decode: both parties are handed four-bit majority blocks instead, and
    # the syndrome's offset from the sender's word sits two flips inside one
    # block: no coset leader within radius one, so the decode must give up
    monkeypatch.setattr(
        protocol_module, "choose_reconciliation_code", lambda n, *rest: rec_repetition(n, 4)
    )
    cfg = _noiseless_cfg(seed=13)
    res = run_protocol(cfg)
    assert res.stats.abort_reason is None
    assert res.stats.rec_descriptor == "rec_repetition:n=16,inner=4"
    rec4 = rec_repetition(16, 4)
    pattern = BitVec.from_bits([1, 1] + [0] * 14)
    target = rec4.syndrome(res.bob.kappa + pattern)
    pool = SecretPool(stream_seed(cfg.seed, "pool"), cfg.pool_capacity)
    otp = pool.take(target.n)
    forged = encode_syndrome(rec4.descriptor(), target + otp)
    alice = _drive_alice_from_transcript(
        cfg, res.transcript, swap_step="SYNDROME_ENC", swap_payload=forged
    )
    assert alice.abort_reason == ABORT_RECONCILE


def test_ladder_codes_beyond_the_leader_table_reconcile():
    # p = 0.06 + 0.05 makes the ladder pick majority blocks of 17-25 bits,
    # whose redundancy is past the coset-leader table; correction takes the
    # codeword-enumeration route instead of raising
    beyond_table = 0
    for seed in range(40):
        cfg = SessionConfig(n=256, epsilon=0.05, seed=seed, channel=DepolarizingChannel(0.06))
        res = run_protocol(cfg)
        if res.stats.abort_reason is None:
            assert res.alice_key is not None and res.alice_key == res.bob_key
            inner = int(res.stats.rec_descriptor.rsplit("inner=", 1)[1])
            beyond_table += inner > 15
    assert beyond_table > 0


@functools.cache
def _honest_run(n):
    return run_protocol(_noiseless_cfg(n=n, seed=13))


# peer-named codes that are too long, or of the session's own length but
# costly to build or to correct with (seconds to minutes when built)
_HOSTILE_DESCRIPTORS = [
    (16, step, desc)
    for step in ("CODE", "SYNDROME_ENC")
    for desc in ("repetition:n=10000000", "identity:n=70000")
] + [
    (256, "CODE", "random:n=256,k=22,seed=1"),
    (256, "SYNDROME_ENC", "random:n=256,k=22,seed=1"),
    (256, "SYNDROME_ENC", "rec_repetition:n=256,inner=256"),
    (4095, "CODE", "hamming:n=4095"),
    (4095, "SYNDROME_ENC", "hamming:n=4095"),
]


@pytest.mark.parametrize(
    "n, step, desc",
    [pytest.param(*case, id=f"{case[1]}-{case[2]}") for case in _HOSTILE_DESCRIPTORS],
)
def test_oversized_descriptor_aborts_before_building(n, step, desc):
    res = _honest_run(n)
    payload = desc.encode() if step == "CODE" else encode_syndrome(desc, BitVec(8, 0))
    start = time.perf_counter()
    alice = _drive_alice_from_transcript(
        res.alice.cfg, res.transcript, swap_step=step, swap_payload=payload
    )
    assert time.perf_counter() - start < 0.1
    assert alice.abort_reason == ABORT_PHASE


@pytest.mark.parametrize("cut", [lambda p: p[:-1], lambda p: p + b"\x00", lambda p: p[:3]])
def test_malformed_syndrome_payload_aborts(cut):
    cfg = _noiseless_cfg(seed=13)
    res = run_protocol(cfg)
    genuine = next(r.payload for r in res.transcript.records if r.step == "SYNDROME_ENC")
    alice = _drive_alice_from_transcript(
        cfg, res.transcript, swap_step="SYNDROME_ENC", swap_payload=cut(genuine)
    )
    assert alice.abort_reason == ABORT_PHASE


# ---------------------------------------------------------------------------
# hostile input: every byte string from the peer ends in a named abort


def _pump_with(cfg, rewrite):
    """Run a session in process, handing each message to
    `rewrite(index, msg)`, which returns the messages delivered in its
    place.  Returns both sessions once the queue drains."""
    alice, bob = AliceSession(cfg), BobSession(cfg)
    queue = collections.deque(("alice", m) for m in alice.start())
    index = 0
    while queue:
        sender, msg = queue.popleft()
        receiver = bob if sender == "alice" else alice
        for out in rewrite(index, msg):
            queue.extend((receiver.role_name, m) for m in receiver.on_message(out))
        index += 1
    return alice, bob


_FUZZ_CFG = _noiseless_cfg(seed=13)


@functools.cache
def _honest_messages() -> tuple[WireMessage, ...]:
    sent = []
    _pump_with(_FUZZ_CFG, lambda i, msg: sent.append(msg) or [msg])
    return tuple(sent)


def test_honest_session_sends_one_burst_message():
    names = " ".join(m.name() for m in _honest_messages())
    assert names == (
        "HELLO HELLO QBURST BASES_B BASES_A_AND_R SUBSET_S TEST_BITS"
        " DELTA_DECISION PERM CODE SYNDROME_ENC KEY_CONFIRM DONE"
    )


@pytest.mark.parametrize(
    "tag",
    [TAG_BASES_B, TAG_BASES_A_AND_R, TAG_SUBSET_S, TAG_TEST_BITS, TAG_DELTA_DECISION, TAG_PERM],
)
def test_one_byte_payload_is_a_malformed_message(tag):
    def rewrite(i, msg):
        return [WireMessage(tag, b"\x01")] if msg.tag == tag else [msg]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_MALFORMED
    receiver = bob if tag in (TAG_BASES_A_AND_R, TAG_TEST_BITS) else alice
    assert receiver.abort_detail.startswith(TAG_NAMES[tag] + ":")


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    cut=st.integers(1, 80),
    tail=st.binary(min_size=1, max_size=80),
    extend=st.booleans(),
)
def test_truncated_or_extended_message_ends_in_named_abort(data, cut, tail, extend):
    honest = _honest_messages()
    # the last message, DONE, arrives after Alice has finished
    index = data.draw(st.integers(0, len(honest) - 2), label="index")

    def rewrite(i, msg):
        if i != index:
            return [msg]
        payload = msg.payload + tail if extend else msg.payload[:-cut]
        return [WireMessage(msg.tag, payload)]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    if not (alice.terminal or bob.terminal):
        # a burst cut at a state boundary reads as one still in flight; over
        # a socket the wait ends in a transport abort
        assert honest[index].tag == TAG_QBURST and not extend and cut % 64 == 0
        assert (alice.phase, bob.phase) == ("await_bases", "collect")
        return
    assert alice.abort_reason == bob.abort_reason
    assert alice.abort_reason in (ABORT_PHASE, ABORT_MALFORMED, ABORT_VERSION)
    assert alice.final_key is None and bob.final_key is None


# every waiting phase of either party, and the one tag it accepts
_EXPECTED_TAGS = {
    ("alice", "hello"): TAG_HELLO,
    ("alice", "await_bases"): TAG_BASES_B,
    ("alice", "await_subset"): TAG_SUBSET_S,
    ("alice", "await_delta"): TAG_DELTA_DECISION,
    ("alice", "await_perm"): TAG_PERM,
    ("alice", "await_code"): TAG_CODE,
    ("alice", "await_syndrome"): TAG_SYNDROME_ENC,
    ("alice", "await_confirm"): TAG_KEY_CONFIRM,
    ("bob", "hello"): TAG_HELLO,
    ("bob", "collect"): TAG_QBURST,
    ("bob", "await_bases_a"): TAG_BASES_A_AND_R,
    ("bob", "await_test_bits"): TAG_TEST_BITS,
    ("bob", "await_done"): TAG_DONE,
}


def _honest_party_in(role, phase):
    """The `role` party of an honest session, stopped as it enters `phase`."""
    alice, bob = AliceSession(_FUZZ_CFG), BobSession(_FUZZ_CFG)
    party = alice if role == "alice" else bob
    queue = collections.deque(("alice", m) for m in alice.start())
    while party.phase != phase:
        sender, msg = queue.popleft()
        receiver = bob if sender == "alice" else alice
        queue.extend((receiver.role_name, m) for m in receiver.on_message(msg))
    return party


@pytest.mark.parametrize(
    "role,phase,tag",
    [
        (role, phase, tag)
        for (role, phase), expected in _EXPECTED_TAGS.items()
        for tag in TAG_NAMES
        if tag not in (expected, TAG_ABORT)
    ],
    ids=lambda v: TAG_NAMES.get(v, v) if isinstance(v, int) else v,
)
def test_out_of_phase_message_aborts(role, phase, tag):
    party = _honest_party_in(role, phase)
    before = list(party.transcript.records)
    # a well-formed message of the wrong kind: the guard, not a decoder, ends it
    stray = next(m for m in _honest_messages() if m.tag == tag)
    out = party.on_message(stray)
    assert party.abort_reason == ABORT_PHASE and party.final_key is None
    assert out == [WireMessage(TAG_ABORT, ABORT_PHASE.encode())]
    assert party.transcript.records == before + [
        TranscriptRecord("ABORT", role, ABORT_PHASE.encode())
    ]


def _burst_rewrite(hostile):
    return lambda i, msg: hostile(msg) if msg.tag == TAG_QBURST else [msg]


def _reheaded(msg, first, total):
    return WireMessage(TAG_QBURST, BURST_HEAD.pack(first, total) + msg.payload[BURST_HEAD.size :])


@pytest.mark.parametrize(
    "hostile",
    [
        lambda m: [_reheaded(m, 1, _FUZZ_CFG.omega_size)],  # wrong first index
        lambda m: [_reheaded(m, 0, _FUZZ_CFG.omega_size + 1)],  # wrong total
        lambda m: [WireMessage(TAG_QBURST, m.payload[:-1])],  # a partial state
        lambda m: [WireMessage(TAG_QBURST, m.payload[: BURST_HEAD.size])],  # empty body
        lambda m: [WireMessage(TAG_QBURST, m.payload[:5])],  # short head
        lambda m: [m, m],  # a chunk after the burst is complete
        lambda m: [WireMessage(TAG_QBURST, m.payload + m.payload[-64:])],  # overrun
    ],
    ids=["first", "total", "partial", "empty", "head", "after", "overrun"],
)
def test_hostile_burst_chunk_is_out_of_order(hostile):
    alice, bob = _pump_with(_FUZZ_CFG, _burst_rewrite(hostile))
    assert alice.abort_reason == bob.abort_reason == ABORT_PHASE


def test_repeated_chunk_of_a_chunked_burst_is_out_of_order(monkeypatch):
    monkeypatch.setattr(protocol_module, "BURST_CHUNK", 16)
    seen = []

    def hostile(msg):
        seen.append(msg)
        return [seen[0]]  # every chunk replaced by the first

    alice, bob = _pump_with(_FUZZ_CFG, _burst_rewrite(hostile))
    assert alice.abort_reason == bob.abort_reason == ABORT_PHASE


@pytest.mark.parametrize("sender", [0, 1])
def test_version_1_hello_is_a_version_mismatch(sender):
    def rewrite(i, msg):
        if i != sender:
            return [msg]
        return [WireMessage(TAG_HELLO, (1).to_bytes(2, "big") + msg.payload[2:])]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_VERSION


@pytest.mark.parametrize("receiver", [AliceSession, BobSession])
def test_hello_with_nan_thresholds_is_a_version_mismatch(receiver):
    cfg = _FUZZ_CFG
    party = receiver(cfg)
    party.start()
    peer_role = ROLE_BOB if receiver is AliceSession else ROLE_ALICE
    hello = struct.pack(
        ">HBIddI", WIRE_VERSION, peer_role, cfg.n, math.nan, math.nan, cfg.omega_size
    )
    out = party.on_message(WireMessage(TAG_HELLO, hello))
    assert party.abort_reason == ABORT_VERSION
    assert [m.tag for m in out] == [TAG_ABORT]


@settings(max_examples=100, deadline=None)
@given(sender=st.sampled_from([0, 1]), at=st.integers(0, 26), flip=st.integers(1, 255))
def test_any_flipped_hello_byte_is_a_version_mismatch(sender, at, flip):
    # messages 0 and 1 are Alice's 27-byte HELLO and Bob's reply
    def rewrite(i, msg):
        if i != sender:
            return [msg]
        payload = bytearray(msg.payload)
        payload[at] ^= flip
        return [WireMessage(TAG_HELLO, bytes(payload))]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_VERSION
    assert alice.final_key is None and bob.final_key is None


def test_flipped_delta_decision_leaves_neither_party_a_key(monkeypatch):
    # Bob proceeds, but the flag reaching Alice says "do not": she aborts
    # without a word, so Bob never gets DONE and must not release his key;
    # once the pump drains he ends as the socket path ends him.
    honest = AliceSession.on_message

    def on_message(self, msg):
        if msg.tag == TAG_DELTA_DECISION:
            msg = WireMessage(msg.tag, msg.payload[:-1] + bytes([msg.payload[-1] ^ 1]))
        return honest(self, msg)

    monkeypatch.setattr(AliceSession, "on_message", on_message)
    res = run_protocol(_noiseless_cfg(seed=3))
    assert res.alice.abort_reason == ABORT_DELTA
    assert res.bob.terminal and res.bob.abort_reason == ABORT_TRANSPORT
    assert res.stats.abort_reason == ABORT_DELTA
    assert res.alice_key is None and res.bob_key is None


def test_rewritten_code_leaves_nobody_a_key():
    # the confirmation hash covers the reconciled word, not the code: had
    # Alice built the code Bob's CODE names, both would finish, keys unequal
    def rewrite(i, msg):
        if msg.tag != TAG_CODE:
            return [msg]
        return [WireMessage(TAG_CODE, b"repetition_blocks:n=16,inner=3")]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_PHASE
    assert alice.final_key is None and bob.final_key is None


_CODE_FAMILIES = (
    "repetition",
    "hamming",
    "identity",
    "zero",
    "random",
    "hamming_blocks",
    "repetition_blocks",
    "rec_hamming",
    "rec_repetition",
    "rec_identity",
    "rec_verbatim",
)

_descriptors = st.one_of(
    st.builds(
        lambda family, params: f"{family}:{','.join(f'{k}={v}' for k, v in params.items())}",
        st.sampled_from(_CODE_FAMILIES) | st.text(max_size=12),
        st.fixed_dictionaries(
            {},
            optional={
                key: st.just(_FUZZ_CFG.n) | st.integers(0, 25) | st.integers(-1, 1 << 16)
                for key in ("n", "k", "seed", "inner")
            },
        ),
    ).map(str.encode),
    st.binary(max_size=40),
)


@settings(max_examples=120, deadline=None)
@given(tag=st.sampled_from([TAG_CODE, TAG_SYNDROME_ENC]), desc=_descriptors)
@example(tag=TAG_CODE, desc=b"repetition:n=16")
def test_only_the_derived_descriptors_are_accepted(tag, desc):
    honest = next(m.payload for m in _honest_messages() if m.tag == tag)
    if tag == TAG_CODE:
        own, payload = honest, desc
    else:
        (dlen,) = struct.unpack_from(">H", honest)
        own = honest[2 : 2 + dlen]
        payload = struct.pack(">H", len(desc)) + desc + honest[2 + dlen :]
    assume(desc != own)

    def rewrite(i, msg):
        return [WireMessage(tag, payload)] if msg.tag == tag else [msg]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_PHASE
    assert alice.final_key is None and bob.final_key is None


@pytest.mark.parametrize(
    "delta", [-1e300, math.nan, -0.01, _FUZZ_CFG.delta_max + 0.01], ids=str
)
def test_proceed_with_a_delta_bob_could_not_send_is_out_of_order(delta):
    def rewrite(i, msg):
        if msg.tag != TAG_DELTA_DECISION:
            return [msg]
        return [WireMessage(TAG_DELTA_DECISION, encode_delta(delta, True))]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_PHASE
    assert alice.final_key is None and bob.final_key is None


def test_session_on_a_built_config_builds_no_privacy_code(monkeypatch):
    cfg = _noiseless_cfg(seed=4)
    built = []
    real = protocol_module.code_from_descriptor
    monkeypatch.setattr(
        protocol_module, "code_from_descriptor", lambda desc: built.append(desc) or real(desc)
    )
    res = run_protocol(cfg)
    assert res.stats.abort_reason is None and res.alice_key == res.bob_key
    assert built == []


def test_abort_with_undecodable_reason_still_aborts():
    bob = BobSession(_FUZZ_CFG)
    bob.on_message(WireMessage(TAG_ABORT, b"\xff\xfe"))
    assert bob.aborted and bob.final_key is None


def test_stats_row_matches_field_order():
    from qkdlab.protocol import STATS_FIELDS

    res = run_protocol(_noiseless_cfg())
    row = res.stats.as_row("run-0")
    assert len(row) == len(STATS_FIELDS)
    assert row[0] == "run-0" and row[1] == 16
    assert row[-1] == ""  # no abort
    res2 = run_protocol(_noiseless_cfg(source=LeakyTwoCopySource(0.5)))
    assert res2.stats.as_row(1)[-1] == ABORT_SOURCE


def test_net_rate_accounts_for_syndrome_and_confirmation():
    res = run_protocol(_noiseless_cfg())
    s = res.stats
    assert s.key_rate_net == (s.r - s.tau - s.confirm_bits) / s.n


# ---------------------------------------------------------------------------
# adversarial-preparation variant


def test_prepared_identity_gives_full_length_key():
    from qkdlab.codes import hamming_blocks

    key, reason, delta = run_protocol3(np.eye(4), 16, hamming_blocks(16), seed=0, epsilon=1.0)
    assert reason is None
    assert delta == 0.0
    assert key is not None and key.n == hamming_blocks(16).k


def test_prepared_superposition_fails_the_test():
    from qkdlab.codes import hamming_blocks

    h = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    key, reason, delta = run_protocol3(
        np.kron(np.eye(2), h), 64, hamming_blocks(64), seed=0, epsilon=0.5, delta_max=0.109
    )
    assert reason == ABORT_DELTA
    assert 0.4 < delta < 0.6
    assert key is None


def test_prepared_keys_vary_with_seed():
    from qkdlab.codes import hamming_blocks

    code = hamming_blocks(16)
    keys = {
        run_protocol3(np.eye(4), 16, code, seed=s, epsilon=1.0)[0].value
        for s in range(8)
    }
    assert len(keys) > 1
