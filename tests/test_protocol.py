"""Session engine tests: source gate, sifting, reconciliation, end-to-end runs.

Statistical assertions use windows several standard deviations wide at the
configured sizes, with fixed seeds throughout; nothing here should flake.
"""

from __future__ import annotations

import collections
import dataclasses
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
from qkdlab.codes import CODE_FAMILIES, code_from_descriptor, rec_repetition
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
    MAX_PALETTE,
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
    SourceModel,
    Transcript,
    TranscriptRecord,
    WireMessage,
    _NAME_TAGS,
    channel_from_config,
    check_basis_independence,
    choose_reconciliation_code,
    decode_bases_a_and_r,
    decode_bases_b,
    decode_bits,
    decode_delta,
    decode_perm,
    decode_qburst,
    decode_syndrome,
    encode_bases_a_and_r,
    encode_bases_b,
    encode_bits,
    encode_delta,
    encode_hello,
    encode_perm,
    encode_qburst,
    encode_syndrome,
    estimate_error,
    replay_protocol,
    run_protocol,
    sift,
    source_from_config,
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
            assert np.max(np.abs(src.palette[2 * a + g] - ref.palette[2 * a + g])) < 1e-12


def test_entangled_source_tilt_changes_states_not_compliance():
    src = EntangledSource(0.6)
    ref = PerfectSource()
    assert np.max(np.abs(src.palette[2] - ref.palette[2])) > 0.01
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


@pytest.mark.parametrize(
    "build",
    [
        lambda: RotatedZSource(math.nan),
        lambda: RotatedZSource(math.inf),
        lambda: EntangledSource(math.nan),
        lambda: CustomUnitaryChannel(np.where(np.eye(4) == 1, np.nan, 0.0)),
    ],
    ids=["nan_theta", "inf_theta", "nan_phi", "nan_unitary"],
)
def test_non_finite_model_parameters_are_rejected(build):
    # a NaN state would slip past every `distance > tolerance` test
    with pytest.raises(ValueError):
        build()


def test_model_defaults_live_in_the_constructors():
    assert source_from_config({}).bias == 0.5
    assert source_from_config({"kind": "rotated_z", "theta": 0.3}).bias == 0.5
    assert source_from_config({"kind": "entangled"}).phi == 0.0
    assert channel_from_config({}).kind == "identity"
    assert channel_from_config({"kind": "depolarizing", "p": 0.2}).p == 0.2
    with pytest.raises(ValueError):
        channel_from_config({"kind": "wormhole"})


@pytest.mark.parametrize(
    "build, cfg",
    [
        (source_from_config, {"kind": "perfect", "bais": 0.7}),
        (source_from_config, {"bias": 0.7, "theta": 0.3}),
        (source_from_config, {"kind": "rotated_z"}),
        (channel_from_config, {"kind": "identity", "p": 0.1}),
        (channel_from_config, {"p": 0.1}),
        (channel_from_config, {"kind": "intercept_resend", "p": 0.1}),
        (channel_from_config, {"kind": "depolarizing"}),
        (channel_from_config, {"kind": "custom"}),
    ],
    ids=[
        "misspelt_source_key",
        "key_the_default_kind_does_not_take",
        "missing_theta",
        "key_on_identity",
        "key_on_default_identity",
        "key_on_intercept_resend",
        "missing_p",
        "missing_unitary",
    ],
)
def test_model_config_keys_are_constructor_parameters(build, cfg):
    with pytest.raises(TypeError):
        build(cfg)


def _nan_source():
    return SourceModel(np.full((2, 2), 0.25), np.full((4, 2, 2), np.nan))


@pytest.mark.parametrize(
    "source",
    [LeakyTwoCopySource(0.5), LeakyTwoCopySource(0.0), PerfectSource(bias=0.6), _nan_source()],
    ids=["leaky", "leaky_without_leak", "biased", "nan_palette"],
)
def test_gate_refuses_a_source_it_cannot_vouch_for(source):
    # two emitted qubits fail even at distance 0: QBURST carries one; a NaN
    # distance fails because the gate asks for `distance <= tolerance`
    res = run_protocol(_noiseless_cfg(source=source))
    assert res.alice.abort_reason == res.bob.abort_reason == ABORT_SOURCE
    assert [r.step for r in res.transcript.records] == ["ABORT"]
    assert res.alice.a_bits is None


# ---------------------------------------------------------------------------
# channels and detector


def test_depolarizing_flip_probability():
    chan = DepolarizingChannel(0.12)
    zero = np.zeros((1, 2, 2), dtype=np.complex128)
    zero[:, 0, 0] = 1.0
    index = np.zeros(200_000, dtype=np.uint8)
    out, out_index = chan.apply_batch(zero, index, np.random.default_rng(1))
    assert out_index is index  # the palette changes, the signals keep their states
    p_one = out[out_index, 1, 1].real
    assert np.allclose(p_one, 0.06)  # p/2 lands on the orthogonal state


def test_intercept_resend_error_rate_and_output_purity():
    chan = InterceptResendChannel()
    m = 200_000
    zero = np.zeros((1, 2, 2), dtype=np.complex128)
    zero[:, 0, 0] = 1.0
    palette, index = chan.apply_batch(zero, np.zeros(m, dtype=np.uint8), np.random.default_rng(2))
    out = palette[index]
    p_err = float(np.mean(out[:, 1, 1].real))
    assert abs(p_err - 0.25) < 0.01
    # every forwarded state is one of the four reference states
    plus = 0.5 * np.ones((2, 2))
    refs = np.stack(
        [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), plus, plus * np.array([[1, -1], [-1, 1]])]
    ).astype(np.complex128)
    assert np.max(np.abs(palette - refs)) < 1e-12
    assert index.dtype == np.uint8 and index.size == m and index.max() < 4


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
    index = rng.integers(0, 16, size=40).astype(np.uint8)
    out, out_index = chan.apply_batch(states, index, rng)
    assert out_index is index
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
    out, _ = chan.apply_batch(states, np.array([1, 0], dtype=np.uint8), np.random.default_rng(0))
    assert np.max(np.abs(out[0] - np.diag([1.0, 0.0]))) < 1e-12
    assert np.max(np.abs(out[1] - 0.5 * np.eye(2))) < 1e-12


def test_custom_channel_rejects_nonunitary():
    with pytest.raises(ValueError):
        CustomUnitaryChannel(np.ones((4, 4)))


def test_detector_exact_outcomes_on_eigenstates():
    det = DetectorModel()
    # the palette |0>, |1>, |+>; signals alternate |1> and |+>
    palette = np.zeros((3, 2, 2), dtype=np.complex128)
    palette[0, 0, 0] = palette[1, 1, 1] = 1.0
    palette[2] = 0.5
    index = np.tile(np.array([1, 2], dtype=np.uint8), 25)
    bases = np.tile(np.array([0, 1], dtype=np.uint8), 25)  # each in its eigenbasis
    h, seen = det.measure_batch(palette, index, bases, np.random.default_rng(4))
    assert seen.all() and np.array_equal(h, np.tile([1, 0], 25))
    zeros = np.zeros(50, dtype=np.uint8)  # |0> measured in Z
    h, seen = det.measure_batch(palette, zeros, zeros, np.random.default_rng(5))
    assert seen.all() and not h.any()


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


def test_replaced_config_has_its_own_burst_size():
    cfg = SessionConfig(n=64, epsilon=0.5)
    assert cfg.omega_size == 2 * math.ceil(2 * 64 * 1.5)
    bigger = dataclasses.replace(cfg, n=100)
    assert bigger.omega_size == 2 * math.ceil(2 * 100 * 1.5)
    assert cfg.omega_size == 2 * math.ceil(2 * 64 * 1.5)


# ---------------------------------------------------------------------------
# secret pool and seed derivation


def test_stream_seed_values_are_stable():
    # replay across machines depends on these derivations never moving
    assert stream_seed(0, "pool") == 9703776615011949270
    assert stream_seed(0, "pool") != stream_seed(1, "pool")
    assert stream_seed(0, "alice|emit") != stream_seed(0, "bob|quantum")


def test_pool_bits_are_stable_and_ordered():
    pool = SecretPool(stream_seed(0, "pool"), 64)
    assert BitVec.from_array(pool.take(16)).value == 59430
    assert BitVec.from_array(pool.take(8)).value == 238
    assert pool.remaining() == 40


def test_pool_exhaustion():
    pool = SecretPool(1, 10)
    pool.take(10)
    with pytest.raises(PoolExhausted):
        pool.take(1)


def test_pool_same_seed_same_bits():
    a = SecretPool(42, 300)
    b = SecretPool(42, 300)
    assert np.array_equal(a.take(300), b.take(300))


# ---------------------------------------------------------------------------
# wire codecs


def test_hello_layout():
    cfg = SessionConfig(n=64, epsilon=0.35, seed=9)
    version, role, n, epsilon, delta_max, omega = struct.unpack(
        ">HBIddI", encode_hello(cfg, ROLE_BOB)
    )
    assert version == WIRE_VERSION == 3
    assert role == ROLE_BOB
    assert n == 64
    assert epsilon == 0.35
    assert delta_max == cfg.delta_max
    assert omega == cfg.omega_size


def test_qburst_roundtrip():
    rng = np.random.default_rng(6)
    v = rng.normal(size=(5, 2)) + 1j * rng.normal(size=(5, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    palette = np.einsum("mi,mj->mij", v, v.conj())
    index = rng.integers(0, 5, size=17).astype(np.uint8)
    msg = encode_qburst(palette, index)
    assert msg.tag == TAG_QBURST
    assert BURST_HEAD.unpack_from(msg.payload) == (17, 5)
    assert msg.payload[BURST_HEAD.size + 5 * 64 :] == index.tobytes()
    got_palette, got_index = decode_qburst(msg.payload)
    assert np.array_equal(got_palette, palette) and np.array_equal(got_index, index)


def test_bases_roundtrips():
    syms = np.array([0, 1, 2, 1, 0, 2, 2, 1, 0], dtype=np.uint8)
    assert np.array_equal(decode_bases_b(encode_bases_b(syms), 9), syms)
    a = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    r = np.array([1, 1, 0, 0, 1], dtype=np.uint8)
    a2, r2 = decode_bases_a_and_r(encode_bases_a_and_r(a, r), 5)
    assert np.array_equal(a2, a) and np.array_equal(r2, r)
    # a well-formed announcement of another count than the session's
    assert decode_bases_b(encode_bases_b(syms), 8) is None
    assert decode_bases_a_and_r(encode_bases_a_and_r(a, r), 6) is None


def test_delta_perm_syndrome_roundtrips():
    assert decode_delta(encode_delta(0.25, True)) == (0.25, True)
    assert decode_delta(encode_delta(0.5, False)) == (0.5, False)
    perm = [3, 0, 2, 1]
    assert decode_perm(encode_perm(perm), 4).tolist() == perm
    assert decode_perm(encode_perm(perm), 5) is None
    enc = np.array([1, 0, 1, 1, 0, 0, 1], dtype=np.uint8)
    desc, back = decode_syndrome(encode_syndrome("rec_hamming:n=14", enc), 7)
    assert desc == "rec_hamming:n=14" and np.array_equal(back, enc)
    assert decode_syndrome(encode_syndrome("rec_hamming:n=14", enc), 6) == (desc, None)
    assert decode_bits(encode_bits(enc), 7).tolist() == enc.tolist()
    assert decode_bits(encode_bits(enc), 8) is None


def test_codec_length_mismatches_raise():
    syms = np.array([0, 1], dtype=np.uint8)
    with pytest.raises(ProtocolError):
        decode_bases_b(encode_bases_b(syms) + b"\x00", 2)
    with pytest.raises(ProtocolError):
        decode_perm(encode_perm([0, 1]) + b"\x00", 2)
    # malformed is malformed whatever count the session expects
    with pytest.raises(ProtocolError):
        decode_bits(encode_bits(syms) + b"\x00", 3)


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
    assert res.test_set.tolist() == [0, 3]
    assert res.key_set.tolist() in ([4], [7])


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
    assert res.test_set.tolist() == []


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


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 4096),
    delta=st.floats(0.0, 0.5),
    epsilon=st.floats(1e-7, 0.5),
    target=st.sampled_from([1e-8, 1e-4, 1e-2]),
)
def test_ladder_memo_returns_the_unmemoized_pick(n, delta, epsilon, target):
    got = choose_reconciliation_code(n, delta, epsilon, target)
    want = choose_reconciliation_code.__wrapped__(n, delta, epsilon, target)
    assert got.descriptor() == want.descriptor()
    assert got.n - got.k == want.n - want.k
    assert choose_reconciliation_code(n, delta, epsilon, target) is got


def test_ladder_memo_is_bounded():
    maxsize = choose_reconciliation_code.cache_info().maxsize
    assert maxsize is not None
    for i in range(maxsize + 1):
        choose_reconciliation_code(16, i / (4 * maxsize), 0.05, 1e-4)
    assert choose_reconciliation_code.cache_info().currsize == maxsize


def test_a_session_builds_its_ladder_pick_once():
    # Bob picks the code first; Alice's call with his announced delta hits
    choose_reconciliation_code.cache_clear()
    cfg = SessionConfig(n=256, epsilon=0.35, seed=5, channel=DepolarizingChannel(0.06))
    res = run_protocol(cfg)
    assert res.stats.abort_reason is None and res.alice_key == res.bob_key
    info = choose_reconciliation_code.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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
    assert res.bob_key == BitVec.from_array(pa.coset_key(res.bob.kappa))
    assert np.array_equal(res.alice.kappa, res.bob.kappa)


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
    assert res.alice_key == res.bob_key == BitVec(1, int(res.bob.kappa.sum()) & 1)
    assert peak < 16 << 20


def test_session_bits_are_packed_only_for_the_final_key(monkeypatch):
    # from sifting on, the key travels as one bit array through every code
    # map; each party packs it once, into its final key
    packed, unpacked = [], []
    from_array, to_array = BitVec.from_array.__func__, BitVec.to_array

    def counted_from_array(cls, bits):
        packed.append(from_array(cls, bits))
        return packed[-1]

    def counted_to_array(self):
        unpacked.append(self)
        return to_array(self)

    monkeypatch.setattr(BitVec, "from_array", classmethod(counted_from_array))
    monkeypatch.setattr(BitVec, "to_array", counted_to_array)
    noisy = SessionConfig(n=256, epsilon=0.05, seed=1, channel=DepolarizingChannel(0.06))
    for cfg, ladder in [(_noiseless_cfg(n=256, seed=0), "rec_verbatim"), (noisy, "rec_repetition")]:
        packed.clear()
        res = run_protocol(cfg)
        assert res.stats.abort_reason is None
        assert res.stats.rec_descriptor.startswith(ladder + ":")
        assert packed == [res.bob_key, res.alice_key]  # Bob's is ready before Alice's
        assert unpacked == []


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
    assert res.bob.test_set.size and res.bob.key_set.size
    assert np.all(res.bob.b_symbols[res.bob.test_set] != 2)
    assert np.all(res.bob.b_symbols[res.bob.key_set] != 2)


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
    pattern = np.array([1, 1] + [0] * 14, dtype=np.uint8)
    target = rec4.syndrome(res.bob.kappa ^ pattern)
    pool = SecretPool(stream_seed(cfg.seed, "pool"), cfg.pool_capacity)
    otp = pool.take(target.size)
    forged = encode_syndrome(rec4.descriptor(), target ^ otp)
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
    payload = desc.encode() if step == "CODE" else encode_syndrome(desc, np.zeros(8, np.uint8))
    start = time.perf_counter()
    alice = _drive_alice_from_transcript(
        res.alice.cfg, res.transcript, swap_step=step, swap_payload=payload
    )
    assert time.perf_counter() - start < 0.1
    assert alice.abort_reason == ABORT_PHASE


@pytest.mark.parametrize(
    "cut",
    [
        lambda p: p[:-1],
        lambda p: p + b"\x00",
        lambda p: p[:3],
        lambda p: p[:-1] + bytes([p[-1] ^ 0x80]),  # a padding bit past the syndrome
    ],
)
def test_malformed_syndrome_payload_aborts(cut):
    cfg = _noiseless_cfg(n=60, seed=13)  # a 60-bit syndrome: four padding bits
    res = run_protocol(cfg)
    genuine = next(r.payload for r in res.transcript.records if r.step == "SYNDROME_ENC")
    assert res.stats.tau % 8
    assert decode_syndrome(genuine, res.stats.tau)[1] is not None
    alice = _drive_alice_from_transcript(
        cfg, res.transcript, swap_step="SYNDROME_ENC", swap_payload=cut(genuine)
    )
    assert alice.abort_reason == ABORT_PHASE


@pytest.mark.parametrize(
    "tag, reason",
    [
        (TAG_BASES_A_AND_R, ABORT_MALFORMED),
        (TAG_SUBSET_S, ABORT_MALFORMED),
        (TAG_TEST_BITS, ABORT_MALFORMED),
        (TAG_SYNDROME_ENC, ABORT_PHASE),  # Alice's syndrome check ends it
    ],
    ids=lambda v: TAG_NAMES.get(v, v) if isinstance(v, int) else v,
)
def test_set_padding_bit_aborts(tag, reason):
    # |Omega| = 324: every bit field of this session ends in a partial byte
    cfg = _noiseless_cfg(n=60, seed=3)
    res = run_protocol(cfg)
    honest = next(m for m in res.transcript.records if m.step == TAG_NAMES[tag])
    if tag == TAG_SYNDROME_ENC:
        bits = res.stats.tau
    else:  # a counted field, or two; the last one ends the payload
        (bits,) = struct.unpack_from(">I", honest.payload)
    assert bits % 8

    def rewrite(i, msg):  # set the top bit of the last byte: a padding bit
        if msg.tag != tag:
            return [msg]
        return [WireMessage(tag, msg.payload[:-1] + bytes([msg.payload[-1] | 0x80]))]

    alice, bob = _pump_with(cfg, rewrite)
    assert alice.abort_reason == bob.abort_reason == reason
    assert alice.final_key is None and bob.final_key is None


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


def _reheaded(msg, total=None, k=None, body=None):
    """`msg` with its head fields and the bytes after its head replaced."""
    old_total, old_k = BURST_HEAD.unpack_from(msg.payload)
    head = BURST_HEAD.pack(old_total if total is None else total, old_k if k is None else k)
    body = msg.payload[BURST_HEAD.size :] if body is None else body
    return WireMessage(TAG_QBURST, head + body)


def _with_index_byte(msg, at, value):
    payload = bytearray(msg.payload)
    payload[at] = value
    return WireMessage(TAG_QBURST, bytes(payload))


_OMEGA = _FUZZ_CFG.omega_size
_STATES = 4 * 64  # the honest palette's bytes


@pytest.mark.parametrize(
    "hostile",
    [
        lambda m: [_with_index_byte(m, BURST_HEAD.size + _STATES, 4)],  # first index >= k
        lambda m: [_with_index_byte(m, -1, MAX_PALETTE - 1)],  # last index >= k
        lambda m: [_reheaded(m, k=0, body=m.payload[-_OMEGA:])],  # empty palette
        # 257 states: one more than an index byte can name
        lambda m: [_reheaded(m, k=257, body=bytes(64 * 257) + m.payload[-_OMEGA:])],
        # a length other than |Omega|, with a body to match it
        lambda m: [_reheaded(m, total=_OMEGA + 1, body=m.payload[BURST_HEAD.size :] + b"\x00")],
        lambda m: [_reheaded(m, total=_OMEGA - 1, body=m.payload[BURST_HEAD.size : -1])],
        lambda m: [WireMessage(TAG_QBURST, m.payload[:5])],  # short head
        lambda m: [WireMessage(TAG_QBURST, m.payload[:-1])],  # a missing index byte
        lambda m: [WireMessage(TAG_QBURST, m.payload + b"\x00")],  # a trailing extra byte
        lambda m: [m, m],  # a second burst after the burst
    ],
    ids=[
        "first", "index", "empty", "oversized", "total", "short", "head", "partial", "overrun",
        "after",
    ],
)
def test_hostile_burst_chunk_is_out_of_order(hostile):
    """Every QBURST that is not one burst of this session's length over a
    palette of 1 to 256 states it indexes ends in phase_order on both sides."""
    alice, bob = _pump_with(_FUZZ_CFG, _burst_rewrite(hostile))
    assert alice.abort_reason == bob.abort_reason == ABORT_PHASE


def _assert_hello_version_mismatch(sender, version):
    def rewrite(i, msg):
        if i != sender:
            return [msg]
        return [WireMessage(TAG_HELLO, version.to_bytes(2, "big") + msg.payload[2:])]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.abort_reason == bob.abort_reason == ABORT_VERSION


@pytest.mark.parametrize("sender", [0, 1])
def test_version_1_hello_is_a_version_mismatch(sender):
    _assert_hello_version_mismatch(sender, 1)


@pytest.mark.parametrize("sender", [0, 1])
def test_version_2_hello_is_a_version_mismatch(sender):
    """A v2 peer, which sends the burst as 64-byte states in chunks."""
    _assert_hello_version_mismatch(sender, 2)


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


def test_hang_up_ends_only_a_waiting_session():
    waiting = BobSession(_noiseless_cfg())
    waiting.hang_up()
    assert waiting.abort_reason == ABORT_TRANSPORT and waiting.phase == "dead"
    assert len(waiting.transcript) == 0
    done = run_protocol(_noiseless_cfg())
    rejected = run_protocol(_noiseless_cfg(source=LeakyTwoCopySource(0.5)))
    assert done.alice.done and rejected.alice.abort_reason == ABORT_SOURCE

    def outcome(party):
        return party.done, party.abort_reason, party.phase, party.final_key, len(party.transcript)

    for party in (done.alice, done.bob, rejected.alice):
        before = outcome(party)
        party.hang_up()
        assert outcome(party) == before


def _unchanged(i, msg):
    return [msg]


def _flip_delta_decision(i, msg):
    if msg.tag != TAG_DELTA_DECISION:
        return [msg]
    return [WireMessage(msg.tag, msg.payload[:-1] + bytes([msg.payload[-1] ^ 1]))]


def _phase_walks(cfg, rewrite):
    """{party: its phases}, Alice's first: the phase at the start and after
    every message delivered to the party while it is not yet terminal, then
    after `hang_up` as `run_protocol` ends a waiting party.  Every state seen
    is also checked for `done` and `final_key` against its phase."""
    alice, bob = AliceSession(cfg), BobSession(cfg)
    walks = {alice: [alice.phase], bob: [bob.phase]}

    def seen(party):
        assert party.done == (party.phase == "finished")
        assert party.final_key is None or party.done
        walks[party].append(party.phase)

    queue = collections.deque(("alice", m) for m in alice.start())
    if alice.terminal:
        seen(alice)
    index = 0
    while queue:
        sender, msg = queue.popleft()
        receiver = bob if sender == "alice" else alice
        for out in rewrite(index, msg):
            if receiver.terminal:
                continue  # a terminal session takes no message
            queue.extend((receiver.role_name, m) for m in receiver.on_message(out))
            seen(receiver)
        index += 1
    for party in (alice, bob):
        if not party.terminal:
            party.hang_up()
            seen(party)
    return walks


@pytest.mark.parametrize(
    "cfg, rewrite, endings",
    [
        (_noiseless_cfg(), _unchanged, ("finished", "finished")),
        (
            _noiseless_cfg(n=64, channel=DepolarizingChannel(0.05)),
            _unchanged,
            ("finished", "finished"),
        ),
        (_noiseless_cfg(channel=InterceptResendChannel()), _unchanged, ("dead", "dead")),
        (SessionConfig(n=64, epsilon=0.35, seed=2, pool_bits=64), _unchanged, ("dead", "dead")),
        (_noiseless_cfg(seed=3), _flip_delta_decision, ("dead", "dead")),
    ],
    ids=["noiseless", "depolarizing", "intercept_resend", "pool_exhausted", "flipped_delta"],
)
def test_phases_walk_the_expects_table_in_order(cfg, rewrite, endings):
    walks = _phase_walks(cfg, rewrite)
    alice, bob = walks
    for party, walk in walks.items():
        order = [*party.expects, "finished"]
        stepped = walk[:-1] if walk[-1] == "dead" else walk
        # one step per delivered message: no phase skipped, none repeated
        assert stepped == order[: len(stepped)], party.role_name
        assert "dead" not in stepped
    assert (alice.phase, bob.phase) == endings
    if endings == ("finished", "finished"):
        assert alice.final_key == bob.final_key is not None
    else:
        assert alice.final_key is None and bob.final_key is None


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


@pytest.mark.parametrize("payload", [b"\x00", b"DONE", bytes(1 << 16)], ids=["byte", "text", "64k"])
def test_a_done_with_a_payload_leaves_bob_no_key(payload):
    # Alice sends DONE empty; had Bob taken a rewritten one, both parties
    # would end done with unequal transcripts
    def rewrite(i, msg):
        return [WireMessage(TAG_DONE, payload)] if msg.tag == TAG_DONE else [msg]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    assert alice.done and alice.final_key is not None
    assert bob.abort_reason == bob.stats.abort_reason == ABORT_MALFORMED
    assert bob.abort_detail == f"DONE: {len(payload)} payload bytes, expected none"
    assert bob.final_key is None


_CODE_FAMILIES = tuple(CODE_FAMILIES)

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
    assert bob.abort_reason == ABORT_MALFORMED


_ABORT_REASONS = sorted(
    v for k, v in vars(protocol_module).items() if k.startswith("ABORT_") and isinstance(v, str)
)


@pytest.mark.parametrize("reason", _ABORT_REASONS)
def test_abort_naming_a_reason_keeps_it(reason):
    for party in (AliceSession(_FUZZ_CFG), BobSession(_FUZZ_CFG)):
        party.on_message(WireMessage(TAG_ABORT, reason.encode()))
        assert party.abort_reason == party.stats.abort_reason == reason
        assert party.abort_detail is None


@pytest.mark.parametrize(
    "payload",
    [b"you lose\nline2 \xff", b"phase_order\n", b"PHASE_ORDER", b"x" * 40, b"\x00" * (1 << 16)],
    ids=["newline", "name_plus_newline", "upper_case", "long", "64k"],
)
def test_peer_cannot_choose_the_abort_reason(payload):
    bob = BobSession(_FUZZ_CFG)
    bob.on_message(WireMessage(TAG_ABORT, payload))
    assert bob.abort_reason == bob.stats.abort_reason == ABORT_MALFORMED
    assert bob.abort_detail == f"ABORT: {payload[:32]!r}"
    assert "\n" not in bob.abort_detail and len(bob.abort_detail) <= 7 + 4 * 32 + 3


@pytest.mark.parametrize("index", range(13))
def test_honest_message_retagged_as_abort_ends_in_a_named_reason(index):
    honest = _honest_messages()[index]

    def rewrite(i, msg):
        return [WireMessage(TAG_ABORT, msg.payload)] if i == index else [msg]

    alice, bob = _pump_with(_FUZZ_CFG, rewrite)
    (receiver,) = [party for party in (alice, bob) if party.aborted]
    if honest.payload:
        assert receiver.abort_reason == ABORT_MALFORMED
        assert receiver.abort_detail == f"ABORT: {honest.payload[:32]!r}"
    else:  # DONE
        assert receiver.abort_reason == ABORT_TRANSPORT
    assert receiver.final_key is None


def _old_row(stats, run_id) -> list:
    """The row as it was written field by field before `as_row` walked
    STATS_FIELDS."""
    rate = stats.key_rate_net
    return [
        run_id, stats.n, stats.epsilon, stats.delta_max,
        "" if stats.delta is None else repr(stats.delta),
        *("" if v is None else v for v in (
            stats.t_size, stats.s_size, stats.r, stats.tau, stats.confirm_bits
        )),
        "" if rate is None else f"{rate:.6f}",
        stats.abort_reason or "",
    ]


@pytest.mark.parametrize(
    "cfg",
    [
        _noiseless_cfg(),
        _noiseless_cfg(channel=DepolarizingChannel(0.1), n=64),
        _noiseless_cfg(channel=InterceptResendChannel()),
        SessionConfig(n=64, epsilon=0.35, seed=2, pool_bits=64),
        _noiseless_cfg(source=LeakyTwoCopySource(0.5)),
    ],
    ids=["done", "depolarizing", "delta_exceeded", "pool_exhausted", "source"],
)
def test_stats_row_writes_the_csv_bytes_of_the_field_by_field_row(cfg):
    from qkdlab.cli import _csv_text

    stats = run_protocol(cfg).stats
    assert _csv_text([], [stats.as_row("0001")]) == _csv_text([], [_old_row(stats, "0001")])


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
# work bounded by the session's own n: a payload near the frame cap whose
# head is consistent with its length, fed to every phase that waits for one,
# and an ABORT of that size to each of them

_BOUND_CFG = _noiseless_cfg(n=256, seed=5)  # |Omega| = 1384

# (role, phase) -> the abort a flood of the phase's own tag ends in
_FLOOD_OUTCOME = {
    ("alice", "hello"): ABORT_VERSION,
    ("alice", "await_bases"): ABORT_PHASE,
    ("alice", "await_subset"): ABORT_SIFT,
    ("alice", "await_delta"): ABORT_MALFORMED,
    ("alice", "await_perm"): ABORT_PHASE,
    ("alice", "await_code"): ABORT_PHASE,
    ("alice", "await_syndrome"): ABORT_PHASE,
    ("alice", "await_confirm"): ABORT_MALFORMED,
    ("bob", "hello"): ABORT_VERSION,
    ("bob", "collect"): ABORT_PHASE,
    ("bob", "await_bases_a"): ABORT_PHASE,
    ("bob", "await_test_bits"): ABORT_PHASE,
    ("bob", "await_done"): ABORT_MALFORMED,  # DONE carries nothing
}


@functools.cache
def _bound_deliveries() -> tuple[tuple[str, WireMessage], ...]:
    """Every message of an honest session, as (receiving role, message)."""
    alice, bob = AliceSession(_BOUND_CFG), BobSession(_BOUND_CFG)
    queue = collections.deque(("bob", m) for m in alice.start())
    out = []
    while queue:
        to, msg = queue.popleft()
        out.append((to, msg))
        receiver, peer = (bob, "alice") if to == "bob" else (alice, "bob")
        queue.extend((peer, m) for m in receiver.on_message(msg))
    return tuple(out)


def _waiting_in(role: str, phase: str):
    session = (AliceSession if role == "alice" else BobSession)(_BOUND_CFG)
    session.start()
    for to, msg in _bound_deliveries():
        if session.phase == phase:
            break
        if to == role:
            session.on_message(msg)
    assert session.phase == phase
    return session


def _flood(tag: int) -> bytes:
    """A payload of nearly MAX_FRAME bytes whose counts match its length."""
    from qkdlab.netchan import MAX_FRAME
    from qkdlab.protocol import STATE_BYTES

    room = MAX_FRAME - 64  # the frame's tag byte and every head fit
    if tag == TAG_QBURST:
        total = room - BURST_HEAD.size - STATE_BYTES
        return BURST_HEAD.pack(total, 1) + bytes(STATE_BYTES + total)
    if tag == TAG_BASES_B:
        return struct.pack(">I", room) + bytes(room)
    if tag == TAG_BASES_A_AND_R:
        span = room // 2
        return struct.pack(">I", 8 * span) + bytes(2 * span)
    if tag in (TAG_SUBSET_S, TAG_TEST_BITS):
        return struct.pack(">I", 8 * room) + bytes(room)
    if tag == TAG_PERM:
        return struct.pack(">I", room // 2) + bytes(2 * (room // 2))
    if tag == TAG_SYNDROME_ENC:
        desc = choose_reconciliation_code(_BOUND_CFG.n, 0.0, _BOUND_CFG.epsilon, 1e-4).descriptor()
        return struct.pack(">H", len(desc)) + desc.encode() + struct.pack(">I", 8 * room) + bytes(room)
    return bytes(room)


def _miscounted_burst() -> bytes:
    """The QBURST flood with every index byte naming a state outside its
    one-state palette: its count, not |Omega|, must turn it away before
    any pass over the index."""
    flood = _flood(TAG_QBURST)
    index_at = len(flood) - BURST_HEAD.unpack_from(flood)[0]
    return flood[:index_at] + b"\xff" * (len(flood) - index_at)


@pytest.mark.parametrize("role, phase", list(_FLOOD_OUTCOME), ids="/".join)
def test_a_flooded_message_costs_work_bounded_by_the_sessions_own_count(role, phase):
    role_cls = AliceSession if role == "alice" else BobSession
    assert {(role, p) for p in role_cls.expects} <= set(_FLOOD_OUTCOME)
    tag = role_cls.expects[phase]
    omega = _BOUND_CFG.omega_size
    floods = [
        (WireMessage(tag, _flood(tag)), _FLOOD_OUTCOME[role, phase]),
        (WireMessage(TAG_ABORT, _flood(TAG_ABORT)), ABORT_MALFORMED),
    ]
    if tag == TAG_QBURST:
        floods.append((WireMessage(tag, _miscounted_burst()), ABORT_PHASE))
        with pytest.raises(ProtocolError, match=f"expected {omega}"):
            decode_qburst(floods[-1][0].payload, omega)
    for msg, outcome in floods:
        times, peaks = [], []
        for _ in range(3):
            session = _waiting_in(role, phase)
            tracemalloc.start()
            try:
                start = time.perf_counter()
                session.on_message(msg)
                times.append(time.perf_counter() - start)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert session.abort_reason == outcome
            assert session.terminal
        # unpacking the flood instead takes 134 M bits and over 100 ms
        assert min(peaks) < 256 * omega, msg.name()
        assert min(times) < 20e-6 * omega, msg.name()
