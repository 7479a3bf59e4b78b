"""The signal path: emission as one QBURST message (a palette of the
source's four states plus one index byte per signal), the channel and the
detector working on the palette, vectorized sifting, and the sifted word
the key-material steps use.

Each fast route is checked against the element-by-element definition it
replaces; the palette path against the v2 per-signal path, kept below as
an oracle.  End-to-end byte equality is covered by the golden transcripts.
"""

from __future__ import annotations

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdlab import protocol
from qkdlab.netchan import MAX_FRAME, _transform_burst
from qkdlab.protocol import (
    BURST_HEAD,
    MAX_PALETTE,
    ROLE_ALICE,
    ROLE_BOB,
    STATE_BYTES,
    TAG_HELLO,
    TAG_QBURST,
    AliceSession,
    BobSession,
    CustomUnitaryChannel,
    DepolarizingChannel,
    DetectorModel,
    EntangledSource,
    IdentityChannel,
    InterceptResendChannel,
    LeakyTwoCopySource,
    PerfectSource,
    RotatedZSource,
    SessionConfig,
    WireMessage,
    check_basis_independence,
    decode_qburst,
    encode_hello,
    encode_qburst,
    estimate_error,
    run_protocol,
    sift,
    stream_seed,
)


def _emitting(cfg: SessionConfig) -> tuple[AliceSession, WireMessage]:
    """Alice after `start`, and the HELLO that makes her emit."""
    alice = AliceSession(cfg)
    alice.start()
    return alice, WireMessage(TAG_HELLO, encode_hello(cfg, ROLE_BOB))


def _emitted(n: int = 16, seed: int = 5) -> tuple[SessionConfig, list[WireMessage]]:
    cfg = SessionConfig(n=n, epsilon=0.35, seed=seed)
    alice, hello = _emitting(cfg)
    return cfg, alice.on_message(hello)


def _collecting(cfg: SessionConfig) -> BobSession:
    """Bob waiting for the burst."""
    bob = BobSession(cfg)
    bob.on_message(WireMessage(TAG_HELLO, encode_hello(cfg, ROLE_ALICE)))
    assert bob.phase == "collect"
    return bob


def _random_states(gen: np.random.Generator, count: int) -> np.ndarray:
    """`count` random density matrices, pure and mixed."""
    v = gen.normal(size=(count, 2, 2)) + 1j * gen.normal(size=(count, 2, 2))
    rho = np.einsum("mij,mkj->mik", v, v.conj())
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    pure = gen.random(count) < 0.5
    u = v[:, :, 0] / np.linalg.norm(v[:, :, 0], axis=1, keepdims=True)
    rho[pure] = np.einsum("mi,mj->mij", u, u.conj())[pure]
    return rho


def test_burst_messages_are_the_wire_signals():
    cfg, burst = _emitted()
    (msg,) = burst
    assert msg.tag == TAG_QBURST
    assert BURST_HEAD.unpack_from(msg.payload) == (cfg.omega_size, 4)
    assert len(msg.payload) == BURST_HEAD.size + 4 * STATE_BYTES + cfg.omega_size
    assert encode_qburst(*decode_qburst(msg.payload)) == msg


def test_a_full_chunk_fits_in_one_frame():
    """The largest QBURST there is, 2^20 signals over a 256-state palette,
    is one frame under MAX_FRAME, about 1 MiB."""
    palette = _random_states(np.random.default_rng(1), MAX_PALETTE)
    index = (np.arange(1 << 20) % MAX_PALETTE).astype(np.uint8)
    msg = encode_qburst(palette, index)
    assert len(msg.payload) == BURST_HEAD.size + MAX_PALETTE * STATE_BYTES + (1 << 20)
    assert 1 + len(msg.payload) <= MAX_FRAME
    got_palette, got_index = decode_qburst(msg.payload)
    assert np.array_equal(got_index, index) and got_palette.tobytes() == palette.tobytes()


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, MAX_PALETTE), m=st.integers(1, 600))
@example(seed=0, k=MAX_PALETTE, m=1)
def test_state_blob_round_trip(seed, k, m):
    """A QBURST payload is exactly its head, 64 bytes per palette state and
    one byte per signal, and decodes to the same palette, bit for bit, as a
    native array, and the same index."""
    gen = np.random.default_rng(seed)
    palette = _random_states(gen, k)
    index = gen.integers(0, k, size=m).astype(np.uint8)
    msg = encode_qburst(palette, index)
    assert msg.tag == TAG_QBURST
    assert len(msg.payload) == BURST_HEAD.size + STATE_BYTES * k + m
    assert BURST_HEAD.unpack_from(msg.payload) == (m, k)
    got_palette, got_index = decode_qburst(msg.payload)
    assert got_palette.dtype == np.complex128 and got_palette.dtype.isnative
    assert got_palette.shape == (k, 2, 2) and got_palette.tobytes() == palette.tobytes()
    assert got_index.dtype == np.uint8 and np.array_equal(got_index, index)


# ---------------------------------------------------------------------------
# each source's four states, built here state by state: the reference the
# source palettes and the burst are held to, bit for bit


def _bb84_reference() -> list[np.ndarray]:
    """|0>, |1>, |+>, |->, each the outer product of its ket."""
    kets = [np.array([1.0, 0.0], dtype=np.complex128), np.array([0.0, 1.0], dtype=np.complex128)]
    kets += [np.array(v, dtype=np.complex128) / math.sqrt(2) for v in ([1.0, 1.0], [1.0, -1.0])]
    return [np.outer(k, k.conj()) for k in kets]


def _entangled_reference(phi: float) -> tuple[list[np.ndarray], np.ndarray]:
    """The signal half of (|00> + |11>)/sqrt2 once the helper is projected
    on outcome g along an axis tilted 0 (a = 0) or pi/2 + phi (a = 1) off
    +z, with p(a, g) half the projection's weight."""
    pair = np.zeros(4, dtype=np.complex128)
    pair[0b00] = pair[0b11] = 1 / math.sqrt(2)
    rho_pair = np.outer(pair, pair.conj())
    states, probs = [], np.zeros((2, 2))
    for a, angle in enumerate((0.0, math.pi / 2.0 + phi)):
        c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
        for g, v in enumerate(([c, s], [-s, c])):
            v = np.array(v, dtype=np.complex128)
            proj = np.kron(np.outer(v, v.conj()), np.eye(2))
            sub = proj @ rho_pair @ proj
            weight = float(np.trace(sub).real)
            probs[a][g] = 0.5 * weight
            states.append(np.einsum("asat->st", sub.reshape(2, 2, 2, 2)) / weight)
    return states, probs


def _reference(source) -> tuple[np.ndarray, np.ndarray]:
    """(states, probs) of a shipped source: states row 2a + g."""
    bb84 = _bb84_reference()
    if source.kind == "entangled":
        states, probs = _entangled_reference(source.phi)
        return np.array(states), probs
    if source.kind == "leaky_two_copy":
        lam, vacuum = source.leak_prob, np.diag([1.0, 0.0]).astype(np.complex128)
        states = [(1.0 - lam) * np.kron(vacuum, r) + lam * np.kron(r, r) for r in bb84]
        return np.array(states), np.full((2, 2), 0.25)
    b = source.bias
    probs = np.array([[(1 - b) / 2.0, b / 2.0], [(1 - b) / 2.0, b / 2.0]])
    if source.kind == "rotated_z":
        rz = np.diag([np.exp(-0.5j * source.theta), np.exp(0.5j * source.theta)])
        bb84 = [rz @ r @ rz.conj().T for r in bb84]
    return np.array(bb84), probs


def _reference_distance(states: np.ndarray, probs: np.ndarray) -> float:
    """Trace distance of the two basis-averaged states sum_g 2 p(a,g) rho_ag."""
    averaged = [sum(2.0 * probs[a][g] * states[2 * a + g] for g in range(2)) for a in range(2)]
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(averaged[0] - averaged[1]))))


SHIPPED_SOURCES = [
    PerfectSource(),
    PerfectSource(bias=0.3),
    RotatedZSource(0.4),
    RotatedZSource(-2.1, bias=0.6),
    EntangledSource(0.0),
    EntangledSource(0.3),
    EntangledSource(-1.2),
    LeakyTwoCopySource(0.25),
    LeakyTwoCopySource(1.0),
    LeakyTwoCopySource(0.0),  # distance 0, but two emitted qubits
]


@pytest.mark.parametrize(
    "source",
    SHIPPED_SOURCES,
    ids=[
        "perfect",
        "perfect_bias",
        "rotated_z",
        "rotated_z_bias",
        "entangled_untilted",
        "entangled",
        "entangled_negative",
        "leaky",
        "leaky_full",
        "leaky_without_leak",
    ],
)
def test_source_palette_probs_and_distance_match_the_per_state_reference(source):
    states, probs = _reference(source)
    assert source.palette.dtype == np.complex128 and not source.palette.flags.writeable
    assert source.palette.shape == states.shape and source.palette.tobytes() == states.tobytes()
    assert source.probs.tobytes() == probs.tobytes()
    assert repr(check_basis_independence(source)) == repr(_reference_distance(states, probs))


@pytest.mark.parametrize(
    "source",
    [PerfectSource(bias=0.3), RotatedZSource(0.4), EntangledSource(0.2)],
    ids=["perfect_bias", "rotated_z", "entangled"],
)
def test_burst_is_the_wire_bytes_of_each_sent_state(source):
    """The burst's palette is the source's four states, row 2a + g, and its
    index gathers from them, bit for bit, the (m, 2, 2) array of sent
    states.  Emission is called directly: a biased source never passes the
    compliance gate, but its skewed key bits still exercise the index."""
    cfg = SessionConfig(n=64, epsilon=0.35, seed=8, source=source)
    alice = AliceSession(cfg)
    (msg,) = alice._emit_signals()
    palette, index = decode_qburst(msg.payload)
    lut = _reference(source)[0].reshape(2, 2, 2, 2)  # [a][g]
    assert palette.tobytes() == lut.tobytes()
    sent_basis = np.where(alice.r_mask == 1, alice.a_bits, 1 - alice.a_bits)
    assert np.array_equal(index, 2 * sent_basis + alice.g_bits)
    assert palette[index].tobytes() == lut[sent_basis, alice.g_bits].tobytes()


def test_depolarizing_batch_matches_its_definition_bit_for_bit():
    gen = np.random.default_rng(3)
    states = _random_states(gen, 200)
    index = gen.integers(0, 200, size=50).astype(np.uint8)
    eye = np.eye(2, dtype=np.complex128) / 2.0
    for p in (0.0, 0.02, 0.1, 1 / 3, 1.0):
        want = (1.0 - p) * states + p * eye[None, :, :]
        out, out_index = DepolarizingChannel(p).apply_batch(states, index, None)
        assert out.tobytes() == want.tobytes() and out_index is index


def test_proxy_forwards_the_depolarized_bytes_with_heads_as_sent():
    _, (msg,) = _emitted(n=32)
    p = 0.1
    palette, index = decode_qburst(msg.payload)
    eye = np.eye(2, dtype=np.complex128) / 2.0
    want = ((1.0 - p) * palette + p * eye[None, :, :]).astype(">c16")
    out = _transform_burst(msg, DepolarizingChannel(p), np.random.default_rng(0))
    assert out.tag == TAG_QBURST and len(out.payload) == len(msg.payload)
    # head and index bytes go on as sent; only the palette changes
    head, body = BURST_HEAD.size, BURST_HEAD.size + 4 * STATE_BYTES
    assert out.payload[:head] == msg.payload[:head]
    assert out.payload[body:] == msg.payload[body:]
    assert out.payload[head:body] == want.tobytes()


def test_proxy_passes_an_undecodable_burst_on_unchanged():
    _, (msg,) = _emitted()
    rng = np.random.default_rng(0)
    for payload in (msg.payload[:-1], msg.payload + b"\x00", msg.payload[:5]):
        bad = WireMessage(TAG_QBURST, payload)
        assert _transform_burst(bad, InterceptResendChannel(), rng) is bad
    # nothing was drawn for them
    assert rng.random() == np.random.default_rng(0).random()


def _peak(run) -> int:
    """The `tracemalloc` peak of `run()`, in bytes, counted from its start."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# v2 sent one 64-byte state per signal.  Emission and collect, their draws'
# per-signal arrays included, now peak below what that burst alone took;
# the proxy's transform of a depolarized burst holds about two bytes a signal.
_CFG_2048 = SessionConfig(n=2048, seed=2, channel=DepolarizingChannel(0.1))


def test_emission_peaks_below_one_v2_burst():
    alice, hello = _emitting(_CFG_2048)
    burst = []
    peak = _peak(lambda: burst.extend(alice.on_message(hello)))
    (msg,) = burst
    assert len(msg.payload) == BURST_HEAD.size + 4 * STATE_BYTES + _CFG_2048.omega_size
    assert peak < _CFG_2048.omega_size * STATE_BYTES


@pytest.mark.parametrize(
    "channel",
    [DepolarizingChannel(0.1), InterceptResendChannel()],
    ids=["depolarizing", "intercept_resend"],
)
def test_collect_peaks_below_one_v2_burst(channel):
    cfg = SessionConfig(n=2048, seed=2, channel=channel)
    alice, hello = _emitting(cfg)
    (burst,) = alice.on_message(hello)
    bob = _collecting(cfg)
    replies = []
    peak = _peak(lambda: replies.extend(bob.on_message(burst)))
    assert bob.phase == "await_bases_a" and len(replies) == 1
    assert peak < cfg.omega_size * STATE_BYTES


def test_proxy_transform_peaks_under_four_bytes_a_signal():
    alice, hello = _emitting(_CFG_2048)
    (burst,) = alice.on_message(hello)
    out = []
    rng = np.random.default_rng(0)
    peak = _peak(lambda: out.append(_transform_burst(burst, _CFG_2048.channel, rng)))
    assert len(out[0].payload) == len(burst.payload) and out[0].payload != burst.payload
    assert peak < 4 * _CFG_2048.omega_size


# ---------------------------------------------------------------------------
# the v2 per-signal path, the oracle for the palette path: the states are
# gathered first, and the channel and the detector walk every one of them

_BB84 = np.array(_bb84_reference()).reshape(2, 2, 2, 2)  # [a][g]


def _v2_p_one(states, bases):
    return np.where(bases == 0, states[:, 1, 1].real, 0.5 * (1.0 - 2.0 * states[:, 0, 1].real))


def _v2_channel(channel, states, rng):
    m = states.shape[0]
    if isinstance(channel, IdentityChannel):
        return states
    if isinstance(channel, DepolarizingChannel):
        out = (1.0 - channel.p) * states
        out += channel.p * (np.eye(2, dtype=np.complex128) / 2.0)
        return out
    if isinstance(channel, InterceptResendChannel):
        eve_basis = rng.integers(0, 2, size=m)
        outcome = (rng.random(m) < _v2_p_one(states, eve_basis)).astype(np.int64)
        return _BB84[eve_basis, outcome]
    full = np.zeros((m, 4, 4), dtype=np.complex128)
    full[:, 0:2, 0:2] = states
    u = channel.unitary
    rolled = np.einsum("ij,mjk,lk->mil", u, full, u.conj())
    return np.einsum("masat->mst", rolled.reshape(m, 2, 2, 2, 2))


def _v2_measure(detector, states, bases, rng):
    m = states.shape[0]
    detected = rng.random(m) < detector.efficiency
    outcomes = (rng.random(m) < _v2_p_one(states, bases)).astype(np.uint8)
    return outcomes, detected


def _haar_unitary(seed: int) -> np.ndarray:
    gen = np.random.default_rng(seed)
    z = gen.normal(size=(4, 4)) + 1j * gen.normal(size=(4, 4))
    q, r = np.linalg.qr(z)
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


SOURCES = st.one_of(
    st.floats(0.05, 0.95).map(PerfectSource),
    st.floats(-math.pi, math.pi).map(RotatedZSource),
    st.floats(-1.5, 1.5).map(EntangledSource),
)
CHANNELS = st.one_of(
    st.just(IdentityChannel()),
    st.floats(0.0, 1.0).map(DepolarizingChannel),
    st.just(InterceptResendChannel()),
    st.integers(0, 2**32 - 1).map(lambda seed: CustomUnitaryChannel(_haar_unitary(seed))),
)


def _assert_collect_matches_v2(cfg: SessionConfig, burst: WireMessage) -> None:
    """Bob's collect on `burst` against the v2 path on its gathered states:
    equal channel output bytes, outcomes and announced symbols."""
    bob = _collecting(cfg)
    bob.on_message(burst)
    assert bob.phase == "await_bases_a"
    palette, index = decode_qburst(burst.payload)

    def eve_rng():
        return np.random.default_rng(stream_seed(cfg.seed, "eve|channel"))

    states = _v2_channel(cfg.channel, palette[index], eve_rng())
    out_palette, out_index = cfg.channel.apply_batch(palette, index, eve_rng())
    assert out_palette[out_index].tobytes() == states.tobytes()
    rng = np.random.default_rng(stream_seed(cfg.seed, "bob|quantum"))
    bases = rng.integers(0, 2, size=index.size).astype(np.uint8)
    h_bits, detected = _v2_measure(cfg.detector, states, bases, rng)
    assert np.array_equal(bob.h_bits, h_bits)
    assert np.array_equal(bob.b_symbols, np.where(detected, bases, 2))


@settings(max_examples=80, deadline=None)
@given(
    source=SOURCES,
    channel=CHANNELS,
    efficiency=st.one_of(st.just(1.0), st.floats(0.3, 1.0)),
    n=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
)
def test_palette_path_equals_the_v2_per_signal_path(source, channel, efficiency, n, seed):
    """Every emitting source kind (the two-copy source never passes the
    compliance gate) through every channel kind.  Emission is called
    directly, so biased sources are covered too."""
    cfg = SessionConfig(
        n=n, epsilon=0.35, seed=seed, source=source, channel=channel,
        detector=DetectorModel(efficiency),
    )
    (burst,) = AliceSession(cfg)._emit_signals()
    _assert_collect_matches_v2(cfg, burst)


@settings(max_examples=40, deadline=None)
@given(
    channel=CHANNELS,
    k=st.integers(1, MAX_PALETTE),
    efficiency=st.floats(0.3, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_palette_collects_as_its_gathered_states(channel, k, efficiency, seed):
    """A peer may send any palette of up to 256 states; Bob measures the
    same as if each signal had carried its state."""
    cfg = SessionConfig(
        n=16, epsilon=0.35, seed=seed, channel=channel, detector=DetectorModel(efficiency)
    )
    gen = np.random.default_rng(seed)
    index = gen.integers(0, k, size=cfg.omega_size).astype(np.uint8)
    _assert_collect_matches_v2(cfg, encode_qburst(_random_states(gen, k), index))


def _sift_by_definition(a_bits, b_symbols, r_mask, n, rng):
    test, candidates = [], []
    for i, (a, b, in_r) in enumerate(zip(a_bits, b_symbols, r_mask)):
        if b == 2:
            continue
        if in_r and a == b:
            test.append(i)
        elif not in_r and 1 - a == b:
            candidates.append(i)
    if len(test) < n or len(candidates) < n:
        return tuple(test), None
    return tuple(test), tuple(sorted(rng.sample(candidates, n)))


def _split(res) -> tuple:
    """A SiftResult's sets as the tuples `_sift_by_definition` returns."""
    keys = None if res.key_set is None else tuple(res.key_set.tolist())
    return tuple(res.test_set.tolist()), keys


@pytest.mark.parametrize(
    "seed, shape",
    [pytest.param(seed, None, id=str(seed)) for seed in range(12)]
    # at most 5 keys from more than 21 candidates: random.sample's set branch
    + [pytest.param(12, (300, 3), id="set_branch")],
)
def test_sift_matches_elementwise_definition(seed, shape):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 300))
    n = int(gen.integers(1, max(2, m // 4)))
    if shape is not None:
        m, n = shape
    a = gen.integers(0, 2, size=m).astype(np.uint8)
    b = gen.choice(np.array([0, 1, 2], dtype=np.uint8), size=m, p=[0.45, 0.45, 0.1])
    r_mask = gen.integers(0, 2, size=m).astype(np.uint8)
    got = sift(a, b, r_mask, n, random.Random(seed))
    want = _sift_by_definition(a.tolist(), b.tolist(), r_mask.tolist(), n, random.Random(seed))
    assert _split(got) == want
    if shape is not None:
        assert np.count_nonzero((r_mask == 0) & (1 - a == b)) > 21
    assert got.test_set.dtype == np.intp
    # lists of Python ints and numpy arrays give the same split
    as_lists = sift(a.tolist(), b.tolist(), r_mask.tolist(), n, random.Random(seed))
    assert _split(as_lists) == _split(got) and as_lists.abort_reason == got.abort_reason


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 3000), n=st.integers(1, 750))
# random.sample's set branch: 3 keys from about 670 candidates
@example(seed=12, m=3000, n=3)
# its pool branch, near the largest key set this m affords
@example(seed=12, m=3000, n=600)
def test_sift_keys_are_sorted_candidates_as_defined(seed, m, n):
    n = min(n, max(1, m // 4))
    gen = np.random.default_rng(seed)
    a = gen.integers(0, 2, size=m).astype(np.uint8)
    b = gen.choice(np.array([0, 1, 2], dtype=np.uint8), size=m, p=[0.45, 0.45, 0.1])
    r_mask = gen.integers(0, 2, size=m).astype(np.uint8)
    got = sift(a, b, r_mask, n, random.Random(seed))
    want = _sift_by_definition(a.tolist(), b.tolist(), r_mask.tolist(), n, random.Random(seed))
    assert _split(got) == want
    assert got.test_set.dtype == np.intp
    if got.key_set is not None:
        assert got.key_set.dtype == np.intp
        assert np.all(np.diff(got.key_set) > 0)
        assert np.all((r_mask[got.key_set] == 0) & (b[got.key_set] == 1 - a[got.key_set]))


def test_both_sessions_keep_the_sets_as_equal_index_arrays():
    cfg = SessionConfig(n=2048, epsilon=0.35, seed=4, channel=DepolarizingChannel(0.1))
    res = run_protocol(cfg)
    assert res.stats.abort_reason is None and res.alice_key == res.bob_key
    for name in ("test_set", "key_set"):
        ours, theirs = getattr(res.alice, name), getattr(res.bob, name)
        assert ours.dtype == theirs.dtype == np.intp
        assert np.array_equal(ours, theirs)
    # long sequences of Python ints are what an index array replaces
    for party in (res.alice, res.bob):
        long = [k for k, v in vars(party).items() if isinstance(v, (list, tuple)) and len(v) > 64]
        assert long == []


def test_estimate_error_takes_arrays_and_lists():
    sent = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    got = [0, 0, 1, 1, 1]
    assert estimate_error(sent, got) == estimate_error(sent.tolist(), got) == 0.4


@pytest.mark.parametrize("n", [0, 1, 7, 64, 65, 300])
def test_sifted_word_matches_bitwise_definition(n):
    rng = random.Random(n)
    record = np.array([rng.randrange(2) for _ in range(3 * n)], dtype=np.uint8)
    key_set = np.array(sorted(rng.sample(range(3 * n), n)), dtype=np.intp)
    bits = [int(record[i]) for i in key_set]
    # the sifted key: key bit i of the record moved to position perm[i]
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [0] * n
    for i, p in enumerate(perm):
        moved[p] = bits[i]
    sifted = protocol._sifted_word(record, key_set, np.array(perm, dtype=np.intp))
    assert sifted.dtype == np.uint8 and sifted.tolist() == moved


def test_large_session_agrees_end_to_end():
    res = run_protocol(SessionConfig(n=2048, epsilon=0.35, seed=4))
    assert res.stats.abort_reason is None
    assert res.alice_key == res.bob_key and res.alice_key.n == res.stats.r
