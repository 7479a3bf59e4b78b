"""The signal path: emission as one chunked QBURST burst gathered from the
source's four wire states, decoding in one pass, vectorized sifting, and
the linear-time BitVec constructors the key-material steps use.

Each fast route is checked against the element-by-element definition it
replaces; end-to-end byte equality is covered by the golden transcripts.
"""

from __future__ import annotations

import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdlab import protocol
from qkdlab.gf2 import BitVec
from qkdlab.netchan import MAX_FRAME, _transform_burst
from qkdlab.protocol import (
    BURST_CHUNK,
    BURST_HEAD,
    ROLE_ALICE,
    ROLE_BOB,
    STATE_BYTES,
    TAG_HELLO,
    TAG_QBURST,
    AliceSession,
    BobSession,
    DepolarizingChannel,
    EntangledSource,
    PerfectSource,
    RotatedZSource,
    SessionConfig,
    WireMessage,
    decode_qburst,
    encode_hello,
    encode_qburst,
    estimate_error,
    run_protocol,
    sift,
    states_to_bytes,
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


def test_burst_messages_are_the_wire_signals():
    cfg, burst = _emitted()
    (msg,) = burst
    assert msg.tag == TAG_QBURST
    assert BURST_HEAD.unpack_from(msg.payload) == (0, cfg.omega_size)
    body = msg.payload[BURST_HEAD.size :]
    assert len(body) == STATE_BYTES * cfg.omega_size
    assert encode_qburst(body) == burst


def test_burst_chunks_carry_their_first_index_and_the_burst_length(monkeypatch):
    _, (msg,) = _emitted()
    blob = msg.payload[BURST_HEAD.size :]
    total = len(blob) // STATE_BYTES
    monkeypatch.setattr(protocol, "BURST_CHUNK", 10)
    chunks = encode_qburst(blob)
    assert len(chunks) == -(-total // 10)
    heads = [BURST_HEAD.unpack_from(c.payload) for c in chunks]
    assert heads == [(first, total) for first in range(0, total, 10)]
    assert b"".join(c.payload[BURST_HEAD.size :] for c in chunks) == blob
    assert all(len(c.payload) <= BURST_HEAD.size + 10 * STATE_BYTES for c in chunks)


def test_a_full_chunk_fits_in_one_frame():
    assert 1 + BURST_HEAD.size + BURST_CHUNK * STATE_BYTES <= MAX_FRAME


def test_chunk_size_does_not_change_the_session(monkeypatch):
    cfg = SessionConfig(n=64, epsilon=0.35, seed=3, channel=DepolarizingChannel(0.1))
    whole = run_protocol(cfg)
    monkeypatch.setattr(protocol, "BURST_CHUNK", 7)
    chunked = run_protocol(cfg)
    assert chunked.transcript == whole.transcript
    assert chunked.bob_key == whole.bob_key and chunked.stats.delta == whole.stats.delta


def test_state_blob_round_trip(monkeypatch):
    _, (msg,) = _emitted()
    blob = msg.payload[BURST_HEAD.size :]
    states = decode_qburst([msg.payload])
    assert states.shape == (len(blob) // STATE_BYTES, 2, 2)
    assert states.dtype == np.complex128 and states.dtype.isnative
    assert states_to_bytes(states) == blob
    # the chunks of a chunked burst decode to the same states, in order
    monkeypatch.setattr(protocol, "BURST_CHUNK", 3)
    chunks = encode_qburst(blob)
    assert len(chunks) > 1
    assert np.array_equal(decode_qburst([c.payload for c in chunks]), states)
    assert np.array_equal(decode_qburst([chunks[1].payload]), states[3:6])


@pytest.mark.parametrize(
    "source",
    [PerfectSource(bias=0.3), RotatedZSource(0.4), EntangledSource(0.2)],
    ids=["perfect_bias", "rotated_z", "entangled"],
)
def test_burst_is_the_wire_bytes_of_each_sent_state(source):
    """The burst gathered from the four-row table is byte for byte the
    wire encoding of the (m, 2, 2) array of sent states.  Emission is called
    directly: a biased source never passes the compliance gate, but its
    skewed key bits still exercise the gather."""
    cfg = SessionConfig(n=64, epsilon=0.35, seed=8, source=source)
    alice = AliceSession(cfg)
    (msg,) = alice._emit_signals()
    lut = np.array([[source.emit(a, g) for g in range(2)] for a in range(2)])
    sent_basis = np.where(alice.r_mask == 1, alice.a_bits, 1 - alice.a_bits)
    assert msg.payload[BURST_HEAD.size :] == states_to_bytes(lut[sent_basis, alice.g_bits])


def test_depolarizing_batch_matches_its_definition_bit_for_bit():
    rng = np.random.default_rng(3)
    v = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    states = np.einsum("mi,mj->mij", v, v.conj())
    eye = np.eye(2, dtype=np.complex128) / 2.0
    for p in (0.0, 0.02, 0.1, 1 / 3, 1.0):
        want = (1.0 - p) * states + p * eye[None, :, :]
        assert DepolarizingChannel(p).apply_batch(states, None).tobytes() == want.tobytes()


def test_proxy_forwards_the_depolarized_bytes_with_heads_as_sent(monkeypatch):
    _, (msg,) = _emitted(n=32)
    blob = msg.payload[BURST_HEAD.size :]
    monkeypatch.setattr(protocol, "BURST_CHUNK", 20)
    chunks = encode_qburst(blob)
    assert len(chunks) > 1
    p = 0.1
    states = decode_qburst([msg.payload])
    eye = np.eye(2, dtype=np.complex128) / 2.0
    want = states_to_bytes((1.0 - p) * states + p * eye[None, :, :])
    out = _transform_burst(chunks, DepolarizingChannel(p), np.random.default_rng(0))
    assert [len(c.payload) for c in out] == [len(c.payload) for c in chunks]
    assert [c.payload[: BURST_HEAD.size] for c in out] == [c.payload[: BURST_HEAD.size] for c in chunks]
    assert all(c.tag == TAG_QBURST for c in out)
    assert b"".join(c.payload[BURST_HEAD.size :] for c in out) == want


def _peak(run) -> int:
    """The `tracemalloc` peak of `run()`, in bytes, counted from its start."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Writing the burst takes the burst itself plus its chunks; decoding it takes
# one native copy plus the channel's output, and the proxy's transform then
# trades that output for the big-endian copy its chunks are cut from.  The
# slack covers the index arrays and Alice's test half.
BURST_PEAK_FACTOR = 2.6


def test_emission_allocates_the_burst_about_twice():
    cfg = SessionConfig(n=2048, seed=2)
    alice, hello = _emitting(cfg)
    burst = []
    peak = _peak(lambda: burst.extend(alice.on_message(hello)))
    assert sum(len(m.payload) for m in burst) > cfg.omega_size * STATE_BYTES
    assert peak < BURST_PEAK_FACTOR * cfg.omega_size * STATE_BYTES


def test_collect_allocates_the_burst_about_twice(monkeypatch):
    monkeypatch.setattr(protocol, "BURST_CHUNK", 1000)
    cfg = SessionConfig(n=2048, seed=2, channel=DepolarizingChannel(0.1))
    alice, hello = _emitting(cfg)
    burst = alice.on_message(hello)
    assert len(burst) > 4
    bob = BobSession(cfg)
    bob.on_message(WireMessage(TAG_HELLO, encode_hello(cfg, ROLE_ALICE)))
    replies = []
    peak = _peak(lambda: [replies.extend(bob.on_message(m)) for m in burst])
    assert bob.phase == "await_bases_a" and len(replies) == 1
    assert peak < BURST_PEAK_FACTOR * cfg.omega_size * STATE_BYTES


def test_proxy_transform_allocates_the_burst_about_twice(monkeypatch):
    monkeypatch.setattr(protocol, "BURST_CHUNK", 1000)
    cfg = SessionConfig(n=2048, seed=2, channel=DepolarizingChannel(0.1))
    alice, hello = _emitting(cfg)
    burst = alice.on_message(hello)
    assert len(burst) > 4
    out = []
    peak = _peak(lambda: out.extend(_transform_burst(burst, cfg.channel, np.random.default_rng(0))))
    assert [len(m.payload) for m in out] == [len(m.payload) for m in burst]
    assert peak < BURST_PEAK_FACTOR * cfg.omega_size * STATE_BYTES


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
def test_from_bits_and_permute_match_bitwise_definition(n):
    rng = random.Random(n)
    record = np.array([rng.randrange(2) for _ in range(3 * n)], dtype=np.uint8)
    key_set = np.array(sorted(rng.sample(range(3 * n), n)), dtype=np.intp)
    bits = [int(record[i]) for i in key_set]
    v = BitVec.from_bits(bits)
    assert v == BitVec(n, sum(bit << i for i, bit in enumerate(bits)))
    assert BitVec.from_bits(np.array(bits, dtype=np.uint8)) == v
    assert BitVec.from_bits(bool(bit) for bit in bits) == v
    # the sifted key: key bit i of the record moved to position perm[i]
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [0] * n
    for i, p in enumerate(perm):
        moved[p] = bits[i]
    sifted = protocol._sifted_word(record, key_set, np.array(perm, dtype=np.intp))
    assert sifted == BitVec.from_bits(moved)


def test_from_bits_still_rejects_non_bits():
    with pytest.raises(ValueError):
        BitVec.from_bits([0, 1, 2])


def test_large_session_agrees_end_to_end():
    res = run_protocol(SessionConfig(n=2048, epsilon=0.35, seed=4))
    assert res.stats.abort_reason is None
    assert res.alice_key == res.bob_key and res.alice_key.n == res.stats.r
