"""The signal path: emission as one burst, vectorized sifting, and the
linear-time BitVec constructors the key-material steps use.

Each fast route is checked against the element-by-element definition it
replaces; end-to-end byte equality is covered by the golden transcripts.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from qkdlab.gf2 import BitVec
from qkdlab.protocol import (
    ROLE_BOB,
    SIGNAL_HEAD,
    TAG_HELLO,
    TAG_QSIGNAL,
    AliceSession,
    SessionConfig,
    SignalBurst,
    WireMessage,
    decode_qsignal,
    encode_hello,
    encode_qsignal,
    estimate_error,
    run_protocol,
    sift,
    states_from_bytes,
    states_to_bytes,
)


def _emitted(n: int = 16, seed: int = 5) -> tuple[SessionConfig, SignalBurst]:
    cfg = SessionConfig(n=n, epsilon=0.35, seed=seed)
    alice = AliceSession(cfg)
    alice.start()
    return cfg, alice.on_message(WireMessage(TAG_HELLO, encode_hello(cfg, ROLE_BOB)))


def test_burst_messages_are_the_wire_signals():
    cfg, burst = _emitted()
    assert isinstance(burst, SignalBurst)
    assert len(burst) == cfg.omega_size
    for i, msg in enumerate(burst):
        assert msg.tag == TAG_QSIGNAL
        index, state = decode_qsignal(msg.payload)
        assert index == i
        assert msg.payload == encode_qsignal(i, state)
        assert msg == burst[i]


def test_burst_indexing_follows_sequence_rules():
    _, burst = _emitted()
    m = len(burst)
    assert burst[-1] == burst[m - 1]
    assert burst[2:5] == [burst[2], burst[3], burst[4]]
    assert burst[::-7] == list(burst)[::-7]
    with pytest.raises(IndexError):
        burst[m]
    with pytest.raises(ValueError):
        SignalBurst(b"\x00" * 65)


def test_state_blob_round_trip():
    _, burst = _emitted()
    states = states_from_bytes(burst.states)
    assert states.shape == (len(burst), 2, 2)
    assert states_to_bytes(states) == burst.states
    body = burst[3].payload[SIGNAL_HEAD.size :]
    assert np.array_equal(states_from_bytes(body)[0], states[3])


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


@pytest.mark.parametrize("seed", range(12))
def test_sift_matches_elementwise_definition(seed):
    gen = np.random.default_rng(seed)
    m = int(gen.integers(1, 300))
    n = int(gen.integers(1, max(2, m // 4)))
    a = gen.integers(0, 2, size=m).astype(np.uint8)
    b = gen.choice(np.array([0, 1, 2], dtype=np.uint8), size=m, p=[0.45, 0.45, 0.1])
    r_mask = gen.integers(0, 2, size=m).astype(np.uint8)
    got = sift(a, b, r_mask, n, random.Random(seed))
    want = _sift_by_definition(a.tolist(), b.tolist(), r_mask.tolist(), n, random.Random(seed))
    assert (got.test_set, got.key_set) == want
    assert all(type(i) is int for i in got.test_set)
    # lists of Python ints and numpy arrays give the same split
    as_lists = sift(a.tolist(), b.tolist(), r_mask.tolist(), n, random.Random(seed))
    assert as_lists == got


def test_estimate_error_takes_arrays_and_lists():
    sent = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
    got = [0, 0, 1, 1, 1]
    assert estimate_error(sent, got) == estimate_error(sent.tolist(), got) == 0.4


@pytest.mark.parametrize("n", [0, 1, 7, 64, 65, 300])
def test_from_bits_and_permute_match_bitwise_definition(n):
    rng = random.Random(n)
    bits = [rng.randrange(2) for _ in range(n)]
    v = BitVec.from_bits(bits)
    assert v == BitVec(n, sum(bit << i for i, bit in enumerate(bits)))
    assert BitVec.from_bits(np.array(bits, dtype=np.uint8)) == v
    assert BitVec.from_bits(bool(bit) for bit in bits) == v
    perm = list(range(n))
    rng.shuffle(perm)
    moved = [0] * n
    for i, p in enumerate(perm):
        moved[p] = bits[i]
    assert v.permute(perm) == BitVec.from_bits(moved)


def test_from_bits_still_rejects_non_bits():
    with pytest.raises(ValueError):
        BitVec.from_bits([0, 1, 2])


def test_large_session_agrees_end_to_end():
    res = run_protocol(SessionConfig(n=2048, epsilon=0.35, seed=4))
    assert res.stats.abort_reason is None
    assert res.alice_key == res.bob_key and res.alice_key.n == res.stats.r
