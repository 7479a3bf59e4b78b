"""Blockwise code operations against the global generator and parity check,
syndrome correction from the leader table against the coset scan, and the
correction promise of every code the reconciliation ladder picks."""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import codes
from qkdlab.codes import (
    BlockCode,
    DecodingFailure,
    hamming,
    hamming_blocks,
    identity_code,
    random_code,
    rec_hamming,
    rec_identity,
    rec_repetition,
    rec_verbatim,
    repetition,
    zero_code,
)
from qkdlab.gf2 import BitVec
from qkdlab.protocol import choose_reconciliation_code


def packed(code_map, *words: BitVec) -> BitVec:
    """A code map applied to packed words: each converted to a bit array on
    the way in, and the result packed on the way out."""
    return BitVec.from_array(code_map(*(w.to_array() for w in words)))


INNER_CODES = st.one_of(
    st.integers(2, 4).map(hamming),
    st.integers(1, 25).map(repetition),
    st.integers(26, 40).map(repetition),  # past INNER_CACHE_LIMIT: built per use, not cached
    st.integers(1, 6).map(identity_code),
    st.integers(1, 6).map(zero_code),
)


def _runs(inners) -> list:
    """Consecutive inner codes of one name as (code, count) runs."""
    groups = (list(g) for _, g in itertools.groupby(inners, key=lambda c: c.name))
    return [(g[0], len(g)) for g in groups]


def _pattern(n: int, positions) -> int:
    e = 0
    for p in positions:
        e |= 1 << p
    return e


@settings(max_examples=60, deadline=None)
@given(st.lists(INNER_CODES, min_size=1, max_size=6), st.data())
def test_blockwise_maps_equal_global_matrices(inners, data):
    code = BlockCode("prop", _runs(inners))
    parity = code.parity_check()
    word = BitVec(code.n, data.draw(st.integers(0, (1 << code.n) - 1)))
    msg = BitVec(code.k, data.draw(st.integers(0, (1 << code.k) - 1)))
    assert packed(code.encode, msg).value == code.gen.apply(msg.value)
    assert packed(code.coset_key, word).value == code.gen.transpose().apply(word.value)
    assert packed(code.syndrome, word).value == parity.apply(word.value)

    # a (count, width) batch through a code's map is the map of every row
    for c in [*inners, code]:
        count = data.draw(st.integers(0, 4))
        words = [BitVec(c.n, data.draw(st.integers(0, (1 << c.n) - 1))) for _ in range(count)]
        msgs = [BitVec(c.k, data.draw(st.integers(0, (1 << c.k) - 1))) for _ in range(count)]
        cases = [("syndrome", words, c.n), ("coset_key", words, c.n), ("encode", msgs, c.k)]
        for op, rows, width in cases:
            batch = np.array([v.to_array() for v in rows], np.uint8).reshape(count, width)
            got = getattr(c, op)(batch)
            assert got.shape[0] == count
            assert [BitVec.from_array(g) for g in got] == [packed(getattr(c, op), v) for v in rows]

    # noise within every block's radius is undone exactly
    noise = 0
    off = 0
    for c in inners:
        weight = data.draw(st.integers(0, min(c.decoder_radius, c.n)))
        spots = data.draw(st.permutations(range(c.n)))[:weight]
        noise |= _pattern(c.n, spots) << off
        off += c.n
    noisy = BitVec(code.n, word.value ^ noise)
    syndrome = BitVec(code.n - code.k, parity.apply(word.value))
    assert packed(code.correct_with_syndrome, noisy, syndrome) == word

    # any target: either an abort or a word carrying exactly that syndrome
    target = BitVec(code.n - code.k, data.draw(st.integers(0, (1 << (code.n - code.k)) - 1)))
    try:
        fixed = packed(code.correct_with_syndrome, word, target)
    except DecodingFailure:
        return
    assert parity.apply(fixed.value) == target.value


def _correct_block_by_block(code: BlockCode, v: BitVec, target: BitVec) -> BitVec:
    """The reference: each inner code's own correct_with_syndrome in turn."""
    out = off = t_off = 0
    inners = (c for c, count in code.runs for _ in range(count))
    for i, c in enumerate(inners):
        red = c.n - c.k
        block = BitVec(c.n, (v.value >> off) & ((1 << c.n) - 1))
        t = BitVec(red, (target.value >> t_off) & ((1 << red) - 1))
        try:
            fixed = packed(c.correct_with_syndrome, block, t)
        except DecodingFailure as exc:
            raise DecodingFailure(f"block {i}: {exc}") from exc
        out |= fixed.value << off
        off += c.n
        t_off += red
    return BitVec(code.n, out)


CORRECTION_CODES = st.one_of(
    st.integers(1, 600).map(rec_hamming),
    # whole blocks and a tail, n = inner * blocks + tail < 600
    st.tuples(st.integers(3, 25), st.integers(1, 23), st.integers(0, 24)).map(
        lambda a: rec_repetition(a[0] * a[1] + a[2] % a[0], a[0])
    ),
    st.integers(1, 600).map(rec_identity),
    st.integers(1, 600).map(rec_verbatim),
    st.lists(INNER_CODES, min_size=1, max_size=6).map(lambda inners: BlockCode("prop", _runs(inners))),
)


@settings(max_examples=120, deadline=None)
@given(CORRECTION_CODES, st.randoms(use_true_random=True))
def test_vectorized_correction_equals_block_by_block(code, rng):
    word = BitVec(code.n, rng.getrandbits(code.n))
    if rng.random() < 0.5:
        # noise of density 1/2 to 1/64 decodes in some blocks and not in others
        noise = rng.getrandbits(code.n)
        for _ in range(rng.randrange(6)):
            noise &= rng.getrandbits(code.n)
        target = packed(code.syndrome, BitVec(code.n, word.value ^ noise))
    else:
        # any target: blocks of even repetition codes can fail, and the
        # test checks which block the failure names
        target = BitVec(code.n - code.k, rng.getrandbits(code.n - code.k))
    try:
        want = _correct_block_by_block(code, word, target)
    except DecodingFailure as exc:
        with pytest.raises(DecodingFailure) as got:
            packed(code.correct_with_syndrome, word, target)
        assert str(got.value) == str(exc)
        return
    assert packed(code.correct_with_syndrome, word, target) == want


def test_correction_failure_names_the_first_failing_block():
    # runs: five [7,4] blocks, six even repetition blocks, a verbatim tail
    code = BlockCode("mix", [(hamming(3), 5), (repetition(4), 6), (zero_code(3), 1)])
    word = BitVec(code.n, random.Random(3).getrandbits(code.n))
    for bad in (5, 7, 10):
        # two flips tie in a length-4 block: past its radius of one
        noise = sum(0b11 << (35 + 4 * (i - 5)) for i in {bad, 10})
        target = packed(code.syndrome, BitVec(code.n, word.value ^ noise))
        with pytest.raises(DecodingFailure, match=f"^block {bad}: ") as got:
            packed(code.correct_with_syndrome, word, target)
        with pytest.raises(DecodingFailure) as want:
            _correct_block_by_block(code, word, target)
        assert str(got.value) == str(want.value)


def _correction_outcome(code, word, target):
    try:
        return packed(code.correct_with_syndrome, word, target)
    except DecodingFailure as exc:
        return f"DecodingFailure: {exc}"


def test_correction_routes_agree(monkeypatch):
    # the leader table (the default at these redundancies) against the
    # coset scan, forced by a negative table limit: same word or same failure
    rng = random.Random(41)
    inner = [repetition(n) for n in range(3, 14)]
    inner += [random_code(n, k, seed=rng.getrandbits(16)) for n, k in [(8, 3), (9, 4), (10, 5)]]
    cases = [
        (
            code,
            BitVec(code.n, rng.getrandbits(code.n)),
            BitVec(code.n - code.k, rng.getrandbits(code.n - code.k)),
        )
        for code in inner
        for _ in range(60)
    ]
    got = []
    for limit in (codes.LEADER_TABLE_LIMIT, -1):
        monkeypatch.setattr(codes, "LEADER_TABLE_LIMIT", limit)
        got.append([_correction_outcome(*case) for case in cases])
    assert got[0] == got[1]
    fixed = [(case, out) for case, out in zip(cases, got[0]) if isinstance(out, BitVec)]
    assert 0 < len(fixed) < len(cases)  # both outcomes are compared
    for (code, _, target), out in fixed:
        assert packed(code.syndrome, out) == target


def test_large_block_code_coset_key_is_blockwise():
    code = hamming_blocks(16384)
    assert (code.n, code.k) == (16384, 4 * (16384 // 7) + 16384 % 7)
    rng = random.Random(5)
    word = BitVec(code.n, rng.getrandbits(code.n))
    key = packed(code.coset_key, word)
    h7 = hamming(3)
    for i in (0, 1, 2339):  # first, second and last whole block
        block = BitVec(7, (word.value >> (7 * i)) & 0x7F)
        assert (key.value >> (4 * i)) & 0xF == packed(h7.coset_key, block).value
    assert key.value >> (4 * 2340) == word.value >> (7 * 2340)  # identity tail
    # every whole block at once, as one (blocks, 7) batch through the inner code
    bits = word.to_array()
    whole = h7.coset_key(bits[: 7 * 2340].reshape(2340, 7))
    assert np.array_equal(code.coset_key(bits)[: 4 * 2340], whole.ravel())


LADDER_GRID = [
    (n, delta, eps)
    for n in (7, 16, 100, 256, 2048)
    for delta in (0.0, 0.01, 0.05, 0.08, 0.1, 0.15)
    for eps in (1e-6, 0.001, 0.05, 0.35)
]


@pytest.mark.parametrize("n,delta,eps", LADDER_GRID)
def test_ladder_pick_corrects_every_pattern_within_radius(n, delta, eps):
    code = choose_reconciliation_code(n, delta, eps, 1e-4)
    rng = random.Random(n * 1000 + int(delta * 100) * 10 + int(eps * 1000))
    radius = code.decoder_radius
    ball = list(itertools.islice(code.correctable_set(), 201))
    if len(ball) <= 200:
        patterns = ball
    else:
        patterns = [_pattern(n, rng.sample(range(n), rng.randint(0, radius))) for _ in range(30)]
        # every flip inside one block is the hardest case of a block code
        width = code.runs[0][0].n
        patterns.append(_pattern(n, range(min(radius, width))))
    for e in patterns:
        word = BitVec(n, rng.getrandbits(n))
        noisy = BitVec(n, word.value ^ e)
        target = packed(code.syndrome, word)
        assert packed(code.correct_with_syndrome, noisy, target) == word, code.name
