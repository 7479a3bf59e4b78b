"""Linear code behaviour against small independent oracles."""

from __future__ import annotations

import inspect
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import codes
from qkdlab.codes import (
    BlockCode,
    CorrectableSet,
    DecodingFailure,
    LinearCode,
    code_from_descriptor,
    hamming,
    hamming_blocks,
    identity_code,
    random_code,
    rec_hamming,
    rec_identity,
    rec_repetition,
    rec_verbatim,
    repetition,
    repetition_blocks,
    reversal_holds,
    zero_code,
)
from qkdlab.gf2 import BitVec


def bits(s: str) -> BitVec:
    """A word written component 0 first: "110" has v[0] = v[1] = 1."""
    return BitVec(len(s), int(s[::-1], 2))


def packed(code_map, *words: BitVec) -> BitVec:
    """A code map applied to packed words: each converted to a bit array on
    the way in, and the result packed on the way out."""
    return BitVec.from_array(code_map(*(w.to_array() for w in words)))


def encode_oracle(code: LinearCode, y: BitVec) -> BitVec:
    # Entry-by-entry matrix product, written without the library's apply().
    out = 0
    for i, row in enumerate(code.gen.row_words):
        acc = 0
        for j in range(code.k):
            acc ^= (row >> j) & (y.value >> j) & 1
        out |= acc << i
    return BitVec(code.n, out)


def decode_oracle(code: LinearCode, v: BitVec) -> BitVec:
    """Nearest codeword by full enumeration; ties to the smallest message
    string, which is exactly lexicographic order on message components."""
    best = None
    for m_val in range(1 << code.k):
        m = BitVec(code.k, m_val)
        cw = encode_oracle(code, m)
        d = (cw.value ^ v.value).bit_count()
        key = (d, m.to_array().tolist())
        if best is None or key < best[0]:
            best = (key, m)
    return best[1]


# -- shipped constructions ---------------------------------------------------


def test_repetition_basics():
    c = repetition(5)
    assert (c.n, c.k, c.decoder_radius) == (5, 1, 2)
    assert packed(c.encode, bits("1")) == bits("11111")
    assert packed(c.encode, bits("0")) == bits("00000")
    assert c.min_distance() == 5


def test_hamming7_shape_and_duals():
    c = hamming(3)
    assert (c.n, c.k) == (7, 4)
    assert c.min_distance() == 3
    # every dual vector is orthogonal to every codeword
    duals = c.parity_check().row_words
    assert c.parity_check().rows == 3
    for cw in c.codewords():
        for d in duals:
            assert (cw & d).bit_count() % 2 == 0


def test_hamming_rejects_bad_parameter():
    with pytest.raises(ValueError):
        hamming(1)


def test_decode_matches_oracle_hamming7_exhaustive():
    c = hamming(3)
    for v_val in range(128):
        v = BitVec(7, v_val)
        assert packed(c.decode, v) == decode_oracle(c, v)


def test_decode_routes_agree_on_random_codes(monkeypatch):
    # the leader table (the default at these redundancies) against the
    # coset scan, forced by a negative table limit
    rng = random.Random(11)
    cs = [random_code(n, k, seed=rng.getrandbits(16)) for n, k in [(8, 3), (9, 4), (10, 5)]]
    got = []
    for limit in (codes.LEADER_TABLE_LIMIT, -1):
        monkeypatch.setattr(codes, "LEADER_TABLE_LIMIT", limit)
        got.append([packed(c.decode, BitVec(c.n, v)) for c in cs for v in range(1 << c.n)])
    assert got[0] == got[1]
    assert got[0][: 1 << 8] == [decode_oracle(cs[0], BitVec(8, v)) for v in range(1 << 8)]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 10).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.integers(0, 2**16),
    st.data(),
)
def test_lightest_patterns_match_exhaustive_oracle(shape, seed, data):
    n, k = shape
    code = random_code(n, k, seed)
    s = data.draw(st.integers(0, (1 << (n - k)) - 1))
    checks = code.parity_check().row_words
    coset = [
        e
        for e in range(1 << n)
        if sum((((row & e).bit_count() & 1) << i) for i, row in enumerate(checks)) == s
    ]
    w = min(e.bit_count() for e in coset)
    want = sorted(e for e in coset if e.bit_count() == w)
    for limit in (codes.LEADER_TABLE_LIMIT, -1):  # leader table, then coset scan
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "LEADER_TABLE_LIMIT", limit)
            assert sorted(code._lightest(s)) == want


def test_decode_tie_break_is_lexicographic():
    # repetition(4): distance ties at weight 2 must resolve to message "0"
    c = repetition(4)
    for v_val in range(16):
        v = BitVec(4, v_val)
        assert packed(c.decode, v) == decode_oracle(c, v)
    assert packed(c.decode, bits("0011")) == bits("0")


# -- coset keys ----------------------------------------------------------------


def test_coset_key_against_dot_products():
    c = hamming(3)
    kappa = bits("1010101")
    key = packed(c.coset_key, kappa)
    for j, col in enumerate(c.gen.transpose().row_words):
        assert (key.value >> j) & 1 == (col & kappa.value).bit_count() & 1


def test_coset_key_constant_on_dual_cosets():
    c = hamming(3)
    rng = random.Random(3)
    duals = c.parity_check().row_words
    # span the whole dual code (8 vectors) and shift a few words through it
    for _ in range(20):
        kappa = BitVec(7, rng.getrandbits(7))
        base = packed(c.coset_key, kappa)
        for mask in range(8):
            shift = 0
            for i in range(3):
                if (mask >> i) & 1:
                    shift ^= duals[i]
            assert packed(c.coset_key, BitVec(7, kappa.value ^ shift)) == base


@pytest.mark.parametrize("build", [repetition, lambda n: repetition_blocks(n, n)])
def test_long_code_coset_key_stays_packed(build):
    # a dense (n-1)-by-n parity check of this code would take 67 MB; the
    # coset key of a long code, plain or as one block, reads only the
    # n-by-1 generator
    code = build(8191)
    word = BitVec(code.n, random.Random(9).getrandbits(code.n))
    bits = word.to_array()
    tracemalloc.start()
    try:
        key = code.coset_key(bits)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert BitVec.from_array(key).value == word.value.bit_count() & 1
    assert peak < 1 << 20


def test_coset_key_separates_nondual_shifts():
    c = hamming(3)
    dual_values = set()
    for mask in range(8):
        v = 0
        for i in range(3):
            if (mask >> i) & 1:
                v ^= c.parity_check().row_words[i]
        dual_values.add(v)
    zero_key = packed(c.coset_key, BitVec(7, 0))
    for v_val in range(128):
        shifted = packed(c.coset_key, BitVec(7, v_val))
        assert (shifted == zero_key) == (v_val in dual_values)


def test_parity_kernel_duality():
    c = hamming(3)
    members = {v for v in range(128) if packed(c.syndrome, BitVec(7, v)).value == 0}
    assert members == set(c.codewords())
    assert len(members) == 16


# -- degenerate codes -----------------------------------------------------------


def test_zero_code_syndrome_is_word():
    c = zero_code(6)
    v = bits("101100")
    assert packed(c.syndrome, v) == v
    assert packed(c.decode, v) == BitVec(0, 0)
    target = bits("010011")
    assert packed(c.correct_with_syndrome, v, target) == target


def test_identity_code_is_transparent():
    c = identity_code(4)
    for v_val in range(16):
        v = BitVec(4, v_val)
        assert packed(c.syndrome, v).n == 0
        assert packed(c.encode, packed(c.decode, v)) == v
        assert packed(c.coset_key, v) == v
        assert packed(c.correct_with_syndrome, v, BitVec(0, 0)) == v


# -- syndrome correction ---------------------------------------------------------


def test_correct_with_syndrome_hamming():
    c = hamming(3)
    rng = random.Random(17)
    for _ in range(40):
        w = BitVec(7, rng.getrandbits(7))
        flip = 1 << rng.randrange(7)
        noisy = BitVec(7, w.value ^ flip)
        assert packed(c.correct_with_syndrome, noisy, packed(c.syndrome, w)) == w


def test_correct_with_syndrome_fails_beyond_radius():
    # Perfect codes never trip this check (their decoding is total, so a
    # double error silently lands on a wrong word and only a later key
    # confirmation would notice).  repetition(4) is not perfect: a
    # weight-2 coset leader exceeds its radius of 1.
    c = repetition(4)
    w = BitVec(4, 0)
    noisy = bits("1100")
    with pytest.raises(DecodingFailure):
        packed(c.correct_with_syndrome, noisy, packed(c.syndrome, w))


def test_correct_with_syndrome_perfect_code_is_total():
    c = hamming(3)
    w = BitVec(7, 0)
    noisy = bits("1100000")
    fixed = packed(c.correct_with_syndrome, noisy, packed(c.syndrome, w))
    assert packed(c.syndrome, fixed) == packed(c.syndrome, w)
    assert fixed != w  # miscorrected, but to a valid coset member


# -- block codes -------------------------------------------------------------------


def test_block_code_layout():
    c = BlockCode("demo", [(repetition(3), 1), (identity_code(2), 1)])
    assert (c.n, c.k) == (5, 3)
    y = bits("101")
    assert packed(c.encode, y) == bits("11101")
    assert packed(c.encode, y) == encode_oracle(c, y)
    assert packed(c.decode, bits("11001")) == bits("101")


def test_block_syndrome_is_concatenation():
    c = BlockCode("demo", [(hamming(3), 1), (repetition(3), 1)])
    rng = random.Random(23)
    for _ in range(30):
        v = BitVec(10, rng.getrandbits(10))
        left = BitVec(7, v.value & 0x7F)
        right = BitVec(3, v.value >> 7)
        s_left, s_right = packed(hamming(3).syndrome, left), packed(repetition(3).syndrome, right)
        expect = BitVec(5, s_left.value | s_right.value << 3)
        assert packed(c.syndrome, v) == expect


def test_block_correct_with_syndrome():
    c = rec_hamming(16)  # two [7,4] blocks plus a verbatim 2-bit tail
    rng = random.Random(29)
    for _ in range(40):
        w = BitVec(16, rng.getrandbits(16))
        noise = 1 << rng.randrange(7)
        noise |= 1 << (7 + rng.randrange(7))
        if rng.random() < 0.5:
            noise |= 1 << (14 + rng.randrange(2))
        noisy = BitVec(16, w.value ^ noise)
        assert packed(c.correct_with_syndrome, noisy, packed(c.syndrome, w)) == w


def test_block_correction_failure_names_block():
    c = BlockCode("demo", [(repetition(4), 2)])
    w = BitVec(8, 0)
    noisy = BitVec(8, 0b11 << 4)  # two flips inside the second block
    with pytest.raises(DecodingFailure, match="block 1"):
        packed(c.correct_with_syndrome, noisy, packed(c.syndrome, w))


def test_block_families_cover_length():
    for c, n, k in [
        (hamming_blocks(30), 30, 4 * 4 + 2),
        (repetition_blocks(20, 3), 20, 6 + 2),
        (rec_hamming(16), 16, 8),
        (rec_repetition(22, 5), 22, 4),
        (rec_identity(9), 9, 9),
        (rec_verbatim(6), 6, 0),
    ]:
        assert (c.n, c.k) == (n, k), c.name


def test_trivial_codes_and_tails_are_runs_of_one_bit_codes():
    assert [(c.n, c.k, count) for c, count in rec_verbatim(65535).runs] == [(1, 0, 65535)]
    assert [(c.n, c.k, count) for c, count in rec_identity(9).runs] == [(1, 1, 9)]
    assert hamming_blocks(30).runs[-1] == (identity_code(2).runs[0][0], 2)
    assert rec_hamming(16).runs[-1] == (zero_code(2).runs[0][0], 2)


def test_block_radius_skips_blocks_without_message_bits():
    # two majority-of-five blocks and a verbatim bit: the bit reverses any
    # flip, so the promise is the blocks' radius of two
    c = rec_repetition(11, 5)
    assert c.decoder_radius == 2
    assert reversal_holds(c)
    rng = random.Random(31)
    for _ in range(40):
        w = BitVec(11, rng.getrandbits(11))
        noise = sum(1 << p for p in rng.sample(range(5), 2) + rng.sample(range(5, 10), 2))
        noisy = BitVec(11, w.value ^ noise ^ rng.getrandbits(1) << 10)
        assert packed(c.correct_with_syndrome, noisy, packed(c.syndrome, w)) == w


# -- correctable sets -----------------------------------------------------------------


def test_correctable_set_ball():
    listed = list(CorrectableSet(5, max_weight=2))
    assert bits("01010").value in listed
    assert bits("01011").value not in listed
    assert listed[0] == 0
    assert len(listed) == len(set(listed)) == 16  # 1 + 5 + 10
    weights = [x.bit_count() for x in listed]
    assert weights == sorted(weights)


def test_correctable_set_validation():
    with pytest.raises(ValueError):
        CorrectableSet(3, max_weight=-1)
    with pytest.raises(ValueError):
        CorrectableSet(3, max_weight=4)


# -- reversal ---------------------------------------------------------------------------


def test_reversal_holds_for_shipped_codes():
    assert reversal_holds(repetition(3))
    assert reversal_holds(repetition(5))
    assert reversal_holds(hamming(3))


# -- descriptors ---------------------------------------------------------------------------


def test_descriptor_roundtrip():
    codes = [
        repetition(5),
        hamming(3),
        identity_code(6),
        zero_code(4),
        random_code(10, 3, seed=7),
        hamming_blocks(30),
        repetition_blocks(20, 3),
        rec_hamming(16),
        rec_repetition(22, 5),
        rec_repetition(60, 17),
        repetition_blocks(5, 9),
        rec_identity(9),
        rec_verbatim(6),
    ]
    for c in codes:
        again = code_from_descriptor(c.descriptor())
        assert again.gen == c.gen, c.name
        assert again.descriptor() == c.descriptor()


def test_descriptor_rejects_garbage():
    with pytest.raises(ValueError):
        code_from_descriptor("fountain:n=12")
    with pytest.raises(ValueError):
        code_from_descriptor("hamming:n=6")
    with pytest.raises(ValueError):
        code_from_descriptor("random:n=10,k=3")
    # a parameter the family's builder does not take, or one it needs
    for desc in ("hamming_blocks:n=16,x=1", "repetition:n=5,inner=3", "rec_verbatim"):
        with pytest.raises(ValueError, match="does not fit"):
            code_from_descriptor(desc)


def test_every_family_builds_from_its_descriptor():
    params = {"n": 7, "k": 2, "seed": 5, "inner": 3}
    for family, build in codes.CODE_FAMILIES.items():
        names = inspect.signature(build).parameters
        desc = f"{family}:{','.join(f'{p}={params[p]}' for p in names)}"
        assert code_from_descriptor(desc).descriptor() == desc


def test_random_codes_keep_their_generators():
    # the rows are drawn with one getrandbits(k) each, until full rank
    assert random_code(10, 3, seed=7).gen.row_words == (2, 7, 1, 3, 5, 0, 0, 6, 4, 0)
    assert random_code(12, 6, seed=99).gen.row_words == (
        25, 24, 12, 38, 11, 14, 15, 8, 48, 5, 16, 46,
    )
