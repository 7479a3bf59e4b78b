"""Linear code behaviour against small independent oracles."""

from __future__ import annotations

import random
import tracemalloc

import pytest

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


def encode_oracle(code: LinearCode, y: BitVec) -> BitVec:
    # Entry-by-entry matrix product, written without the library's apply().
    bits = []
    for i in range(code.n):
        acc = 0
        for j in range(code.k):
            acc ^= code.gen.entry(i, j) & y[j]
        bits.append(acc)
    return BitVec.from_bits(bits)


def decode_oracle(code: LinearCode, v: BitVec) -> BitVec:
    """Nearest codeword by full enumeration; ties to the smallest message
    string, which is exactly lexicographic order on message components."""
    best = None
    for m_val in range(1 << code.k):
        m = BitVec(code.k, m_val)
        cw = encode_oracle(code, m)
        d = (cw.value ^ v.value).bit_count()
        key = (d, str(m))
        if best is None or key < best[0]:
            best = (key, m)
    return best[1]


# -- shipped constructions ---------------------------------------------------


def test_repetition_basics():
    c = repetition(5)
    assert (c.n, c.k, c.decoder_radius) == (5, 1, 2)
    assert c.encode(BitVec.from_str("1")) == BitVec.from_str("11111")
    assert c.encode(BitVec.from_str("0")) == BitVec.from_str("00000")
    assert c.min_distance() == 5


def test_hamming7_shape_and_duals():
    c = hamming(3)
    assert (c.n, c.k) == (7, 4)
    assert c.min_distance() == 3
    # every dual vector is orthogonal to every codeword
    duals = [c.parity_check().row(i) for i in range(3)]
    assert c.parity_check().rows == 3
    for cw in c.codewords():
        w = BitVec(7, cw)
        for d in duals:
            assert w.dot(d) == 0


def test_hamming_rejects_bad_parameter():
    with pytest.raises(ValueError):
        hamming(1)


def test_decode_matches_oracle_hamming7_exhaustive():
    c = hamming(3)
    for v_val in range(128):
        v = BitVec(7, v_val)
        assert c.decode(v) == decode_oracle(c, v)


def test_decode_routes_agree_on_random_codes():
    rng = random.Random(11)
    for n, k in [(8, 3), (9, 4), (10, 5)]:
        c = random_code(n, k, seed=rng.getrandbits(16))
        for v_val in range(1 << n):
            v = BitVec(n, v_val)
            assert c._decode_with_leaders(v) == c._decode_brute(v)


def test_decode_tie_break_is_lexicographic():
    # repetition(4): distance ties at weight 2 must resolve to message "0"
    c = repetition(4)
    for v_val in range(16):
        v = BitVec(4, v_val)
        assert c.decode(v) == decode_oracle(c, v)
    assert c.decode(BitVec.from_str("0011")) == BitVec.from_str("0")


def test_message_of_codeword_roundtrip():
    rng = random.Random(5)
    for _ in range(4):
        c = random_code(9, 4, seed=rng.getrandbits(16))
        for y_val in range(16):
            y = BitVec(4, y_val)
            assert c.message_of_codeword(c.encode(y)) == y


# -- coset keys ----------------------------------------------------------------


def test_coset_key_against_dot_products():
    c = hamming(3)
    kappa = BitVec.from_str("1010101")
    key = c.coset_key(kappa)
    for j in range(c.k):
        assert key[j] == c.gen.col(j).dot(kappa)


def test_coset_key_constant_on_dual_cosets():
    c = hamming(3)
    rng = random.Random(3)
    duals = [c.parity_check().row(i) for i in range(3)]
    # span the whole dual code (8 vectors) and shift a few words through it
    for _ in range(20):
        kappa = BitVec.random(7, rng)
        base = c.coset_key(kappa)
        for mask in range(8):
            shift = BitVec(7, 0)
            for i in range(3):
                if (mask >> i) & 1:
                    shift = shift + duals[i]
            assert c.coset_key(kappa + shift) == base


@pytest.mark.parametrize("build", [repetition, lambda n: repetition_blocks(n, n)])
def test_long_code_coset_key_stays_packed(build):
    # a dense (n-1)-by-n parity check of this code would take 67 MB; the
    # coset key of a long code, plain or as one block, reads only the
    # packed generator
    code = build(8191)
    word = BitVec.random(code.n, random.Random(9))
    tracemalloc.start()
    try:
        key = code.coset_key(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert key.value == word.weight() & 1
    assert peak < 1 << 20


def test_coset_key_separates_nondual_shifts():
    c = hamming(3)
    dual_values = set()
    for mask in range(8):
        v = BitVec(7, 0)
        for i in range(3):
            if (mask >> i) & 1:
                v = v + c.parity_check().row(i)
        dual_values.add(v.value)
    zero_key = c.coset_key(BitVec(7, 0))
    for v_val in range(128):
        shifted = c.coset_key(BitVec(7, v_val))
        assert (shifted == zero_key) == (v_val in dual_values)


def test_parity_kernel_duality():
    c = hamming(3)
    members = {v for v in range(128) if c.syndrome(BitVec(7, v)).value == 0}
    assert members == set(c.codewords())
    assert len(members) == 16


# -- degenerate codes -----------------------------------------------------------


def test_zero_code_syndrome_is_word():
    c = zero_code(6)
    v = BitVec.from_str("101100")
    assert c.syndrome(v) == v
    assert c.decode(v) == BitVec(0, 0)
    target = BitVec.from_str("010011")
    assert c.correct_with_syndrome(v, target) == target


def test_identity_code_is_transparent():
    c = identity_code(4)
    for v_val in range(16):
        v = BitVec(4, v_val)
        assert c.syndrome(v).n == 0
        assert c.encode(c.decode(v)) == v
        assert c.coset_key(v) == v
        assert c.correct_with_syndrome(v, BitVec(0, 0)) == v


# -- syndrome correction ---------------------------------------------------------


def test_correct_with_syndrome_hamming():
    c = hamming(3)
    rng = random.Random(17)
    for _ in range(40):
        w = BitVec.random(7, rng)
        flip = 1 << rng.randrange(7)
        noisy = BitVec(7, w.value ^ flip)
        assert c.correct_with_syndrome(noisy, c.syndrome(w)) == w


def test_correct_with_syndrome_fails_beyond_radius():
    # Perfect codes never trip this check (their decoding is total, so a
    # double error silently lands on a wrong word and only a later key
    # confirmation would notice).  repetition(4) is not perfect: a
    # weight-2 coset leader exceeds its radius of 1.
    c = repetition(4)
    w = BitVec(4, 0)
    noisy = BitVec.from_str("1100")
    with pytest.raises(DecodingFailure):
        c.correct_with_syndrome(noisy, c.syndrome(w))


def test_correct_with_syndrome_perfect_code_is_total():
    c = hamming(3)
    w = BitVec(7, 0)
    noisy = BitVec.from_str("1100000")
    fixed = c.correct_with_syndrome(noisy, c.syndrome(w))
    assert c.syndrome(fixed) == c.syndrome(w)
    assert fixed != w  # miscorrected, but to a valid coset member


# -- block codes -------------------------------------------------------------------


def test_block_code_layout():
    c = BlockCode("demo", [repetition(3), identity_code(2)])
    assert (c.n, c.k) == (5, 3)
    y = BitVec.from_str("101")
    assert c.encode(y) == BitVec.from_str("11101")
    assert c.encode(y) == encode_oracle(c, y)
    assert c.decode(BitVec.from_str("11001")) == BitVec.from_str("101")


def test_block_syndrome_is_concatenation():
    c = BlockCode("demo", [hamming(3), repetition(3)])
    rng = random.Random(23)
    for _ in range(30):
        v = BitVec.random(10, rng)
        left = BitVec(7, v.value & 0x7F)
        right = BitVec(3, v.value >> 7)
        s_left, s_right = hamming(3).syndrome(left), repetition(3).syndrome(right)
        expect = BitVec(5, s_left.value | s_right.value << 3)
        assert c.syndrome(v) == expect


def test_block_correct_with_syndrome():
    c = rec_hamming(16)  # two [7,4] blocks plus a verbatim 2-bit tail
    rng = random.Random(29)
    for _ in range(40):
        w = BitVec.random(16, rng)
        noise = 1 << rng.randrange(7)
        noise |= 1 << (7 + rng.randrange(7))
        if rng.random() < 0.5:
            noise |= 1 << (14 + rng.randrange(2))
        noisy = BitVec(16, w.value ^ noise)
        assert c.correct_with_syndrome(noisy, c.syndrome(w)) == w


def test_block_correction_failure_names_block():
    c = BlockCode("demo", [repetition(4), repetition(4)])
    w = BitVec(8, 0)
    noisy = BitVec(8, 0b11 << 4)  # two flips inside the second block
    with pytest.raises(DecodingFailure, match="block 1"):
        c.correct_with_syndrome(noisy, c.syndrome(w))


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


# -- correctable sets -----------------------------------------------------------------


def test_correctable_set_ball():
    s = CorrectableSet(5, max_weight=2)
    assert s.size() == 1 + 5 + 10
    assert BitVec.from_str("01010") in s
    assert BitVec.from_str("01011") not in s
    listed = list(s)
    assert listed[0] == BitVec(5, 0)
    assert len(listed) == s.size()
    weights = [x.weight() for x in listed]
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
