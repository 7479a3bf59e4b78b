from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.gf2 import BitVec, DimensionError, GF2Matrix, is_permutation


# ---------------------------------------------------------------------------
# BitVec basics


def test_from_str_roundtrip():
    v = BitVec.from_str("1101001")
    assert str(v) == "1101001"
    assert v.n == 7
    assert v.weight() == 4
    assert [v[i] for i in range(7)] == [1, 1, 0, 1, 0, 0, 1]


def test_bit_order_packing():
    # Component 0 is the least significant bit: "1010" packs to 0b0101 = 5.
    v = BitVec.from_str("1010")
    assert v.value == 5
    assert v.to_hex() == "05"
    assert BitVec(4, int.from_bytes(bytes.fromhex("05"), "little")) == v


def test_hex_roundtrip_random():
    rng = random.Random(11)
    for n in (0, 1, 7, 8, 9, 63, 64, 100):
        v = BitVec.random(n, rng)
        assert BitVec(n, int.from_bytes(bytes.fromhex(v.to_hex()), "little")) == v


def test_addition_is_xor():
    a = BitVec.from_str("1100")
    b = BitVec.from_str("1010")
    assert str(a + b) == "0110"


def test_addition_properties_random():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 40)
        a, b, c = (BitVec.random(n, rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + a == BitVec.zeros(n)
        assert a + BitVec.zeros(n) == a


def test_length_mismatch_rejected():
    with pytest.raises(DimensionError):
        BitVec.from_str("10") + BitVec.from_str("100")
    with pytest.raises(DimensionError):
        BitVec.from_str("10").dot(BitVec.from_str("100"))


def test_dot_and_weight():
    a = BitVec.from_str("1110")
    b = BitVec.from_str("0111")
    assert a.dot(b) == 0  # overlap 11 -> even
    assert a.dot(BitVec.from_str("0100")) == 1
    assert BitVec.zeros(5).weight() == 0
    assert BitVec.ones(5).weight() == 5


# ---------------------------------------------------------------------------
# the numpy bit-array bridge

BITS = st.lists(st.integers(0, 1), max_size=300)


@settings(max_examples=80, deadline=None)
@given(BITS)
def test_from_array_round_trips_and_matches_from_bits(bits):
    a = np.array(bits, dtype=np.uint8)
    v = BitVec.from_array(a)
    assert v == BitVec.from_bits(a.tolist())
    assert v == BitVec(len(bits), sum(b << i for i, b in enumerate(bits)))
    back = v.to_array()
    assert back.dtype == np.uint8 and np.array_equal(back, a)
    assert BitVec.from_array(a.astype(bool)) == v


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 1), min_size=1, max_size=80),
    st.data(),
    st.one_of(st.integers(2, 1000), st.integers(-1000, -1), st.sampled_from([0.5, -0.0001, 1.5])),
)
def test_entries_outside_zero_one_are_rejected(bits, data, bad):
    a = np.array(bits, dtype=np.float64 if isinstance(bad, float) else np.int64)
    a[data.draw(st.integers(0, len(bits) - 1))] = bad
    with pytest.raises(ValueError):
        BitVec.from_array(a)
    with pytest.raises(ValueError):
        BitVec.from_bits(a.tolist())


def _perm_candidates(n: int):
    return st.tuples(
        st.just(n),
        st.one_of(
            st.permutations(range(n)),
            st.lists(st.integers(0, max(n - 1, 0)), min_size=n, max_size=n),  # repeats
            st.lists(st.integers(-2, n + 2), max_size=n + 2),
            # entries far out of range, up to the top of uint64
            st.lists(st.one_of(st.integers(0, n), st.integers(2**32, 2**64 - 1)), min_size=n, max_size=n),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40).flatmap(_perm_candidates))
def test_permutation_check_matches_sorting(case):
    n, perm = case
    ok = sorted(perm) == list(range(n))
    if max(perm, default=0) < 2**63:
        assert is_permutation(np.array(perm, dtype=np.int64), n) == ok
    if min(perm, default=0) >= 0:
        assert is_permutation(np.array(perm, dtype=np.uint64), n) == ok


def test_zero_length_vector():
    v = BitVec.zeros(0)
    assert len(v) == 0
    assert v.to_hex() == ""
    assert v + v == v


# ---------------------------------------------------------------------------
# GF2Matrix basics


def test_apply_hand_example():
    # Worked by hand: rows (1,1,0) and (0,1,1) against x = 110:
    # row0 . x = 1+1 = 0, row1 . x = 1+0 = 1.
    m = GF2Matrix.from_row_vecs([BitVec.from_str("110"), BitVec.from_str("011")])
    assert str(m.apply(BitVec.from_str("110"))) == "01"


def test_apply_identity_and_zero():
    rng = random.Random(3)
    for n in (1, 5, 16):
        x = BitVec.random(n, rng)
        assert GF2Matrix.identity(n).apply(x) == x
        assert GF2Matrix.zeros(3, n).apply(x) == BitVec.zeros(3)


def test_apply_dimension_mismatch():
    m = GF2Matrix.identity(2)
    with pytest.raises(DimensionError):
        m.apply(BitVec.from_str("101"))


def test_transpose_involution_and_entries():
    rng = random.Random(5)
    m = GF2Matrix.random(4, 7, rng)
    t = m.transpose()
    assert t.rows == 7 and t.cols == 4
    for i in range(4):
        for j in range(7):
            assert m.entry(i, j) == t.entry(j, i)
    assert t.transpose() == m


def test_adjoint_identity_exhaustive_small_dims():
    # <M^T x, y> = <x, M y> for all x, y, checked exhaustively for every
    # shape up to 8x8 with one random matrix per shape.
    rng = random.Random(17)
    for r in range(1, 9):
        for c in range(1, 9):
            m = GF2Matrix.random(r, c, rng)
            t = m.transpose()
            for xv in range(1 << r):
                x = BitVec(r, xv)
                tx = t.apply(x)
                for yv in range(1 << c):
                    y = BitVec(c, yv)
                    assert tx.dot(y) == x.dot(m.apply(y))


def test_rank_and_transpose_rank_agree():
    rng = random.Random(23)
    for _ in range(50):
        m = GF2Matrix.random(rng.randrange(1, 9), rng.randrange(1, 9), rng)
        assert m.rank() == m.transpose().rank()


def test_kernel_identity_empty():
    assert GF2Matrix.identity(4).kernel_basis() == []


def test_kernel_zero_matrix_full():
    basis = GF2Matrix.zeros(2, 3).kernel_basis()
    assert len(basis) == 3
    spanned = {0}
    for b in basis:
        spanned |= {s ^ b.value for s in spanned}
    assert spanned == set(range(8))


def test_kernel_members_and_dimension():
    rng = random.Random(31)
    for _ in range(50):
        r, c = rng.randrange(1, 8), rng.randrange(1, 8)
        m = GF2Matrix.random(r, c, rng)
        basis = m.kernel_basis()
        assert len(basis) == c - m.rank()
        for b in basis:
            assert m.apply(b) == BitVec.zeros(r)
        # basis is linearly independent: stacking it gives full rank
        if basis:
            assert GF2Matrix.from_row_vecs(basis).rank() == len(basis)


def test_kernel_exhaustive_oracle():
    # The span of kernel_basis must equal the set of all vectors mapped to 0,
    # enumerated directly.
    rng = random.Random(41)
    for _ in range(20):
        r, c = rng.randrange(1, 6), rng.randrange(1, 9)
        m = GF2Matrix.random(r, c, rng)
        truth = {v for v in range(1 << c) if m.apply(BitVec(c, v)).value == 0}
        spanned = {0}
        for b in m.kernel_basis():
            spanned |= {s ^ b.value for s in spanned}
        assert spanned == truth
