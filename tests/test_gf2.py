from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab.codes import hamming, random_code, repetition
from qkdlab.gf2 import (
    BitVec,
    DimensionError,
    GF2Matrix,
    bits_to_int,
    int_to_bits,
    is_permutation,
)
from qkdlab.protocol import _pack_bits


def _matrix(rows: int, cols: int, rng) -> GF2Matrix:
    """A random matrix, one getrandbits(cols) per row."""
    return GF2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def _identity(n: int) -> GF2Matrix:
    return GF2Matrix(n, n, tuple(1 << i for i in range(n)))


def _parity(x: int) -> int:
    return x.bit_count() & 1


# ---------------------------------------------------------------------------
# BitVec: the final key


def test_bit_order_packing():
    # Component 0 is the least significant bit: [1, 0, 1, 0] packs to 0b0101 = 5.
    v = BitVec.from_array([1, 0, 1, 0])
    assert v == BitVec(4, 5)
    assert v.to_hex() == "05"
    assert BitVec(4, int.from_bytes(bytes.fromhex("05"), "little")) == v


def test_hex_roundtrip_random():
    rng = random.Random(11)
    for n in (0, 1, 7, 8, 9, 63, 64, 100):
        v = BitVec(n, rng.getrandbits(n))
        assert BitVec(n, int.from_bytes(bytes.fromhex(v.to_hex()), "little")) == v


def test_value_must_fit_its_length():
    with pytest.raises(DimensionError):
        BitVec(-1, 0)
    for n, value in ((3, 8), (0, 1), (4, -1)):
        with pytest.raises(ValueError):
            BitVec(n, value)


# ---------------------------------------------------------------------------
# the numpy bit-array bridge

BITS = st.lists(st.integers(0, 1), max_size=300)


@settings(max_examples=80, deadline=None)
@given(BITS)
def test_from_array_round_trips_and_matches_the_wire_packing(bits):
    a = np.array(bits, dtype=np.uint8)
    v = BitVec.from_array(a)
    assert v == BitVec(len(bits), sum(b << i for i, b in enumerate(bits)))
    assert v.value == bits_to_int(a) and np.array_equal(int_to_bits(v.value, v.n), a)
    back = v.to_array()
    assert back.dtype == np.uint8 and np.array_equal(back, a)
    assert BitVec.from_array(a.astype(bool)) == v
    assert BitVec.from_array(bits) == v
    # the key file's hex is the bytes the session's bit codec puts on the wire
    assert v.to_hex() == _pack_bits(a).hex()


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
        BitVec.from_array(a.tolist())


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
    v = BitVec(0, 0)
    assert v.to_hex() == ""
    assert v.to_array().size == 0
    assert BitVec.from_array([]) == v


# ---------------------------------------------------------------------------
# GF2Matrix on packed ints


def test_apply_hand_example():
    # Worked by hand: rows (1,1,0) and (0,1,1) against x = (1,1,0):
    # row0 . x = 1+1 = 0, row1 . x = 1+0 = 1, so M x = (0,1) = 0b10.
    m = GF2Matrix(2, 3, (0b011, 0b110))
    assert m.apply(0b011) == 0b10


def test_apply_identity_and_zero():
    rng = random.Random(3)
    for n in (1, 5, 16):
        x = rng.getrandbits(n)
        assert _identity(n).apply(x) == x
        assert GF2Matrix(3, n, (0, 0, 0)).apply(x) == 0


def test_apply_rejects_a_vector_wider_than_its_columns():
    m = _identity(2)
    for x in (0b101, 1 << 2, -1):
        with pytest.raises(DimensionError):
            m.apply(x)


def test_transpose_involution_and_entries():
    rng = random.Random(5)
    m = _matrix(4, 7, rng)
    t = m.transpose()
    assert t.rows == 7 and t.cols == 4
    for i in range(4):
        for j in range(7):
            assert (m.row_words[i] >> j) & 1 == (t.row_words[j] >> i) & 1
    assert t.transpose() == m


def test_adjoint_identity_exhaustive_small_dims():
    # <M^T x, y> = <x, M y> for all x, y, checked exhaustively for every
    # shape up to 8x8 with one random matrix per shape.
    rng = random.Random(17)
    for r in range(1, 9):
        for c in range(1, 9):
            m = _matrix(r, c, rng)
            t = m.transpose()
            for x in range(1 << r):
                tx = t.apply(x)
                for y in range(1 << c):
                    assert _parity(tx & y) == _parity(x & m.apply(y))


def test_rank_and_transpose_rank_agree():
    rng = random.Random(23)
    for _ in range(50):
        m = _matrix(rng.randrange(1, 9), rng.randrange(1, 9), rng)
        assert m.rank() == m.transpose().rank()


def test_kernel_identity_empty():
    assert _identity(4).kernel_basis() == []


def test_kernel_zero_matrix_full():
    basis = GF2Matrix(2, 3, (0, 0)).kernel_basis()
    assert len(basis) == 3
    spanned = {0}
    for b in basis:
        spanned |= {s ^ b for s in spanned}
    assert spanned == set(range(8))


def test_kernel_members_and_dimension():
    rng = random.Random(31)
    for _ in range(50):
        r, c = rng.randrange(1, 8), rng.randrange(1, 8)
        m = _matrix(r, c, rng)
        basis = m.kernel_basis()
        assert len(basis) == c - m.rank()
        for b in basis:
            assert m.apply(b) == 0
        # basis is linearly independent: stacking it gives full rank
        if basis:
            assert GF2Matrix(len(basis), c, tuple(basis)).rank() == len(basis)


def test_kernel_exhaustive_oracle():
    # The span of kernel_basis must equal the set of all vectors mapped to 0,
    # enumerated directly.
    rng = random.Random(41)
    for _ in range(20):
        r, c = rng.randrange(1, 6), rng.randrange(1, 9)
        m = _matrix(r, c, rng)
        truth = {v for v in range(1 << c) if m.apply(v) == 0}
        spanned = {0}
        for b in m.kernel_basis():
            spanned |= {s ^ b for s in spanned}
        assert spanned == truth


MATRICES = st.tuples(st.integers(0, 12), st.integers(0, 12)).flatmap(
    lambda shape: st.builds(
        GF2Matrix,
        st.just(shape[0]),
        st.just(shape[1]),
        st.lists(
            st.integers(0, (1 << shape[1]) - 1), min_size=shape[0], max_size=shape[0]
        ).map(tuple),
    )
)


@settings(max_examples=150, deadline=None)
@given(MATRICES)
def test_every_kernel_basis_int_is_annihilated(m):
    basis = m.kernel_basis()
    assert len(basis) == m.cols - m.rank()
    assert all(0 < b < 1 << m.cols and m.apply(b) == 0 for b in basis)


INNER_CODES = st.one_of(
    st.integers(1, 12).flatmap(
        lambda n: st.builds(random_code, st.just(n), st.integers(1, n), st.integers(0, 2**16))
    ),
    st.integers(2, 4).map(hamming),
    st.integers(1, 12).map(repetition),
)


@settings(max_examples=100, deadline=None)
@given(INNER_CODES, st.data())
def test_parity_check_on_ints_is_the_syndrome_on_arrays(code, data):
    v = np.array(data.draw(st.lists(st.integers(0, 1), min_size=code.n, max_size=code.n)), np.uint8)
    assert code.parity_check().apply(bits_to_int(v)) == bits_to_int(code.syndrome(v))
