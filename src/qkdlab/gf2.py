"""Linear algebra over GF(2) on packed integers, and the final key's type.

Bits are packed into Python integers, least significant bit first: bit j of
the integer is component j of the vector.  Session bits travel as 1-D numpy
uint8 arrays, entry j = component j, and `bits_to_int`/`int_to_bits` convert
between the two forms in that order.

`GF2Matrix` stores one packed integer per row and takes and returns packed
integers.  Elimination always pivots on the lowest-index row and column
available, so every derived object (rank, kernel basis) is deterministic for
a given matrix.

`BitVec` is the final key: its length and packed value, with a byte/hex form
that packs component 8*k+j into bit j of byte k (little-endian).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


def bits_to_int(bits: np.ndarray) -> int:
    """Packed integer of a 0/1 array, bit j = bits[j]."""
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def int_to_bits(value: int, n: int) -> np.ndarray:
    """The n low bits of value as a uint8 array, component j at index j."""
    packed = np.frombuffer(value.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


@dataclass(frozen=True)
class BitVec:
    """The final key, an immutable vector over GF(2).

    Attributes:
        n: number of components.
        value: packed integer, bit j = component j.
    """

    n: int
    value: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise DimensionError(f"negative length {self.n}")
        if self.value < 0 or self.value >> self.n:
            raise ValueError(f"value {self.value:#x} does not fit in {self.n} bits")

    @classmethod
    def from_array(cls, bits) -> BitVec:
        """Vector with component i = bits[i]; every entry must be 0 or 1."""
        a = np.asarray(bits)
        if a.ndim != 1 or ((a != 0) & (a != 1)).any():
            raise ValueError("bits must be a one-dimensional array of 0s and 1s")
        return cls(a.size, bits_to_int(a.astype(np.uint8)))

    def to_array(self) -> np.ndarray:
        """Components as a uint8 array, component i at index i."""
        return int_to_bits(self.value, self.n)

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.n + 7) // 8, "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """Whether the integer array perm holds each of 0..n-1 exactly once, in
    time linear in n: once every entry is in range, a count of them is all
    ones only when none repeats."""
    if perm.shape != (n,) or (n and perm.dtype.kind not in "iu"):
        return False
    if n and (perm.min() < 0 or perm.max() >= n):
        return False
    return bool(np.all(np.bincount(perm.astype(np.intp), minlength=n) == 1))


def _row_reduce(rows: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Row-reduce in place to reduced echelon form.

    Pivots are chosen at the lowest available column, using the lowest
    remaining row.  Returns (reduced rows, pivot column list).
    """
    rows = list(rows)
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        mask = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        pivots.append(col)
        rank += 1
    return rows, pivots


@dataclass(frozen=True)
class GF2Matrix:
    """Immutable matrix over GF(2); row i is the packed integer row_words[i]."""

    rows: int
    cols: int
    row_words: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise DimensionError("negative shape")
        if len(self.row_words) != self.rows:
            raise DimensionError("row count does not match shape")
        for w in self.row_words:
            if w < 0 or w >> self.cols:
                raise ValueError(f"row {w:#x} does not fit in {self.cols} columns")

    def apply(self, x: int) -> int:
        """Matrix-vector product over GF(2) on a packed cols-bit vector."""
        if x < 0 or x >> self.cols:
            raise DimensionError(f"vector {x:#x} does not fit in {self.cols} columns")
        out = 0
        for i, w in enumerate(self.row_words):
            out |= ((w & x).bit_count() & 1) << i
        return out

    def transpose(self) -> GF2Matrix:
        words = [0] * self.cols
        for i, w in enumerate(self.row_words):
            while w:
                j = (w & -w).bit_length() - 1
                words[j] |= 1 << i
                w &= w - 1
        return GF2Matrix(self.cols, self.rows, tuple(words))

    def rank(self) -> int:
        _, pivots = _row_reduce(list(self.row_words), self.cols)
        return len(pivots)

    def kernel_basis(self) -> list[int]:
        """Deterministic basis of {x : M x = 0}, as packed ints.

        One basis vector per free column, in ascending column order: the
        vector for free column f has x[f] = 1 and x[p] = (reduced row of p)[f]
        for each pivot column p.
        """
        reduced, pivots = _row_reduce(list(self.row_words), self.cols)
        pivot_set = set(pivots)
        basis = []
        for free in range(self.cols):
            if free in pivot_set:
                continue
            vec = 1 << free
            for r, p in enumerate(pivots):
                if (reduced[r] >> free) & 1:
                    vec |= 1 << p
            basis.append(vec)
        return basis
