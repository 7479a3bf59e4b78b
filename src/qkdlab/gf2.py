"""Linear algebra over GF(2) with bit-packed vectors and matrices.

Bits are packed into Python integers, least significant bit first: bit j of
the integer is component j of the vector.  The string form writes component 0
leftmost ("110" means v[0]=1, v[1]=1, v[2]=0), and the byte/hex form packs
component 8*k+j into bit j of byte k (little-endian), so serialization and
indexing never disagree.

Session bits travel as 1-D numpy uint8 arrays, entry j = component j, and
every code map takes them.  `bits_to_int`/`int_to_bits`, and `BitVec`'s
`from_array`/`to_array` on top of them, convert in the same order.

Matrices store one packed integer per row.  Elimination always pivots on the
lowest-index row and column available, so every derived object (rank, kernel
basis) is deterministic for a given matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

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
    """Immutable vector over GF(2).

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, n: int) -> BitVec:
        return cls(n, 0)

    @classmethod
    def ones(cls, n: int) -> BitVec:
        return cls(n, (1 << n) - 1)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> BitVec:
        return cls.from_array(bits if isinstance(bits, np.ndarray) else list(bits))

    @classmethod
    def from_array(cls, bits) -> BitVec:
        """Vector with component i = bits[i]; every entry must be 0 or 1."""
        a = np.asarray(bits)
        if a.ndim != 1 or ((a != 0) & (a != 1)).any():
            raise ValueError("bits must be a one-dimensional array of 0s and 1s")
        return cls(a.size, bits_to_int(a.astype(np.uint8)))

    @classmethod
    def from_str(cls, s: str) -> BitVec:
        """Parse "0110"; leftmost character is component 0."""
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def random(cls, n: int, rng) -> BitVec:
        return cls(n, rng.getrandbits(n) if n else 0)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        return self.value.to_bytes((self.n + 7) // 8, "little")

    def to_hex(self) -> str:
        return self.to_bytes().hex()

    def to_array(self) -> np.ndarray:
        """Components as a uint8 array, component i at index i."""
        return int_to_bits(self.value, self.n)

    def __str__(self) -> str:
        return "".join(str(self[i]) for i in range(self.n))

    # -- access ------------------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.n:
            raise IndexError(i)
        return (self.value >> i) & 1

    def __iter__(self) -> Iterator[int]:
        v = self.value
        for _ in range(self.n):
            yield v & 1
            v >>= 1

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: BitVec) -> BitVec:
        """Componentwise addition mod 2 (same as XOR)."""
        if not isinstance(other, BitVec):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} != {other.n}")
        return BitVec(self.n, self.value ^ other.value)

    __xor__ = __add__

    def dot(self, other: BitVec) -> int:
        """Inner product mod 2."""
        if self.n != other.n:
            raise DimensionError(f"length mismatch {self.n} != {other.n}")
        return (self.value & other.value).bit_count() & 1

    def weight(self) -> int:
        """Hamming weight."""
        return self.value.bit_count()


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

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_row_vecs(cls, vecs: list[BitVec], cols: int | None = None) -> GF2Matrix:
        if cols is None:
            cols = vecs[0].n if vecs else 0
        if any(v.n != cols for v in vecs):
            raise DimensionError("ragged rows")
        return cls(len(vecs), cols, tuple(v.value for v in vecs))

    @classmethod
    def from_col_vecs(cls, vecs: list[BitVec], rows: int | None = None) -> GF2Matrix:
        return cls.from_row_vecs(vecs, rows).transpose()

    @classmethod
    def identity(cls, n: int) -> GF2Matrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> GF2Matrix:
        return cls(rows, cols, (0,) * rows)

    @classmethod
    def random(cls, rows: int, cols: int, rng) -> GF2Matrix:
        return cls(rows, cols, tuple(rng.getrandbits(cols) if cols else 0 for _ in range(rows)))

    # -- access ------------------------------------------------------------

    def row(self, i: int) -> BitVec:
        return BitVec(self.cols, self.row_words[i])

    def col(self, j: int) -> BitVec:
        if not 0 <= j < self.cols:
            raise IndexError(j)
        return BitVec.from_bits((w >> j) & 1 for w in self.row_words)

    def entry(self, i: int, j: int) -> int:
        return (self.row_words[i] >> j) & 1

    # -- operations --------------------------------------------------------

    def apply(self, x: BitVec) -> BitVec:
        """Matrix-vector product over GF(2); x has one component per column."""
        if x.n != self.cols:
            raise DimensionError(f"vector of length {x.n} against {self.cols} columns")
        out = 0
        for i, w in enumerate(self.row_words):
            out |= ((w & x.value).bit_count() & 1) << i
        return BitVec(self.rows, out)

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

    def kernel_basis(self) -> list[BitVec]:
        """Deterministic basis of {x : M x = 0}.

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
            basis.append(BitVec(self.cols, vec))
        return basis
