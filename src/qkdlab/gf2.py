"""Linear algebra over GF(2) with bit-packed vectors and matrices.

Bits are packed into Python integers, least significant bit first: bit j of
the integer is component j of the vector.  The string form writes component 0
leftmost ("110" means v[0]=1, v[1]=1, v[2]=0), and the byte/hex form packs
component 8*k+j into bit j of byte k (little-endian), so serialization and
indexing never disagree.

Session bits travel as numpy uint8 arrays, entry j = component j;
`BitVec.from_array`/`to_array` convert through `np.packbits`/`np.unpackbits`
in the same little-endian order, in time linear in n.

Matrices store one packed integer per row.  Elimination always pivots on the
lowest-index row and column available, so every derived object (rank, kernel
basis, inverse) is deterministic for a given matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np


class DimensionError(ValueError):
    """Operands have incompatible lengths or shapes."""


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
        packed = np.packbits(a.astype(np.uint8), bitorder="little")
        return cls(a.size, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_str(cls, s: str) -> BitVec:
        """Parse "0110"; leftmost character is component 0."""
        return cls.from_bits(int(c) for c in s)

    @classmethod
    def from_bytes(cls, data: bytes, n: int) -> BitVec:
        value = int.from_bytes(data, "little")
        if value >> n:
            raise ValueError(f"{len(data)} bytes carry more than {n} bits")
        return cls(n, value)

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
        packed = np.frombuffer(self.to_bytes(), dtype=np.uint8)
        return np.unpackbits(packed, count=self.n, bitorder="little")

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

    # -- rearrangement -----------------------------------------------------

    def permute(self, perm) -> BitVec:
        """Move component i to position perm[i]."""
        perm = np.asarray(perm)
        if not is_permutation(perm, self.n):
            raise ValueError("not a permutation of the component indices")
        out = np.empty(self.n, dtype=np.uint8)
        out[perm.astype(np.intp)] = self.to_array()
        return BitVec.from_array(out)


def is_permutation(perm: np.ndarray, n: int) -> bool:
    """Whether the integer array perm holds each of 0..n-1 exactly once, in
    time linear in n: once every entry is in range, a count of them is all
    ones only when none repeats."""
    if perm.shape != (n,) or (n and perm.dtype.kind not in "iu"):
        return False
    if n and (perm.min() < 0 or perm.max() >= n):
        return False
    return bool(np.all(np.bincount(perm.astype(np.intp), minlength=n) == 1))


def _row_reduce(rows: list[int], cols: int) -> tuple[list[int], list[int], list[int]]:
    """Row-reduce in place to reduced echelon form.

    Pivots are chosen at the lowest available column, using the lowest
    remaining row.  Returns (reduced rows, pivot column list, pivot row
    origin list) where origin[i] is the index the i-th pivot row had in the
    input ordering.
    """
    rows = list(rows)
    origin = list(range(len(rows)))
    pivots: list[int] = []
    rank = 0
    for col in range(cols):
        mask = 1 << col
        pivot = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        origin[rank], origin[pivot] = origin[pivot], origin[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        pivots.append(col)
        rank += 1
    return rows, pivots, origin[: len(pivots)]


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

    def __matmul__(self, other: GF2Matrix) -> GF2Matrix:
        if self.cols != other.rows:
            raise DimensionError(f"{self.cols} columns against {other.rows} rows")
        ot = other.transpose()
        words = []
        for w in self.row_words:
            row = 0
            for j, c in enumerate(ot.row_words):
                row |= ((w & c).bit_count() & 1) << j
            words.append(row)
        return GF2Matrix(self.rows, other.cols, tuple(words))

    def rank(self) -> int:
        _, pivots, _ = _row_reduce(list(self.row_words), self.cols)
        return len(pivots)

    def kernel_basis(self) -> list[BitVec]:
        """Deterministic basis of {x : M x = 0}.

        One basis vector per free column, in ascending column order: the
        vector for free column f has x[f] = 1 and x[p] = (reduced row of p)[f]
        for each pivot column p.
        """
        reduced, pivots, _ = _row_reduce(list(self.row_words), self.cols)
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

    def independent_rows(self) -> list[int]:
        """Indices of a deterministic maximal linearly independent row set."""
        _, _, origin = _row_reduce(list(self.row_words), self.cols)
        return sorted(origin)

    def inverse(self) -> GF2Matrix:
        """Inverse of a square invertible matrix (Gauss-Jordan)."""
        if self.rows != self.cols:
            raise DimensionError("inverse of a non-square matrix")
        n = self.rows
        # Augment each row with the identity in the high bits.
        aug = [w | (1 << (n + i)) for i, w in enumerate(self.row_words)]
        reduced, pivots, _ = _row_reduce(aug, 2 * n)
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return GF2Matrix(n, n, tuple(r >> n for r in reduced))
