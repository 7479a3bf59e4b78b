"""Binary linear codes for reconciliation and coset key extraction.

A code C of length n and dimension k is held as an n-by-k generator matrix
over GF(2) whose columns span C, so encoding is the linear map y -> G y from
k-bit messages to n-bit codewords, and the k-bit coset key of an n-bit string
kappa is G^T kappa, constant on cosets of the dual code.

Decoding is the total function "message of a nearest codeword", with ties
broken toward the lexicographically smallest message (component 0 compared
first).  Decoding and syndrome correction are one search, for the lightest
patterns in a coset of the code (its leaders).  A coset-leader table answers
it when the redundancy is small, and the coset listed as one preimage shifted
by every codeword when the dimension is small.  A single LinearCode is desk
scale (n up to ~25).

Every map takes and returns 1-D uint8 bit arrays, entry i = component i.
encode, syndrome and coset_key are mod-2 matmuls over the last axis, so a
(count, n) array maps row by row.  Beneath them, the generator and parity
check matrices, the codeword table and the nearest-pattern search work on
packed integers, bit i = component i, and decoding converts at its own edge.

Protocol-size codes are BlockCodes: direct sums of runs of small inner
codes that are built and checked once per process.  The trivial [n, n] and
[n, 0] codes, and the tail of every block family, are runs of n one-bit
codes.  A BlockCode hands each run's inner code the (count, width) reshape
of its slice, so building and using one costs time linear in n; the global
n-by-k generator is assembled only when a caller reads `gen`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .gf2 import DimensionError, GF2Matrix, bits_to_int, int_to_bits

LEADER_TABLE_LIMIT = 14  # build syndrome tables up to 2^14 cosets
BRUTE_FORCE_LIMIT = 22  # enumerate codewords up to 2^22
INNER_CACHE_LIMIT = 25  # shipped inner codes up to this length are built once per process


class DecodingFailure(RuntimeError):
    """Syndrome had no error pattern within the decoder radius."""


def _width(v: np.ndarray, width: int, batch: bool = True) -> np.ndarray:
    """v, checked to be one `width`-bit word, or with batch to end in one."""
    if (v.shape[-1:] if batch else v.shape) != (width,):
        raise DimensionError(f"word shape {v.shape} does not fit width {width}")
    return v


def _lex_key(value: int, k: int) -> int:
    """Order key under which messages sort lexicographically by component."""
    out = 0
    for j in range(k):
        out |= ((value >> j) & 1) << (k - 1 - j)
    return out


@dataclass(frozen=True)
class CorrectableSet:
    """Error patterns a decoder promises to reverse: the n-bit patterns of
    weight at most max_weight, which always include zero, as packed ints."""

    n: int
    max_weight: int

    def __post_init__(self) -> None:
        if not 0 <= self.max_weight <= self.n:
            raise ValueError(f"weight bound {self.max_weight} outside [0, {self.n}]")

    def __iter__(self) -> Iterator[int]:
        for w in range(self.max_weight + 1):
            for pos in itertools.combinations(range(self.n), w):
                yield sum(1 << p for p in pos)


class LinearCode:
    """Length-n, dimension-k binary linear code with a deterministic decoder.

    Attributes:
        name: short family label used in wire descriptors.
        n, k: length and dimension.
        gen: n-by-k generator matrix; columns span the code.
        decoder_radius: largest weight t with every weight-<=t pattern
            guaranteed reversible (bounded-distance promise).
    """

    def __init__(self, name: str, gen: GF2Matrix, decoder_radius: int) -> None:
        if gen.rank() != gen.cols:
            raise ValueError("generator columns must be linearly independent")
        self._setup(name, gen.rows, gen.cols, decoder_radius)
        self.gen = gen

    def _setup(self, name: str, n: int, k: int, decoder_radius: int) -> None:
        self.name = name
        self.n = n
        self.k = k
        self.decoder_radius = decoder_radius
        self._parity: GF2Matrix | None = None
        self._codewords: list[int] | None = None
        self._leaders: dict[int, list[int]] | None = None

    @functools.cached_property
    def _gen_t(self) -> GF2Matrix:
        return self.gen.transpose()

    def __repr__(self) -> str:
        return f"LinearCode({self.name!r}, n={self.n}, k={self.k}, t={self.decoder_radius})"

    @functools.cached_property
    def _gen_bits(self) -> np.ndarray:
        """Generator as an n-by-k uint8 array, read by encode and coset_key."""
        return _bit_array(self.gen)

    @functools.cached_property
    def _check_bits(self) -> np.ndarray:
        """Parity check as an (n-k)-by-n uint8 array, read by syndrome."""
        return _bit_array(self.parity_check())

    # -- linear maps, over the last axis ---------------------------------------

    def encode(self, y: np.ndarray) -> np.ndarray:
        """Codeword G y for a k-bit message."""
        return (_width(y, self.k) @ self._gen_bits.T) & 1

    def coset_key(self, kappa: np.ndarray) -> np.ndarray:
        """k-bit key G^T kappa of an n-bit string; constant on dual cosets."""
        return (_width(kappa, self.n) @ self._gen_bits) & 1

    def parity_check(self) -> GF2Matrix:
        """(n-k)-by-n matrix whose rows span the dual code."""
        if self._parity is None:
            basis = self._gen_t.kernel_basis()
            self._parity = GF2Matrix(len(basis), self.n, tuple(basis))
        return self._parity

    def syndrome(self, v: np.ndarray) -> np.ndarray:
        return (_width(v, self.n) @ self._check_bits.T) & 1

    def _syndrome_preimage(self, s: int) -> int:
        """Some n-bit pattern whose syndrome is s.

        Parity row i is the kernel-basis vector of a free column f_i: its
        highest set bit is f_i (the others sit at pivot columns left of
        it), and no other row touches f_i.  Setting f_i for every row i
        named by s therefore gives exactly syndrome s.
        """
        e = 0
        for i, row in enumerate(self.parity_check().row_words):
            if (s >> i) & 1:
                e |= 1 << (row.bit_length() - 1)
        return e

    # -- codeword bookkeeping -------------------------------------------------

    def codewords(self) -> list[int]:
        """Packed codeword for every message value, indexed by message."""
        if self._codewords is None:
            if self.k > BRUTE_FORCE_LIMIT:
                raise ValueError(f"2^{self.k} codewords is beyond enumeration")
            cols = self._gen_t.row_words
            table = [0] * (1 << self.k)
            for m in range(1, 1 << self.k):
                low = m & -m
                table[m] = table[m ^ low] ^ cols[low.bit_length() - 1]
            self._codewords = table
        return self._codewords

    def min_distance(self) -> int:
        if self.k == 0:
            return self.n + 1  # no nonzero codeword; conventionally beyond n
        return min(c.bit_count() for c in self.codewords()[1:])

    @functools.cached_property
    def _messages(self) -> dict[int, int]:
        """Message of every codeword, read off the codeword table."""
        return {cw: m for m, cw in enumerate(self.codewords())}

    # -- decoding --------------------------------------------------------------

    def leader_table(self) -> dict[int, list[int]]:
        """Minimum-weight error patterns of every syndrome, by weight search."""
        if self._leaders is None:
            red = self.n - self.k
            if red > LEADER_TABLE_LIMIT:
                raise ValueError(f"2^{red} cosets is beyond table construction")
            want = 1 << red
            table: dict[int, tuple[int, list[int]]] = {}
            for w in range(self.n + 1):
                if len(table) == want:
                    break
                for pos in itertools.combinations(range(self.n), w):
                    e = 0
                    for p in pos:
                        e |= 1 << p
                    s = self.parity_check().apply(e)
                    got = table.get(s)
                    if got is None:
                        table[s] = (w, [e])
                    elif got[0] == w:
                        got[1].append(e)
            self._leaders = {s: leaders for s, (_, leaders) in table.items()}
        return self._leaders

    def _lightest(self, s: int) -> list[int]:
        """Every minimum-weight n-bit pattern with syndrome s.

        The leader table holds them when the redundancy is small.  Otherwise
        the coset of s is one preimage shifted by every codeword, and the
        lightest of those are kept.
        """
        if self.n - self.k <= LEADER_TABLE_LIMIT:
            return self.leader_table()[s]
        coset = [self._syndrome_preimage(s) ^ cw for cw in self.codewords()]
        w = min(p.bit_count() for p in coset)
        return [p for p in coset if p.bit_count() == w]

    def decode(self, v: np.ndarray) -> np.ndarray:
        """Message of a nearest codeword; lexicographically smallest on ties."""
        return int_to_bits(self._message(bits_to_int(_width(v, self.n, batch=False))), self.k)

    def _message(self, word: int) -> int:
        """decode on packed ints: the nearest codewords are the word shifted
        by the lightest patterns of its syndrome."""
        if self.k == self.n:  # every word is a codeword
            return self._messages[word]
        s = self.parity_check().apply(word)
        found = (self._messages[word ^ e] for e in self._lightest(s))
        return min(found, key=lambda m: _lex_key(m, self.k))

    def correct_with_syndrome(self, v: np.ndarray, target: np.ndarray) -> np.ndarray:
        """Nearest word to v whose syndrome equals target: v shifted by the
        lexicographically smallest lightest pattern of the syndrome
        difference.

        Raises DecodingFailure when that pattern falls outside the decoder
        radius, so a caller can abort instead of silently miscorrecting.
        """
        _width(v, self.n, batch=False)
        diff = bits_to_int(self.syndrome(v) ^ _width(target, self.n - self.k, batch=False))
        e = min(self._lightest(diff), key=lambda p: _lex_key(p, self.n))
        if e.bit_count() > self.decoder_radius:
            raise DecodingFailure(
                f"nearest pattern weight {e.bit_count()} exceeds radius {self.decoder_radius}"
            )
        return v ^ int_to_bits(e, self.n)

    def correctable_set(self) -> CorrectableSet:
        return CorrectableSet(self.n, max_weight=self.decoder_radius)

    # -- descriptors -----------------------------------------------------------

    def descriptor(self) -> str:
        return self.name


class BlockCode(LinearCode):
    """Direct sum of runs of inner codes laid out contiguously, block 0
    lowest; a run (code, count) is count consecutive blocks of one code.

    Every map hands each run's inner code the (count, inner width) reshape
    of the run's slice and concatenates what comes back.  Nothing is checked
    or reduced globally: a direct sum of full-column-rank blocks has full
    column rank, and every inner code checked its own generator when it was
    built.  The syndrome of the sum is the inner syndromes in block order,
    which equals applying the block-diagonal parity check.  A block with no
    message bits reverses any pattern, so the decoder radius is the least
    radius of the other blocks.
    """

    def __init__(self, name: str, runs: list[tuple[LinearCode, int]]) -> None:
        self.runs = list(runs)
        n = sum(c.n * count for c, count in self.runs)
        k = sum(c.k * count for c, count in self.runs)
        self._setup(name, n, k, min((c.decoder_radius for c, _ in self.runs if c.k), default=n))

    @functools.cached_property
    def gen(self) -> GF2Matrix:
        """Block-diagonal stack of the inner generators."""
        words: list[int] = []
        k_off = 0
        for c, count in self.runs:
            for _ in range(count):
                words.extend(w << k_off for w in c.gen.row_words)
                k_off += c.k
        return GF2Matrix(self.n, self.k, tuple(words))

    def _cut(self, v: np.ndarray, width: Callable[[LinearCode], int]) -> list[np.ndarray]:
        """v as one (..., count, width(inner)) bit array per run."""
        _width(v, sum(width(c) * count for c, count in self.runs))
        out, off = [], 0
        for c, count in self.runs:
            out.append(v[..., off : off + count * width(c)].reshape(*v.shape[:-1], count, width(c)))
            off += count * width(c)
        return out

    def _map(self, op: str, v: np.ndarray, width: Callable[[LinearCode], int]) -> np.ndarray:
        runs = zip(self.runs, self._cut(v, width))
        return _lay_out([getattr(c, op)(blocks) for (c, _), blocks in runs], v.shape[:-1])

    def encode(self, y: np.ndarray) -> np.ndarray:
        return self._map("encode", y, lambda c: c.k)

    def coset_key(self, kappa: np.ndarray) -> np.ndarray:
        return self._map("coset_key", kappa, lambda c: c.n)

    def syndrome(self, v: np.ndarray) -> np.ndarray:
        return self._map("syndrome", v, lambda c: c.n)

    def _message(self, word: int) -> int:
        # Block by block through the inner decoders: only the exact audits
        # decode, at n <= 4, where cutting the word by shifts costs nothing.
        out = off = k_off = 0
        for c, count in self.runs:
            for _ in range(count):
                out |= c._message((word >> off) & ((1 << c.n) - 1)) << k_off
                off, k_off = off + c.n, k_off + c.k
        return out

    def correct_with_syndrome(self, v: np.ndarray, target: np.ndarray) -> np.ndarray:
        """As LinearCode's, with the DecodingFailure naming the first block
        whose implied error pattern falls outside the decoder radius."""
        _width(v, self.n, batch=False)
        _width(target, self.n - self.k, batch=False)
        cuts = zip(self.runs, self._cut(v, lambda c: c.n), self._cut(target, lambda c: c.n - c.k))
        parts, first = [], 0  # first: index of the run's first block
        for (c, count), blocks, targets in cuts:
            parts.append(_correct_run(c, blocks, targets, first))
            first += count
        return _lay_out(parts)


def _bit_array(m: GF2Matrix) -> np.ndarray:
    """m as a rows-by-cols uint8 array."""
    span = (m.cols + 7) // 8
    packed = np.frombuffer(b"".join(w.to_bytes(span, "little") for w in m.row_words), np.uint8)
    return np.unpackbits(packed.reshape(m.rows, span), axis=1, count=m.cols, bitorder="little")


def _lay_out(parts: list[np.ndarray], lead: tuple[int, ...] = ()) -> np.ndarray:
    """Per-run (..., count, width) bit arrays as words, block 0 lowest."""
    words = (p.reshape(*lead, p.shape[-2] * p.shape[-1]) for p in parts)
    return np.concatenate([np.zeros((*lead, 0), np.uint8), *words], axis=-1)


def _correct_run(c: LinearCode, blocks: np.ndarray, targets: np.ndarray, first: int) -> np.ndarray:
    """Correction of every (block, target) row pair of a run of code c.

    Each distinct syndrome difference is resolved once, in the order of the
    block it first appears in, so a failure names the run's first failing
    block, by its index `first + i` in the whole code.
    """
    if c.k == 0:  # the target names the word
        return targets
    if c.n == c.k:  # no redundancy, nothing to correct
        return blocks
    diffs = c.syndrome(blocks) ^ targets
    distinct, first_at, which = np.unique(diffs, axis=0, return_index=True, return_inverse=True)
    patterns = np.zeros((len(distinct), c.n), dtype=np.uint8)
    zero = np.zeros(c.n, dtype=np.uint8)
    for j in np.argsort(first_at):
        try:  # the lightest pattern with syndrome diff corrects the zero word to diff
            patterns[j] = c.correct_with_syndrome(zero, distinct[j])
        except DecodingFailure as exc:
            raise DecodingFailure(f"block {first + first_at[j]}: {exc}") from exc
    return blocks ^ patterns[which.reshape(-1)]


# ---------------------------------------------------------------------------
# shipped constructions


def _inner(build, param: int, n: int) -> LinearCode:
    """A shipped inner code, built and checked once per process when short."""
    if n <= INNER_CACHE_LIMIT:
        return _cached_inner(build, param)
    return build(param)


@functools.cache
def _cached_inner(build, param: int) -> LinearCode:
    return build(param)


def _repetition(n: int) -> LinearCode:
    gen = GF2Matrix(n, 1, ((1,) * n))
    return LinearCode(f"repetition:n={n}", gen, (n - 1) // 2)


def repetition(n: int) -> LinearCode:
    if n < 1:
        raise ValueError("repetition length must be positive")
    return _inner(_repetition, n, n)


def _hamming(m: int) -> LinearCode:
    n = (1 << m) - 1
    rows = []
    for i in range(m):
        word = 0
        for j in range(n):
            word |= (((j + 1) >> i) & 1) << j
        rows.append(word)
    basis = GF2Matrix(m, n, tuple(rows)).kernel_basis()
    gen = GF2Matrix(len(basis), n, tuple(basis)).transpose()
    return LinearCode(f"hamming:n={n}", gen, 1)


def hamming(m: int) -> LinearCode:
    """The [2^m - 1, 2^m - 1 - m] single-error-correcting code."""
    if m < 2:
        raise ValueError("hamming parameter must be at least 2")
    return _inner(_hamming, m, (1 << m) - 1)


# The one-bit codes every trivial code and block-family tail is a run of.
_IDENTITY_BIT = LinearCode("identity:n=1", GF2Matrix(1, 1, (1,)), 0)
_ZERO_BIT = LinearCode("zero:n=1", GF2Matrix(1, 0, (0,)), 1)


def identity_code(n: int) -> BlockCode:
    """[n, n]: every word is a codeword; corrects nothing, costs nothing."""
    return BlockCode(f"identity:n={n}", [(_IDENTITY_BIT, n)])


def zero_code(n: int) -> BlockCode:
    """[n, 0]: the syndrome is the whole word, so correction is verbatim."""
    return BlockCode(f"zero:n={n}", [(_ZERO_BIT, n)])


def random_code(n: int, k: int, seed: int) -> LinearCode:
    """Seeded random [n, k] code with radius from its true minimum distance."""
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    if k > BRUTE_FORCE_LIMIT:
        raise ValueError("dimension beyond desk-scale enumeration")
    rng = random.Random(seed)
    while True:
        gen = GF2Matrix(n, k, tuple(rng.getrandbits(k) for _ in range(n)))
        if gen.rank() == k:
            break
    code = LinearCode(f"random:n={n},k={k},seed={seed}", gen, 0)
    code.decoder_radius = (code.min_distance() - 1) // 2
    return code


def _blocks_with_tail(n: int, inner_n: int, inner, tail: LinearCode, name: str) -> BlockCode:
    """Whole blocks of the inner code of length inner_n, then the rest as a
    run of the one-bit code `tail`.  `inner()` builds the inner code; it is
    not called when no whole block fits, so an oversized inner length costs
    nothing."""
    if inner_n < 1:
        raise ValueError("inner length must be positive")
    count, rem = divmod(n, inner_n)
    runs = [(inner(), count)] if count else []
    if rem:
        runs.append((tail, rem))
    return BlockCode(name, runs)


def hamming_blocks(n: int) -> BlockCode:
    """[7,4] blocks with an identity tail; the default key-extraction code."""
    return _blocks_with_tail(n, 7, lambda: hamming(3), _IDENTITY_BIT, f"hamming_blocks:n={n}")


def repetition_blocks(n: int, inner: int) -> BlockCode:
    return _blocks_with_tail(
        n,
        inner,
        lambda: repetition(inner),
        _IDENTITY_BIT,
        f"repetition_blocks:n={n},inner={inner}",
    )


def rec_hamming(n: int) -> BlockCode:
    """[7,4] blocks with a verbatim tail; for syndrome reconciliation."""
    return _blocks_with_tail(n, 7, lambda: hamming(3), _ZERO_BIT, f"rec_hamming:n={n}")


def rec_repetition(n: int, inner: int) -> BlockCode:
    return _blocks_with_tail(
        n,
        inner,
        lambda: repetition(inner),
        _ZERO_BIT,
        f"rec_repetition:n={n},inner={inner}",
    )


def rec_identity(n: int) -> BlockCode:
    """Zero-length syndrome: reconciliation that corrects nothing."""
    return BlockCode(f"rec_identity:n={n}", [(_IDENTITY_BIT, n)])


def rec_verbatim(n: int) -> BlockCode:
    """The whole word as syndrome: always corrects, at full cost."""
    return BlockCode(f"rec_verbatim:n={n}", [(_ZERO_BIT, n)])


def _parse_descriptor(desc: str) -> tuple[str, dict[str, int]]:
    family, _, rest = desc.partition(":")
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            if key in params:
                raise ValueError(f"descriptor {desc!r} repeats parameter {key!r}")
            params[key] = int(val)
    return family, params


def descriptor_length(desc: str) -> int:
    """Code length n named by a descriptor, read without building the code,
    so a requested length can be checked before any work is done."""
    _, params = _parse_descriptor(desc)
    if "n" not in params:
        raise ValueError(f"descriptor {desc!r} names no length")
    return params["n"]


def _hamming_of_length(n: int) -> LinearCode:
    m = (n + 1).bit_length() - 1
    if (1 << m) - 1 != n:
        raise ValueError(f"{n} is not a hamming length")
    return hamming(m)


# descriptor family -> builder; a descriptor's parameters are its keywords
CODE_FAMILIES: dict[str, Callable[..., LinearCode]] = {
    "repetition": repetition,
    "hamming": _hamming_of_length,
    "identity": identity_code,
    "zero": zero_code,
    "random": random_code,
    "hamming_blocks": hamming_blocks,
    "repetition_blocks": repetition_blocks,
    "rec_hamming": rec_hamming,
    "rec_repetition": rec_repetition,
    "rec_identity": rec_identity,
    "rec_verbatim": rec_verbatim,
}


def code_from_descriptor(desc: str) -> LinearCode:
    """Rebuild a shipped code from its wire descriptor string; a parameter
    its family's builder does not take, or a missing one, is a ValueError."""
    family, params = _parse_descriptor(desc)
    build = CODE_FAMILIES.get(family)
    if build is None:
        raise ValueError(f"unknown code family in descriptor {desc!r}")
    try:
        inspect.signature(build).bind(**params)
    except TypeError as exc:
        raise ValueError(f"descriptor {desc!r} does not fit {family}: {exc}") from exc
    return build(**params)


# ---------------------------------------------------------------------------
# reversal check


def reversal_holds(code: LinearCode) -> bool:
    """Exhaustively check decode(G y + x) == y over the correctable set."""
    patterns = list(code.correctable_set())
    codewords = enumerate(code.codewords())
    return all(code._message(cw ^ x) == y for y, cw in codewords for x in patterns)
