"""Binary linear codes for reconciliation and coset key extraction.

A code C of length n and dimension k is held as an n-by-k generator matrix
over GF(2) whose columns span C, so encoding is the linear map y -> G y from
k-bit messages to n-bit codewords, and the k-bit coset key of an n-bit string
kappa is G^T kappa, constant on cosets of the dual code.

Decoding is the total function "message of a nearest codeword", with ties
broken toward the lexicographically smallest message (component 0 compared
first).  Two interchangeable routes compute it, and syndrome correction
likewise: a coset-leader table when the redundancy is small, and brute force
over all codewords when the dimension is small.  A single LinearCode is desk
scale (n up to ~25).

Protocol-size codes are BlockCodes: direct sums of small inner codes that
are built and checked once per process, plus trivial [n, n] and [n, 0]
codes that act on words directly.  A BlockCode maps each run of equal
short inner codes with one reshape and one mod-2 matmul on numpy bit
arrays, so building and using one costs time linear in n; the global n-by-k
generator is assembled only when a caller reads `gen`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .gf2 import BitVec, DimensionError, GF2Matrix

LEADER_TABLE_LIMIT = 14  # build syndrome tables up to 2^14 cosets
BRUTE_FORCE_LIMIT = 22  # enumerate codewords up to 2^22
INNER_CACHE_LIMIT = 25  # inner codes up to this length: built once, run maps by matmul


class DecodingFailure(RuntimeError):
    """Syndrome had no error pattern within the decoder radius."""


def _lex_key(value: int, k: int) -> int:
    """Order key under which messages sort lexicographically by component."""
    out = 0
    for j in range(k):
        out |= ((value >> j) & 1) << (k - 1 - j)
    return out


@dataclass(frozen=True)
class CorrectableSet:
    """Error patterns a decoder promises to reverse: the n-bit patterns of
    weight at most max_weight, which always include zero."""

    n: int
    max_weight: int

    def __post_init__(self) -> None:
        if not 0 <= self.max_weight <= self.n:
            raise ValueError(f"weight bound {self.max_weight} outside [0, {self.n}]")

    def __contains__(self, x: BitVec) -> bool:
        if x.n != self.n:
            raise DimensionError(f"pattern length {x.n} != {self.n}")
        return x.weight() <= self.max_weight

    def __iter__(self) -> Iterator[BitVec]:
        for w in range(self.max_weight + 1):
            for pos in itertools.combinations(range(self.n), w):
                v = 0
                for p in pos:
                    v |= 1 << p
                yield BitVec(self.n, v)

    def size(self) -> int:
        return sum(math.comb(self.n, w) for w in range(self.max_weight + 1))


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
        self._msg_map: GF2Matrix | None = None

    @functools.cached_property
    def _gen_t(self) -> GF2Matrix:
        return self.gen.transpose()

    def __repr__(self) -> str:
        return f"LinearCode({self.name!r}, n={self.n}, k={self.k}, t={self.decoder_radius})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearCode) and self.gen == other.gen

    @functools.cached_property
    def _gen_bits(self) -> np.ndarray:
        """Generator as an n-by-k uint8 array; BlockCode runs of short codes read it."""
        return _bit_array(self.gen)

    @functools.cached_property
    def _check_bits(self) -> np.ndarray:
        """Parity check as an (n-k)-by-n uint8 array, read like `_gen_bits`."""
        return _bit_array(self.parity_check())

    # -- linear maps ---------------------------------------------------------

    def encode(self, y: BitVec) -> BitVec:
        """Codeword G y for a k-bit message."""
        return self.gen.apply(y)

    def coset_key(self, kappa: BitVec) -> BitVec:
        """k-bit key G^T kappa of an n-bit string; constant on dual cosets."""
        return self._gen_t.apply(kappa)

    def parity_check(self) -> GF2Matrix:
        """(n-k)-by-n matrix whose rows span the dual code."""
        if self._parity is None:
            basis = self._gen_t.kernel_basis()
            self._parity = GF2Matrix.from_row_vecs(basis, self.n)
        return self._parity

    def syndrome(self, v: BitVec) -> BitVec:
        return self.parity_check().apply(v)

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

    def message_of_codeword(self, c: BitVec) -> BitVec:
        """The unique y with G y = c, by inverting k independent rows of G."""
        if self._msg_map is None:
            rows = self.gen.independent_rows()
            sub = GF2Matrix.from_row_vecs([self.gen.row(i) for i in rows], self.k)
            pick = GF2Matrix(self.k, self.n, tuple(1 << i for i in rows))
            self._msg_map = sub.inverse() @ pick
        return self._msg_map.apply(c)

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
                    s = self.syndrome(BitVec(self.n, e)).value
                    got = table.get(s)
                    if got is None:
                        table[s] = (w, [e])
                    elif got[0] == w:
                        got[1].append(e)
            self._leaders = {s: leaders for s, (_, leaders) in table.items()}
        return self._leaders

    def _decode_with_leaders(self, v: BitVec) -> BitVec:
        leaders = self.leader_table()[self.syndrome(v).value]
        best = None
        for e in leaders:
            m = self.message_of_codeword(BitVec(self.n, v.value ^ e))
            key = _lex_key(m.value, self.k) if len(leaders) > 1 else 0
            if best is None or key < best[0]:
                best = (key, m)
        return best[1]  # type: ignore[index]

    def _decode_brute(self, v: BitVec) -> BitVec:
        best = None
        for m, cw in enumerate(self.codewords()):
            d = (cw ^ v.value).bit_count()
            if best is None or d < best[0]:
                best = (d, _lex_key(m, self.k), m)
            elif d == best[0]:
                key = _lex_key(m, self.k)
                if key < best[1]:
                    best = (d, key, m)
        return BitVec(self.k, best[2])  # type: ignore[index]

    def decode(self, v: BitVec) -> BitVec:
        """Message of a nearest codeword; lexicographically smallest on ties."""
        if v.n != self.n:
            raise DimensionError(f"word length {v.n} != {self.n}")
        if self.k == 0:
            return BitVec(0, 0)
        if self.n - self.k == 0:
            return self.message_of_codeword(v)
        if self.n - self.k <= LEADER_TABLE_LIMIT:
            return self._decode_with_leaders(v)
        if self.k <= BRUTE_FORCE_LIMIT:
            return self._decode_brute(v)
        raise ValueError(f"code [{self.n},{self.k}] too large for any decode route")

    def _pattern_with_leaders(self, diff: int) -> int:
        leaders = self.leader_table().get(diff)
        if leaders is None:
            raise DecodingFailure("syndrome outside the leader table")
        return min(leaders, key=lambda p: _lex_key(p, self.n))

    def _pattern_brute(self, diff: int) -> int:
        """The table's pick without the table: every pattern with syndrome
        diff is one preimage shifted by a codeword; keep the lightest, then
        the lexicographically smallest."""
        base = self._syndrome_preimage(diff)
        return min(
            (base ^ cw for cw in self.codewords()),
            key=lambda p: (p.bit_count(), _lex_key(p, self.n)),
        )

    def correct_with_syndrome(self, v: BitVec, target: BitVec) -> BitVec:
        """Nearest word to v whose syndrome equals target.

        Raises DecodingFailure when the implied error pattern falls outside
        the decoder radius, so a caller can abort instead of silently
        miscorrecting.
        """
        if self.k == 0:
            # Parity check is the identity: the target syndrome names the word.
            return BitVec(self.n, target.value)
        diff = (self.syndrome(v) + target).value
        if self.n == self.k:
            return v  # no redundancy, nothing to correct
        if self.n - self.k <= LEADER_TABLE_LIMIT:
            e = self._pattern_with_leaders(diff)
        elif self.k <= BRUTE_FORCE_LIMIT:
            e = self._pattern_brute(diff)
        else:
            raise ValueError(f"code [{self.n},{self.k}] too large for any correction route")
        if e.bit_count() > self.decoder_radius:
            raise DecodingFailure(
                f"nearest pattern weight {e.bit_count()} exceeds radius {self.decoder_radius}"
            )
        return BitVec(self.n, v.value ^ e)

    def correctable_set(self) -> CorrectableSet:
        return CorrectableSet(self.n, max_weight=self.decoder_radius)

    # -- descriptors -----------------------------------------------------------

    def descriptor(self) -> str:
        return self.name


class TrivialCode(LinearCode):
    """[n, n] (every word a codeword) or [n, 0] (only zero).

    Both act on words directly, so they cost time linear in n at any
    length; the n-by-n or n-by-0 generator is built only if `gen` is read.
    """

    def __init__(self, name: str, n: int, full: bool, decoder_radius: int) -> None:
        self._setup(name, n, n if full else 0, decoder_radius)

    @functools.cached_property
    def gen(self) -> GF2Matrix:
        if self.k:
            return GF2Matrix.identity(self.n)
        return GF2Matrix.zeros(self.n, 0)

    def _check(self, v: BitVec, n: int) -> None:
        if v.n != n:
            raise DimensionError(f"word length {v.n} != {n}")

    def encode(self, y: BitVec) -> BitVec:
        self._check(y, self.k)
        return y if self.k else BitVec(self.n, 0)

    def coset_key(self, kappa: BitVec) -> BitVec:
        self._check(kappa, self.n)
        return kappa if self.k else BitVec(0, 0)

    def syndrome(self, v: BitVec) -> BitVec:
        self._check(v, self.n)
        return BitVec(0, 0) if self.k else v

    def decode(self, v: BitVec) -> BitVec:
        self._check(v, self.n)
        return v if self.k else BitVec(0, 0)


class BlockCode(LinearCode):
    """Direct sum of inner codes laid out contiguously, block 0 lowest.

    Consecutive blocks that share one inner code object form a run, and
    every map but `decode` works run by run on a (count, inner width) bit
    array: one mod-2 matmul for a short inner code, the slice itself or
    zeros for a trivial one, and one packed map per block for a long one.
    Nothing is checked or reduced globally: a direct sum of
    full-column-rank blocks has full column rank, and every inner code
    checked its own generator when it was built.  The syndrome of the sum
    is the inner syndromes in block order, which equals applying the
    block-diagonal parity check.
    """

    def __init__(self, name: str, inners: list[LinearCode]) -> None:
        self.inners = list(inners)
        groups = (list(g) for _, g in itertools.groupby(self.inners, key=id))
        self._runs = [(g[0], len(g)) for g in groups]
        radius = min((c.decoder_radius for c in self.inners), default=0)
        self._setup(name, sum(c.n for c in self.inners), sum(c.k for c in self.inners), radius)

    @functools.cached_property
    def gen(self) -> GF2Matrix:
        """Block-diagonal stack of the inner generators."""
        words: list[int] = []
        k_off = 0
        for c in self.inners:
            words.extend(w << k_off for w in c.gen.row_words)
            k_off += c.k
        return GF2Matrix(self.n, self.k, tuple(words))

    def _cut(self, v: BitVec, width: Callable[[LinearCode], int]) -> list[np.ndarray]:
        """v as one (count, width(inner)) bit array per run."""
        total = sum(width(c) * count for c, count in self._runs)
        if v.n != total:
            raise DimensionError(f"word length {v.n} != {total}")
        bits, out, off = v.to_array(), [], 0
        for c, count in self._runs:
            out.append(bits[off : off + count * width(c)].reshape(count, width(c)))
            off += count * width(c)
        return out

    def _map(self, op: str, v: BitVec, width_in, width_out) -> BitVec:
        runs = zip(self._runs, self._cut(v, width_in))
        return _lay_out([_run_map(c, op, blocks, width_out(c)) for (c, _), blocks in runs])

    def encode(self, y: BitVec) -> BitVec:
        return self._map("encode", y, lambda c: c.k, lambda c: c.n)

    def coset_key(self, kappa: BitVec) -> BitVec:
        return self._map("coset_key", kappa, lambda c: c.n, lambda c: c.k)

    def syndrome(self, v: BitVec) -> BitVec:
        return self._map("syndrome", v, lambda c: c.n, lambda c: c.n - c.k)

    def decode(self, v: BitVec) -> BitVec:
        # Block by block through the inner decoders: only the exact audits
        # decode, at n <= 4, where cutting the word by shifts costs nothing.
        if v.n != self.n:
            raise DimensionError(f"word length {v.n} != {self.n}")
        out = off = k_off = 0
        for c in self.inners:
            out |= c.decode(BitVec(c.n, (v.value >> off) & ((1 << c.n) - 1))).value << k_off
            off, k_off = off + c.n, k_off + c.k
        return BitVec(self.k, out)

    def correct_with_syndrome(self, v: BitVec, target: BitVec) -> BitVec:
        """As LinearCode's, with the DecodingFailure naming the first block
        whose implied error pattern falls outside the decoder radius."""
        cuts = zip(self._runs, self._cut(v, lambda c: c.n), self._cut(target, lambda c: c.n - c.k))
        parts, first = [], 0  # first: index of the run's first block
        for (c, count), blocks, targets in cuts:
            parts.append(_correct_run(c, blocks, targets, first))
            first += count
        return _lay_out(parts)


def _bit_array(m: GF2Matrix) -> np.ndarray:
    return np.array([BitVec(m.cols, w).to_array() for w in m.row_words], np.uint8).reshape(m.rows, m.cols)


def _run_map(c: LinearCode, op: str, blocks: np.ndarray, width: int) -> np.ndarray:
    """Code c's map `op` on every row of a (count, width_in) bit array, as a
    (count, width) array."""
    if isinstance(c, TrivialCode):  # each of its maps is the identity or zero
        return blocks if blocks.shape[1] == width else np.zeros((len(blocks), width), np.uint8)
    if c.n > INNER_CACHE_LIMIT:  # block by block on packed words
        rows = [getattr(c, op)(BitVec.from_array(b)).to_array() for b in blocks]
        return np.array(rows, dtype=np.uint8).reshape(len(blocks), width)
    if op == "syndrome":  # one mod-2 matmul with c's cached uint8 matrices
        return (blocks @ c._check_bits.T) & 1
    return (blocks @ (c._gen_bits if op == "coset_key" else c._gen_bits.T)) & 1


def _lay_out(parts: list[np.ndarray]) -> BitVec:
    """Per-run (count, width) bit arrays as one word, block 0 lowest."""
    return BitVec.from_array(np.concatenate([np.zeros(0, np.uint8), *(p.ravel() for p in parts)]))


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
    diffs = _run_map(c, "syndrome", blocks, c.n - c.k) ^ targets
    distinct, first_at, which = np.unique(diffs, axis=0, return_index=True, return_inverse=True)
    patterns = np.zeros((len(distinct), c.n), dtype=np.uint8)
    for j in np.argsort(first_at):
        try:  # the lightest pattern with syndrome diff corrects the zero word to diff
            e = c.correct_with_syndrome(BitVec(c.n, 0), BitVec.from_array(distinct[j]))
        except DecodingFailure as exc:
            raise DecodingFailure(f"block {first + first_at[j]}: {exc}") from exc
        patterns[j] = e.to_array()
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
    check = GF2Matrix(m, n, tuple(rows))
    gen = GF2Matrix.from_col_vecs(check.kernel_basis(), n)
    return LinearCode(f"hamming:n={n}", gen, 1)


def hamming(m: int) -> LinearCode:
    """The [2^m - 1, 2^m - 1 - m] single-error-correcting code."""
    if m < 2:
        raise ValueError("hamming parameter must be at least 2")
    return _inner(_hamming, m, (1 << m) - 1)


def identity_code(n: int) -> LinearCode:
    """[n, n]: every word is a codeword; corrects nothing, costs nothing."""
    return TrivialCode(f"identity:n={n}", n, True, 0)


def zero_code(n: int) -> LinearCode:
    """[n, 0]: the syndrome is the whole word, so correction is verbatim."""
    return TrivialCode(f"zero:n={n}", n, False, n)


def random_code(n: int, k: int, seed: int) -> LinearCode:
    """Seeded random [n, k] code with radius from its true minimum distance."""
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    if k > BRUTE_FORCE_LIMIT:
        raise ValueError("dimension beyond desk-scale enumeration")
    rng = random.Random(seed)
    while True:
        gen = GF2Matrix.random(n, k, rng)
        if gen.rank() == k:
            break
    code = LinearCode(f"random:n={n},k={k},seed={seed}", gen, 0)
    code.decoder_radius = (code.min_distance() - 1) // 2
    return code


def _blocks_with_tail(n: int, inner_n: int, inner, tail, name: str) -> BlockCode:
    """Whole blocks of the inner code of length inner_n, then a tail code on
    the rest.  `inner()` builds the inner code; it is not called when no
    whole block fits, so an oversized inner length costs nothing."""
    if inner_n < 1:
        raise ValueError("inner length must be positive")
    count, rem = divmod(n, inner_n)
    inners = [inner()] * count if count else []
    if rem:
        inners.append(tail(rem))
    return BlockCode(name, inners)


def hamming_blocks(n: int) -> BlockCode:
    """[7,4] blocks with an identity tail; the default key-extraction code."""
    return _blocks_with_tail(n, 7, lambda: hamming(3), identity_code, f"hamming_blocks:n={n}")


def repetition_blocks(n: int, inner: int) -> BlockCode:
    return _blocks_with_tail(
        n,
        inner,
        lambda: repetition(inner),
        identity_code,
        f"repetition_blocks:n={n},inner={inner}",
    )


def rec_hamming(n: int) -> BlockCode:
    """[7,4] blocks with a verbatim tail; for syndrome reconciliation."""
    return _blocks_with_tail(n, 7, lambda: hamming(3), zero_code, f"rec_hamming:n={n}")


def rec_repetition(n: int, inner: int) -> BlockCode:
    return _blocks_with_tail(
        n,
        inner,
        lambda: repetition(inner),
        zero_code,
        f"rec_repetition:n={n},inner={inner}",
    )


def rec_identity(n: int) -> BlockCode:
    """Zero-length syndrome: reconciliation that corrects nothing."""
    return BlockCode(f"rec_identity:n={n}", [identity_code(n)])


def rec_verbatim(n: int) -> BlockCode:
    """The whole word as syndrome: always corrects, at full cost."""
    return BlockCode(f"rec_verbatim:n={n}", [zero_code(n)])


def _parse_descriptor(desc: str) -> tuple[str, dict[str, int]]:
    family, _, rest = desc.partition(":")
    params: dict[str, int] = {}
    if rest:
        for part in rest.split(","):
            key, _, val = part.partition("=")
            params[key] = int(val)
    return family, params


def descriptor_length(desc: str) -> int:
    """Code length n named by a descriptor, read without building the code,
    so a requested length can be checked before any work is done."""
    _, params = _parse_descriptor(desc)
    if "n" not in params:
        raise ValueError(f"descriptor {desc!r} names no length")
    return params["n"]


def code_from_descriptor(desc: str) -> LinearCode:
    """Rebuild a shipped code from its wire descriptor string."""
    family, params = _parse_descriptor(desc)
    try:
        if family == "repetition":
            return repetition(params["n"])
        if family == "hamming":
            n = params["n"]
            m = (n + 1).bit_length() - 1
            if (1 << m) - 1 != n:
                raise ValueError(f"{n} is not a hamming length")
            return hamming(m)
        if family == "identity":
            return identity_code(params["n"])
        if family == "zero":
            return zero_code(params["n"])
        if family == "random":
            return random_code(params["n"], params["k"], params["seed"])
        if family == "hamming_blocks":
            return hamming_blocks(params["n"])
        if family == "repetition_blocks":
            return repetition_blocks(params["n"], params["inner"])
        if family == "rec_hamming":
            return rec_hamming(params["n"])
        if family == "rec_repetition":
            return rec_repetition(params["n"], params["inner"])
        if family == "rec_identity":
            return rec_identity(params["n"])
        if family == "rec_verbatim":
            return rec_verbatim(params["n"])
    except KeyError as exc:
        raise ValueError(f"descriptor {desc!r} missing parameter {exc}") from exc
    raise ValueError(f"unknown code family in descriptor {desc!r}")


# ---------------------------------------------------------------------------
# reversal check


def reversal_holds(code: LinearCode) -> bool:
    """Exhaustively check decode(G y + x) == y over the correctable set."""
    for y_val in range(1 << code.k):
        y = BitVec(code.k, y_val)
        cw = code.encode(y).value
        for x in code.correctable_set():
            if code.decode(BitVec(code.n, cw ^ x.value)) != y:
                return False
    return True
