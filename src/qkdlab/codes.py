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
codes that act on words directly.  Every BlockCode operation works block by
block, so building and using one costs time linear in n; the global n-by-k
generator is assembled only when a caller reads `gen`.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

from .bounds import binary_entropy
from .gf2 import BitVec, DimensionError, GF2Matrix

LEADER_TABLE_LIMIT = 14  # build syndrome tables up to 2^14 cosets
BRUTE_FORCE_LIMIT = 22  # enumerate codewords up to 2^22
INNER_CACHE_LIMIT = 25  # shipped inner codes up to this length are built once


class DecodingFailure(RuntimeError):
    """Syndrome had no error pattern within the decoder radius."""


class InfeasibleParameters(ValueError):
    """No code with the requested rate and correction power at this length."""


def _lex_key(value: int, k: int) -> int:
    """Order key under which messages sort lexicographically by component."""
    out = 0
    for j in range(k):
        out |= ((value >> j) & 1) << (k - 1 - j)
    return out


def _split(value: int, widths: list[int]) -> list[int]:
    """Consecutive fields of a packed word, lowest components first.

    Goes through one bit string, so cutting an n-bit word into many blocks
    costs time linear in n (shifting the whole int per block would not).
    """
    bits = format(value, "b")[::-1]
    out = []
    off = 0
    for w in widths:
        out.append(int(bits[off : off + w][::-1] or "0", 2))
        off += w
    return out


def _join(fields: list[int], widths: list[int]) -> int:
    """Inverse of _split: fields laid out contiguously, the first lowest."""
    bits = "".join(format(f, f"0{w}b")[::-1] for f, w in zip(fields, widths) if w)
    return int(bits[::-1] or "0", 2)


@dataclass(frozen=True)
class CorrectableSet:
    """Error patterns a decoder promises to reverse; always contains zero.

    Either a bounded-weight ball (max_weight set) or an explicit enumeration
    of packed n-bit patterns.
    """

    n: int
    max_weight: int | None = None
    explicit: frozenset[int] | None = None

    def __post_init__(self) -> None:
        if (self.max_weight is None) == (self.explicit is None):
            raise ValueError("exactly one of max_weight/explicit must be set")
        if self.max_weight is not None and not 0 <= self.max_weight <= self.n:
            raise ValueError(f"weight bound {self.max_weight} outside [0, {self.n}]")
        if self.explicit is not None and 0 not in self.explicit:
            raise ValueError("correctable set must contain the zero pattern")

    def __contains__(self, x: BitVec) -> bool:
        if x.n != self.n:
            raise DimensionError(f"pattern length {x.n} != {self.n}")
        if self.max_weight is not None:
            return x.weight() <= self.max_weight
        return x.value in self.explicit  # type: ignore[operator]

    def __iter__(self) -> Iterator[BitVec]:
        if self.max_weight is not None:
            for w in range(self.max_weight + 1):
                for pos in itertools.combinations(range(self.n), w):
                    v = 0
                    for p in pos:
                        v |= 1 << p
                    yield BitVec(self.n, v)
        else:
            for v in sorted(self.explicit):  # type: ignore[arg-type]
                yield BitVec(self.n, v)

    def size(self) -> int:
        if self.max_weight is not None:
            return sum(math.comb(self.n, w) for w in range(self.max_weight + 1))
        return len(self.explicit)  # type: ignore[arg-type]


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
        self._msg_rows: list[int] | None = None
        self._msg_inv: GF2Matrix | None = None

    @functools.cached_property
    def _gen_t(self) -> GF2Matrix:
        return self.gen.transpose()

    def __repr__(self) -> str:
        return f"LinearCode({self.name!r}, n={self.n}, k={self.k}, t={self.decoder_radius})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, LinearCode) and self.gen == other.gen

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

    def dual_basis(self) -> list[BitVec]:
        return [self.parity_check().row(i) for i in range(self.n - self.k)]

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
            cols = [self.gen.col(j).value for j in range(self.k)]
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
        if self._msg_rows is None:
            self._msg_rows = self.gen.independent_rows()
            sub = GF2Matrix.from_row_vecs([self.gen.row(i) for i in self._msg_rows], self.k)
            self._msg_inv = sub.inverse()
        return self._msg_inv.apply(c.select(self._msg_rows))  # type: ignore[union-attr]

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
    """Direct sum of inner codes laid out contiguously.

    Encoding, syndromes, coset keys, decoding and correction all act block
    by block: each block goes through its inner code and the pieces are laid
    side by side, block 0 lowest.  Nothing is checked or reduced globally:
    a direct sum of full-column-rank blocks has full column rank, and every
    inner code checked its own generator when it was built.  The syndrome of
    the sum is the inner syndromes in block order, which equals applying the
    block-diagonal parity check.
    """

    def __init__(self, name: str, inners: list[LinearCode]) -> None:
        self.inners = list(inners)
        self._n_widths = [c.n for c in self.inners]
        self._k_widths = [c.k for c in self.inners]
        self._red_widths = [c.n - c.k for c in self.inners]
        radius = min((c.decoder_radius for c in self.inners), default=0)
        self._setup(name, sum(self._n_widths), sum(self._k_widths), radius)

    @functools.cached_property
    def gen(self) -> GF2Matrix:
        """Block-diagonal stack of the inner generators."""
        words: list[int] = []
        k_off = 0
        for c in self.inners:
            words.extend(w << k_off for w in c.gen.row_words)
            k_off += c.k
        return GF2Matrix(self.n, self.k, tuple(words))

    def _blockwise(self, method: str, v: BitVec, widths_in, widths_out) -> BitVec:
        """Apply an inner-code method to every block and lay the results out."""
        if v.n != sum(widths_in):
            raise DimensionError(f"word length {v.n} != {sum(widths_in)}")
        parts = [
            getattr(c, method)(BitVec(w, b)).value
            for c, w, b in zip(self.inners, widths_in, _split(v.value, widths_in))
        ]
        return BitVec(sum(widths_out), _join(parts, widths_out))

    def encode(self, y: BitVec) -> BitVec:
        return self._blockwise("encode", y, self._k_widths, self._n_widths)

    def coset_key(self, kappa: BitVec) -> BitVec:
        return self._blockwise("coset_key", kappa, self._n_widths, self._k_widths)

    def syndrome(self, v: BitVec) -> BitVec:
        return self._blockwise("syndrome", v, self._n_widths, self._red_widths)

    def decode(self, v: BitVec) -> BitVec:
        return self._blockwise("decode", v, self._n_widths, self._k_widths)

    def correct_with_syndrome(self, v: BitVec, target: BitVec) -> BitVec:
        if v.n != self.n:
            raise DimensionError(f"word length {v.n} != {self.n}")
        if target.n != self.n - self.k:
            raise DimensionError("syndrome length mismatch")
        blocks = _split(v.value, self._n_widths)
        targets = _split(target.value, self._red_widths)
        fixed = []
        for i, (c, b, t) in enumerate(zip(self.inners, blocks, targets)):
            try:
                out = c.correct_with_syndrome(BitVec(c.n, b), BitVec(c.n - c.k, t))
            except DecodingFailure as exc:
                raise DecodingFailure(f"block {i}: {exc}") from exc
            fixed.append(out.value)
        return BitVec(self.n, _join(fixed, self._n_widths))


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
    """Code length n named by a wire descriptor, read without building the
    code, so a peer's descriptor can be checked before any work is done."""
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
# reversal checks and rate-targeted search


def reversal_holds(code: LinearCode) -> bool:
    """Exhaustively check decode(G y + x) == y over the correctable set."""
    for y_val in range(1 << code.k):
        y = BitVec(code.k, y_val)
        cw = code.encode(y).value
        for x in code.correctable_set():
            if code.decode(BitVec(code.n, cw ^ x.value)) != y:
                return False
    return True


def reversal_fraction(code: LinearCode, weight: int, trials: int, rng) -> float:
    """Fraction of random (message, exact-weight pattern) pairs decoded back."""
    if weight > code.n:
        raise ValueError("pattern weight beyond code length")
    good = 0
    for _ in range(trials):
        y = BitVec.random(code.k, rng)
        pos = rng.sample(range(code.n), weight)
        x = 0
        for p in pos:
            x |= 1 << p
        if code.decode(BitVec(code.n, code.encode(y).value ^ x)) == y:
            good += 1
    return good / trials


def random_code_for_rate(
    n: int,
    delta: float,
    epsilon: float,
    seed: int,
    *,
    code_trials: int = 40,
    pattern_trials: int = 60,
    success_fraction: float = 0.9,
) -> LinearCode:
    """A code correcting (nearly all) weight-floor(n*(delta+epsilon)) patterns.

    Targets dimension at least ceil(n*(1 - h(delta+epsilon))) - 1, preferring
    shipped constructions and falling back to a seeded random search that
    screens candidates on random exact-weight patterns.  Raises
    InfeasibleParameters when no dimension in the feasible window survives.
    """
    p = delta + epsilon
    if not 0.0 <= p < 0.5:
        raise ValueError("delta + epsilon must sit in [0, 1/2)")
    t = int(n * p)
    k_min = max(1, math.ceil(n * (1.0 - binary_entropy(p))) - 1)
    if t == 0:
        return identity_code(n)
    ball = sum(math.comb(n, w) for w in range(t + 1))
    k_max = n - math.ceil(math.log2(ball))
    if k_max < k_min:
        raise InfeasibleParameters(
            f"sphere packing caps dimension at {k_max} < required {k_min} "
            f"(n={n}, correction weight {t})"
        )
    m = (n + 1).bit_length() - 1
    if (1 << m) - 1 == n and t == 1 and n - m >= k_min:
        return hamming(m)
    if k_min <= 1 and (n - 1) // 2 >= t:
        return repetition(n)
    rng = random.Random(seed)
    for k in range(k_max, k_min - 1, -1):
        for _ in range(code_trials):
            cand = random_code(n, k, rng.getrandbits(32))
            if cand.decoder_radius >= t:
                return cand
            if reversal_fraction(cand, t, pattern_trials, rng) >= success_fraction:
                return cand
    raise InfeasibleParameters(
        f"search exhausted for n={n}, t={t}, k in [{k_min}, {k_max}]"
    )
