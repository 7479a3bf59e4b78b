"""Two-party BB84 session engine with pluggable source, channel, detector.

The protocol runs as two message-driven state machines exchanging tagged
wire messages; the transport (in-process pump here, framed sockets in
netchan) only moves bytes.  One session: hello exchange, the burst of
|Omega| signals as one QBURST message (the source's four states as a
palette, then one palette index byte per signal), which the receiver
passes through the configured channel in one batch, then the classical
announcements in fixed order: Bob's bases; Alice's bases and test-half
choice R; Bob's key subset S; Alice's test bits; Bob's error rate and
verdict; Bob's permutation, code choice, and encrypted syndrome; a keyed
confirmation hash; done or abort.  Each side checks the peer's HELLO as an
echo: it must equal, byte for byte, the HELLO this side would send in the
peer's role.  Alice derives both codes herself, from the shared config and
Bob's announced error rate; his CODE and SYNDROME_ENC descriptors are
echoes she checks byte for byte.  In every waiting phase a party accepts
one tag; any other message ends the session in phase_order.  Session bits
stay uint8 arrays from sifting to the final key: they are packed only by
the wire's one bit-field codec, which rejects set padding bits, and once
into the final key's BitVec.

Randomness is split into named streams derived from one master seed
(emission coins, subset choices, channel noise, detector outcomes, and the
pre-shared secret pool), so a run is reproducible bit-for-bit and two
processes given the same seed produce identical transcripts.

Error rates and sizes follow the 4N(1+epsilon) layout: Alice's test half R
has size |Omega|/2, the test set T needs at least N matched bases, the key
set S is exactly N positions sampled from the complement.  With detector
efficiency below one, |Omega| is scaled by 1/efficiency^2 so both T and S
stay feasible.
"""

from __future__ import annotations

import collections
import functools
import hashlib
import math
import numbers
import random
import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .codes import (
    DecodingFailure,
    LinearCode,
    code_from_descriptor,
    rec_hamming,
    rec_identity,
    rec_repetition,
    rec_verbatim,
)
from .gf2 import BitVec, is_permutation

WIRE_VERSION = 3

TAG_HELLO = 0x01
TAG_QBURST = 0x02
TAG_BASES_B = 0x03
TAG_BASES_A_AND_R = 0x04
TAG_SUBSET_S = 0x05
TAG_TEST_BITS = 0x06
TAG_DELTA_DECISION = 0x07
TAG_PERM = 0x08
TAG_CODE = 0x09
TAG_SYNDROME_ENC = 0x0A
TAG_KEY_CONFIRM = 0x0B
TAG_ABORT = 0x0C
TAG_DONE = 0x0D

TAG_NAMES = {
    TAG_HELLO: "HELLO",
    TAG_QBURST: "QBURST",
    TAG_BASES_B: "BASES_B",
    TAG_BASES_A_AND_R: "BASES_A_AND_R",
    TAG_SUBSET_S: "SUBSET_S",
    TAG_TEST_BITS: "TEST_BITS",
    TAG_DELTA_DECISION: "DELTA_DECISION",
    TAG_PERM: "PERM",
    TAG_CODE: "CODE",
    TAG_SYNDROME_ENC: "SYNDROME_ENC",
    TAG_KEY_CONFIRM: "KEY_CONFIRM",
    TAG_ABORT: "ABORT",
    TAG_DONE: "DONE",
}
_NAME_TAGS = {v: k for k, v in TAG_NAMES.items()}

# announcements that belong to the replayable transcript, in protocol order
TRANSCRIPT_TAGS = (
    TAG_BASES_B,
    TAG_BASES_A_AND_R,
    TAG_SUBSET_S,
    TAG_TEST_BITS,
    TAG_DELTA_DECISION,
    TAG_PERM,
    TAG_CODE,
    TAG_SYNDROME_ENC,
    TAG_KEY_CONFIRM,
    TAG_ABORT,
)

ROLE_ALICE = 0
ROLE_BOB = 1

CONFIRM_KEY_BITS = 128
CONFIRM_MAC_BYTES = 8

ABORT_SOURCE = "source_noncompliant"
ABORT_SIFT = "sift_failed"
ABORT_DELTA = "delta_exceeded"
ABORT_RECONCILE = "reconcile_failed"
ABORT_CONFIRM = "key_confirm_failed"
ABORT_POOL = "pool_exhausted"
ABORT_VERSION = "version_mismatch"
ABORT_PHASE = "phase_order"
ABORT_TRANSPORT = "transport_failure"
ABORT_MALFORMED = "malformed_message"
# the reasons an ABORT payload may name, by their wire bytes
_ABORT_NAMES = {
    r.encode(): r
    for r in (
        ABORT_SOURCE, ABORT_SIFT, ABORT_DELTA, ABORT_RECONCILE, ABORT_CONFIRM,
        ABORT_POOL, ABORT_VERSION, ABORT_PHASE, ABORT_TRANSPORT, ABORT_MALFORMED,
    )
}
# one byte past the longest name: an ABORT payload cut there still equals a
# name only if it is one, and a long payload is never hashed whole
_ABORT_NAME_CUT = max(map(len, _ABORT_NAMES)) + 1
ABORT_DETAIL_BYTES = 32  # kept of an ABORT payload that names no reason

SOURCE_TOLERANCE = 1e-10


class ProtocolError(RuntimeError):
    pass


class ReplayMismatch(ProtocolError):
    """A re-run diverged from the recorded transcript."""


class PoolExhausted(RuntimeError):
    pass


@dataclass(frozen=True)
class WireMessage:
    tag: int
    payload: bytes

    def name(self) -> str:
        return TAG_NAMES.get(self.tag, f"TAG_{self.tag:02X}")


BURST_HEAD = struct.Struct(">IH")  # burst length |Omega|, palette size k
STATE_BYTES = 64  # one 2x2 complex128 density matrix, big-endian
MAX_PALETTE = 256  # states one index byte can name


def encode_qburst(palette: np.ndarray, index: np.ndarray) -> WireMessage:
    """The signal burst as one QBURST message: the head, the k palette
    states, then one byte per signal naming its state in the palette."""
    wire = palette.reshape(len(palette), 4).view(np.float64).astype(">f8")
    head = BURST_HEAD.pack(len(index), len(palette))
    return WireMessage(TAG_QBURST, b"".join((head, wire, index.astype(np.uint8, copy=False))))


def decode_qburst(payload: bytes, expected: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(palette, index) of a QBURST payload: the palette as a native (k, 2, 2)
    array and the index as uint8 read in place.  A payload whose count is
    not `expected` (when given), whose length is not the one its head
    implies, or that names a state outside its palette, is a ProtocolError;
    the head is checked before any pass over the index."""
    if len(payload) < BURST_HEAD.size:
        raise ProtocolError("burst head cut short")
    total, k = BURST_HEAD.unpack_from(payload)
    if expected is not None and total != expected:
        raise ProtocolError(f"burst of {total} signals, expected {expected}")
    if not 1 <= k <= MAX_PALETTE or len(payload) != BURST_HEAD.size + k * STATE_BYTES + total:
        raise ProtocolError(f"burst of {len(payload)} bytes for {total} signals and {k} states")
    index = np.frombuffer(payload, np.uint8, offset=BURST_HEAD.size + k * STATE_BYTES)
    if total and index.max() >= k:
        raise ProtocolError("burst names a state outside its palette")
    flat = np.frombuffer(payload, ">f8", count=8 * k, offset=BURST_HEAD.size)
    return flat.astype(np.float64).view(np.complex128).reshape(k, 2, 2), index


# ---------------------------------------------------------------------------
# randomness plumbing


def stream_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def channel_rng(master: int) -> np.random.Generator:
    """The channel's random stream.  Bob's collect and `eve_proxy` both draw
    from it, so a proxied run and an in-process run of one seed agree."""
    return np.random.default_rng(stream_seed(master, "eve|channel"))


def _shuffle(rng: random.Random, x: list, stop: int = 1) -> None:
    """`rng.shuffle(x)` with the same `rng.getrandbits` calls, and so the
    same result; with another `stop` the walk ends at position `stop`, as
    `random.sample`'s pool walk does.

    CPython draws `randbelow(i + 1)` for i from len(x) - 1 down: words of
    `(i + 1).bit_length()` bits, drawn again while above i.  That width is
    constant over each power-of-two run of bounds, so it is taken once a run.
    """
    getrandbits = rng.getrandbits
    top = len(x)  # the next bound
    while top > stop:
        width = top.bit_length()
        low = max(stop, (1 << (width - 1)) - 1)
        for i in range(top - 1, low - 1, -1):
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            x[i], x[j] = x[j], x[i]
        top = low


def _sample(rng: random.Random, population: Sequence, k: int) -> list:
    """`rng.sample(population, k)` with the same `rng.getrandbits` calls.

    CPython's pool walk is `_shuffle`'s walk stopped after k draws: it
    moves the last free entry into each vacancy instead of swapping, which
    picks the same entries.  The pick made at bound b ends at position
    b - 1, so the picks in order are the pool's tail reversed.  When the
    population is larger than a k-element set would be, CPython samples
    into a set instead; that branch, and a k out of range, go to
    `rng.sample` itself.
    """
    n = len(population)
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if n > setsize or not 0 <= k <= n:
        return rng.sample(population, k)
    pool = list(population)
    _shuffle(rng, pool, n - k)
    return pool[n - k :][::-1]


class SecretPool:
    """Deterministic pre-shared secret bits, consumed strictly in order.

    Both parties build the pool from the same seed and must take bits in
    the same sequence; running out is a protocol abort, not an exception
    escaping to the caller.

    Pool bit i is bit i % 256, low bit of each byte first, of block i // 256,
    the sha256 digest of f"{seed}|pool|{i // 256}".  A take hashes only the
    blocks its range covers: a session takes tau + 128 bits of a capacity of
    4n + 512.
    """

    def __init__(self, seed: int, nbits: int) -> None:
        if nbits < 0:
            raise ValueError("pool size cannot be negative")
        self._seed = seed
        self.capacity = nbits
        self.offset = 0

    def remaining(self) -> int:
        return self.capacity - self.offset

    def take(self, nbits: int) -> np.ndarray:
        """The next nbits pool bits, as a read-only bit array."""
        if nbits < 0:  # a negative take would hand out spent bits again
            raise ValueError(f"cannot take {nbits} bits")
        if nbits > self.remaining():
            raise PoolExhausted(f"need {nbits} bits, {self.remaining()} left")
        start, stop = self.offset, self.offset + nbits
        self.offset = stop
        first = start // 256
        blocks = (
            hashlib.sha256(f"{self._seed}|pool|{counter}".encode()).digest()
            for counter in range(first, (stop + 255) // 256)
        )
        raw = np.frombuffer(b"".join(blocks), dtype=np.uint8)
        bits = np.unpackbits(raw, count=stop - 256 * first, bitorder="little")
        bits.flags.writeable = False
        return bits[start - 256 * first :]


# ---------------------------------------------------------------------------
# source models

# |0>, |1>, |+>, |->: the four BB84 states, row 2a + g
_BB84_PALETTE = np.array(
    [
        np.outer(k, k.conj())
        for k in (
            np.array([1.0, 0.0], dtype=np.complex128),
            np.array([0.0, 1.0], dtype=np.complex128),
            np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2),
            np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2),
        )
    ]
)


class SourceModel:
    """The paper's source: four emitted states rho(a, g) with joint weights
    p(a, g), for basis a and key bit g.

    `probs` is a read-only 2x2 array, rows indexed by basis, with
    p[a,0] + p[a,1] = 1/2.  `palette` is one read-only (4, d, d) complex
    array of density matrices over the emitted space, row 2a + g: the
    palette a QBURST sends as it is.  The signal the receiver measures is
    always the first qubit of the emitted space; compliant models emit
    exactly one qubit (d = 2).  Both are copies, so a source cannot change
    once built, and `basis_distance`, the `check_basis_independence`
    distance the compliance gate reads, is measured once, here.
    """

    kind = "abstract"

    def __init__(self, probs: np.ndarray, palette: np.ndarray) -> None:
        self.probs = np.array(probs, dtype=float)
        if self.probs.shape != (2, 2) or np.any(self.probs < 0):
            raise ValueError("need nonnegative joint weights p[a][g]")
        for a in range(2):
            if abs(self.probs[a].sum() - 0.5) > 1e-12:
                raise ValueError("basis choice must be an unbiased coin")
        self.palette = np.array(palette, dtype=np.complex128)
        shape = self.palette.shape
        if len(shape) != 3 or shape[0] != 4 or shape[1] != shape[2]:
            raise ValueError("need four emitted states, each a d x d density matrix")
        self.probs.flags.writeable = False
        self.palette.flags.writeable = False
        self.basis_distance = check_basis_independence(self)

    def averaged_state(self, a: int) -> np.ndarray:
        acc = np.zeros_like(self.palette[2 * a])
        for g in range(2):
            acc = acc + 2.0 * self.probs[a][g] * self.palette[2 * a + g]
        return acc


class PerfectSource(SourceModel):
    """Textbook BB84 states; `bias` skews the key bit, not the basis."""

    kind = "perfect"

    def __init__(self, bias: float = 0.5) -> None:
        if not 0.0 < bias < 1.0:
            raise ValueError("bias must sit strictly inside (0, 1)")
        probs = np.array([[1 - bias, bias], [1 - bias, bias]]) / 2.0
        super().__init__(probs, _BB84_PALETTE)
        self.bias = bias


class RotatedZSource(SourceModel):
    """BB84 states sent through a fixed rotation about the z axis.

    The per-state tilt is visible to the receiver, but the key-averaged
    emission is still the maximally mixed state for either basis, so the
    source stays admissible.
    """

    kind = "rotated_z"

    def __init__(self, theta: float, bias: float = 0.5) -> None:
        if not 0.0 < bias < 1.0:
            raise ValueError("bias must sit strictly inside (0, 1)")
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
        probs = np.array([[1 - bias, bias], [1 - bias, bias]]) / 2.0
        super().__init__(probs, [rz @ rho @ rz.conj().T for rho in _BB84_PALETTE])
        self.theta = theta
        self.bias = bias


class EntangledSource(SourceModel):
    """Signal qubit born from measuring half of a fixed entangled pair.

    The helper qubit is measured in the Z basis for a=0 and in a basis
    tilted by phi off X for a=1; the outcome is the key bit.  Whatever phi
    is, the unmeasured half averages to the same marginal, which is the
    whole point of realizing the source this way.
    """

    kind = "entangled"

    def __init__(self, phi: float = 0.0) -> None:
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        pair = np.zeros(4, dtype=np.complex128)
        pair[0b00] = 1 / math.sqrt(2)
        pair[0b11] = 1 / math.sqrt(2)
        rho_pair = np.outer(pair, pair.conj())
        probs = np.zeros((2, 2))
        palette = []
        # the helper's measurement axis lies in the x-z plane, tilted off +z
        for a, angle in enumerate((0.0, math.pi / 2.0 + phi)):
            c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
            for g, axis in enumerate(([c, s], [-s, c])):
                v = np.array(axis, dtype=np.complex128)
                proj = np.kron(np.outer(v, v.conj()), np.eye(2))
                sub = proj @ rho_pair @ proj
                weight = float(np.trace(sub).real)
                probs[a][g] = 0.5 * weight
                palette.append(np.einsum("asat->st", sub.reshape(2, 2, 2, 2)) / weight)
        super().__init__(probs, palette)
        self.phi = phi


class LeakyTwoCopySource(SourceModel):
    """Non-compliant: sometimes emits an identical second copy to the side.

    The emitted space is two qubits (signal plus leak); the basis-averaged
    emissions differ between the two bases, so the compliance gate must
    reject this model before any signal leaves.
    """

    kind = "leaky_two_copy"

    def __init__(self, leak_prob: float = 0.5) -> None:
        if not 0.0 <= leak_prob <= 1.0:
            raise ValueError("leak probability must sit in [0, 1]")
        vacuum = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
        palette = [
            (1.0 - leak_prob) * np.kron(vacuum, sig) + leak_prob * np.kron(sig, sig)
            for sig in _BB84_PALETTE
        ]
        super().__init__(np.full((2, 2), 0.25), palette)
        self.leak_prob = leak_prob


def check_basis_independence(source: SourceModel) -> float:
    """Trace distance between the two basis-averaged emitted states."""
    diff = source.averaged_state(0) - source.averaged_state(1)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def _model_from_config(base: type, what: str, cfg: dict, default: str):
    """The `base` subclass whose `kind` the config names, built with the
    config's other keys as its constructor's keyword arguments: a key the
    constructor does not take, or a missing required one, is a TypeError."""
    if not isinstance(cfg, dict):
        raise TypeError(f"a {what} is configured by an object, not {cfg!r}")
    params = dict(cfg)
    kind = params.pop("kind", default)
    kinds = {cls.kind: cls for cls in base.__subclasses__()}
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"unknown {what} kind {kind!r}")
    return kinds[kind](**params)


def source_from_config(cfg: dict) -> SourceModel:
    return _model_from_config(SourceModel, "source", cfg, "perfect")


# ---------------------------------------------------------------------------
# channel and detector models


def _p_one(palette: np.ndarray, index: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Probability of outcome 1 when each signal, the palette state its index
    names, is measured in sigma_z (basis 0) or sigma_x (basis 1)."""
    table = np.concatenate([palette[:, 1, 1].real, 0.5 * (1.0 - 2.0 * palette[:, 0, 1].real)])
    # entry bases * k + index of the flat table, built in place in uint16;
    # indexing with it casts in buffers, where `take` would copy it to intp
    flat = bases.astype(np.uint16)
    flat *= len(palette)
    flat += index
    return table[flat]


class ChannelModel:
    """Stateless transform of a burst of single-qubit signals, given as a
    palette of states and one palette index per signal; rng injected."""

    def apply_batch(
        self, palette: np.ndarray, index: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class IdentityChannel(ChannelModel):
    kind = "identity"

    def apply_batch(self, palette, index, rng):
        return palette, index


class DepolarizingChannel(ChannelModel):
    kind = "depolarizing"

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("depolarizing weight must sit in [0, 1]")
        self.p = p

    def apply_batch(self, palette, index, rng):
        out = (1.0 - self.p) * palette
        out += self.p * (np.eye(2, dtype=np.complex128) / 2.0)
        return out, index


class InterceptResendChannel(ChannelModel):
    """Measures every signal in a random basis and forwards the eigenstate."""

    kind = "intercept_resend"

    def apply_batch(self, palette, index, rng):
        m = index.size
        eve_basis = rng.integers(0, 2, size=m).astype(np.uint8)
        p_one = _p_one(palette, index, eve_basis)  # its index is freed before the uniforms exist
        return _BB84_PALETTE, 2 * eve_basis + (rng.random(m) < p_one)


class CustomUnitaryChannel(ChannelModel):
    """Couples each signal to a fresh ancilla with a fixed 4x4 unitary and
    discards the ancilla (index layout: signal is the low bit)."""

    kind = "custom"

    def __init__(self, unitary: np.ndarray) -> None:
        u = np.asarray(unitary, dtype=np.complex128)
        if (
            u.shape != (4, 4)
            or not np.isfinite(u).all()
            or np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-10
        ):
            raise ValueError("need a 4x4 unitary with finite entries")
        self.unitary = u

    def apply_batch(self, palette, index, rng):
        k = palette.shape[0]
        full = np.zeros((k, 4, 4), dtype=np.complex128)
        full[:, 0:2, 0:2] = palette  # ancilla starts in |0> (high bit clear)
        rolled = np.einsum("ij,mjk,lk->mil", self.unitary, full, self.unitary.conj())
        view = rolled.reshape(k, 2, 2, 2, 2)  # (anc, sig, anc', sig')
        return np.einsum("masat->mst", view), index


def channel_from_config(cfg: dict) -> ChannelModel:
    return _model_from_config(ChannelModel, "channel", cfg, "identity")


@dataclass(frozen=True)
class DetectorModel:
    """Measures sigma_z for basis 0 and sigma_x for basis 1; a detection
    succeeds with the same efficiency in either basis, and failures are
    reported as null outcomes rather than folded into the bit stream."""

    efficiency: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.efficiency <= 1.0:
            raise ValueError("efficiency must sit in (0, 1]")

    def measure_batch(
        self, palette: np.ndarray, index: np.ndarray, bases: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (outcomes h, detected mask) for the signals `index` names
        in `palette`; h is only meaningful where detected.  Draw order (nulls
        first, then outcomes) is part of the determinism contract."""
        m = index.size
        detected = rng.random(m) < self.efficiency
        p_one = _p_one(palette, index, bases)  # its index is freed before the uniforms exist
        outcomes = (rng.random(m) < p_one).astype(np.uint8)
        return outcomes, detected


# ---------------------------------------------------------------------------
# session configuration


@dataclass(frozen=True)
class SessionConfig:
    n: int
    epsilon: float = 0.05
    delta_max: float = 0.109
    source: SourceModel = field(default_factory=PerfectSource)
    channel: ChannelModel = field(default_factory=IdentityChannel)
    detector: DetectorModel = field(default_factory=DetectorModel)
    code_policy: str = "hamming_blocks"
    seed: int = 0
    pool_bits: int | None = None
    rec_target_fail: float = 1e-4

    def __post_init__(self) -> None:
        # a JSON true is an int to Python, but not a key size or a pool size
        if isinstance(self.n, bool) or self.n < 1:
            raise ValueError("need at least one key bit")
        # the burst cap below implies epsilon < 2^18; checking that first
        # keeps omega_size's ceil finite
        if not 0.0 < self.epsilon < 2**18:
            raise ValueError("epsilon must sit in (0, 2^18)")
        if not 0.0 < self.delta_max < 0.5:
            raise ValueError("delta_max must sit in (0, 1/2)")
        # the efficiency floor keeps 1/efficiency^2 finite; the burst cap
        # bounds a session's memory (2^20 signals: one index byte each on
        # the wire, a few bytes each in every per-signal array)
        if self.n > 0xFFFF or self.detector.efficiency < 2**-15 or self.omega_size > 1 << 20:
            raise ValueError("key size beyond the wire format or the burst limit")
        if self.pool_bits is not None and (
            not isinstance(self.pool_bits, int)
            or isinstance(self.pool_bits, bool)
            or self.pool_bits < 0
        ):
            raise ValueError("pool_bits must be a non-negative integer")
        # written so that a NaN target fails too
        target = self.rec_target_fail
        if not (isinstance(target, numbers.Real) and 0.0 < target < 1.0):
            raise ValueError("rec_target_fail must be a real number in (0, 1)")
        self.pa_code  # a policy that names no buildable code is a config error

    @functools.cached_property
    def omega_size(self) -> int:
        eff = self.detector.efficiency
        half = math.ceil(2.0 * self.n * (1.0 + self.epsilon) / (eff * eff))
        return 2 * half

    @property
    def pool_capacity(self) -> int:
        return self.pool_bits if self.pool_bits is not None else 4 * self.n + 512

    @functools.cached_property
    def pa_code(self) -> LinearCode:
        policy = self.code_policy
        if ":" in policy:
            family, params = policy.split(":", 1)
            desc = f"{family}:n={self.n},{params}"
        else:
            desc = f"{policy}:n={self.n}"
        code = code_from_descriptor(desc)
        if code.k < 1:
            raise ValueError(f"code policy {policy!r} leaves no key bits")
        return code


# ---------------------------------------------------------------------------
# payload codecs


def _pack_bits(bits: np.ndarray) -> bytes:
    return np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def _unpack_bits(blob, count: int, expected: int) -> np.ndarray | None:
    """Inverse of `_pack_bits`, or None when `count` is not the `expected`
    one.  A blob that does not hold exactly `count` bits, or has a set
    padding bit, is malformed; both are read off its length and last byte,
    so nothing is unpacked before the count is compared."""
    if len(blob) != (count + 7) // 8:
        raise ProtocolError(f"{len(blob)} bytes do not hold exactly {count} bits")
    if count % 8 and blob[-1] >> (count % 8):
        raise ProtocolError(f"padding bits past bit {count} are set")
    if count != expected:
        return None
    return np.unpackbits(np.frombuffer(blob, dtype=np.uint8), count=count, bitorder="little")


def _unpack(fmt: str, payload: bytes, offset: int = 0) -> tuple:
    """struct.unpack_from that reports a payload too short for `fmt` as a
    ProtocolError, like every other malformed message."""
    if len(payload) < offset + struct.calcsize(fmt):
        raise ProtocolError(f"{len(payload)} bytes too short for {fmt!r} at offset {offset}")
    return struct.unpack_from(fmt, payload, offset)


def _unpack_exact(fmt: str, payload: bytes) -> tuple:
    if len(payload) != struct.calcsize(fmt):
        raise ProtocolError(f"{len(payload)} bytes, expected {struct.calcsize(fmt)}")
    return struct.unpack(fmt, payload)


def encode_hello(cfg: SessionConfig, role: int) -> bytes:
    return struct.pack(
        ">HBIddI",
        WIRE_VERSION,
        role,
        cfg.n,
        cfg.epsilon,
        cfg.delta_max,
        cfg.omega_size,
    )


def encode_bases_b(symbols: np.ndarray) -> bytes:
    return struct.pack(">I", len(symbols)) + symbols.astype(np.uint8).tobytes()


# Each counted decoder takes the count its session expects and returns None
# for any other count, which it compares before it copies or unpacks: what
# a message costs is bounded by the session's own n, not by the peer.


def decode_bases_b(payload: bytes, expected: int) -> np.ndarray | None:
    (count,) = _unpack(">I", payload)
    if len(payload) - 4 != count:
        raise ProtocolError("basis announcement length mismatch")
    return np.frombuffer(payload, np.uint8, offset=4).copy() if count == expected else None


def encode_bases_a_and_r(a_bits: np.ndarray, r_mask: np.ndarray) -> bytes:
    count = len(a_bits)
    return struct.pack(">I", count) + _pack_bits(a_bits) + _pack_bits(r_mask)


def decode_bases_a_and_r(payload: bytes, expected: int) -> tuple[np.ndarray, np.ndarray] | None:
    (count,) = _unpack(">I", payload)
    span = (count + 7) // 8
    body = memoryview(payload)[4:]
    if len(body) != 2 * span:
        raise ProtocolError("basis/subset announcement length mismatch")
    a_bits = _unpack_bits(body[:span], count, expected)
    r_mask = _unpack_bits(body[span:], count, expected)
    return None if a_bits is None else (a_bits, r_mask)


def encode_bits(bits: np.ndarray) -> bytes:
    """A counted bit string: key-set mask, test bits, encrypted syndrome."""
    return struct.pack(">I", len(bits)) + _pack_bits(bits)


def decode_bits(payload: bytes, expected: int) -> np.ndarray | None:
    (count,) = _unpack(">I", payload)
    return _unpack_bits(memoryview(payload)[4:], count, expected)


def encode_delta(delta: float, proceed: bool) -> bytes:
    return struct.pack(">dB", delta, 1 if proceed else 0)


def decode_delta(payload: bytes) -> tuple[float, bool]:
    delta, flag = _unpack_exact(">dB", payload)
    return delta, flag == 1


def encode_perm(perm: Sequence[int] | np.ndarray) -> bytes:
    return struct.pack(">I", len(perm)) + np.asarray(perm, dtype=">u2").tobytes()


def decode_perm(payload: bytes, expected: int) -> np.ndarray | None:
    (count,) = _unpack(">I", payload)
    if len(payload) - 4 != 2 * count:
        raise ProtocolError("permutation length mismatch")
    if count != expected:
        return None
    return np.frombuffer(payload, ">u2", offset=4).astype(np.intp)


def encode_syndrome(descriptor: str, syndrome_enc: np.ndarray) -> bytes:
    desc = descriptor.encode()
    return struct.pack(">H", len(desc)) + desc + encode_bits(syndrome_enc)


def decode_syndrome(payload: bytes, expected: int) -> tuple[str, np.ndarray | None]:
    """The descriptor and the encrypted syndrome, None unless it holds the
    `expected` tau bits."""
    (dlen,) = _unpack(">H", payload)
    try:
        desc = payload[2 : 2 + dlen].decode()
    except UnicodeDecodeError:
        raise ProtocolError("syndrome descriptor is not text") from None
    return desc, decode_bits(memoryview(payload)[2 + dlen :], expected)


def encode_confirm(mac: bytes) -> bytes:
    return struct.pack(">B", len(mac)) + mac


def decode_confirm(payload: bytes) -> bytes:
    (length,) = _unpack(">B", payload)
    if len(payload) != 1 + length:
        raise ProtocolError("confirmation tag length mismatch")
    return payload[1:]


# ---------------------------------------------------------------------------
# transcript


@dataclass(frozen=True)
class TranscriptRecord:
    step: str
    sender: str
    payload: bytes


class Transcript:
    """Ordered record of every classical announcement, byte-exact."""

    def __init__(self) -> None:
        self.records: list[TranscriptRecord] = []

    def append(self, step: str, sender: str, payload: bytes) -> None:
        self.records.append(TranscriptRecord(step, sender, payload))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Transcript) and self.records == other.records

    def __len__(self) -> int:
        return len(self.records)

    def to_text(self) -> str:
        lines = []
        for rec in self.records:
            body = rec.payload.hex() if rec.payload else "-"
            lines.append(f"{rec.step} {rec.sender} {body}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, text: str) -> Transcript:
        out = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            step, sender, body = line.split(" ", 2)
            payload = b"" if body == "-" else bytes.fromhex(body)
            out.append(step, sender, payload)
        return out


# ---------------------------------------------------------------------------
# sifting, estimation, reconciliation helpers


@dataclass(frozen=True, eq=False)
class SiftResult:
    test_set: np.ndarray  # sorted np.intp positions
    key_set: np.ndarray | None
    abort_reason: str | None


def _sift_masks(a, b, r) -> tuple[np.ndarray, np.ndarray]:
    """(test mask, key-candidate mask) over the announced positions.

    A test position lies in the test half R and the bases agree; a key
    candidate lies outside R and the receiver's basis matches the opposite
    of the announced one -- that opposite basis being what was actually
    sent there.  Null detections (symbol 2) match nothing.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    in_r = np.asarray(r, dtype=bool)
    seen = b != 2
    return in_r & (a == b) & seen, ~in_r & ((a ^ 1) == b) & seen


def sift(a_bits, b_symbols, r_mask, n: int, rng) -> SiftResult:
    """Split announced positions into the test set T (every test position)
    and the key set S (n key candidates sampled uniformly with the supplied
    rng).  Aborts when either set comes up short.  Both sets are sorted
    np.intp arrays; the draw picks candidate ranks, which name the same
    candidates as a draw over the candidates themselves.
    """
    m = min(len(a_bits), len(b_symbols), len(r_mask))
    test_mask, key_mask = _sift_masks(a_bits[:m], b_symbols[:m], r_mask[:m])
    test = np.flatnonzero(test_mask)
    candidates = np.flatnonzero(key_mask)
    if test.size < n or candidates.size < n:
        return SiftResult(test, None, ABORT_SIFT)
    picked = np.zeros(candidates.size, dtype=bool)
    picked[np.fromiter(_sample(rng, range(candidates.size), n), np.intp, n)] = True
    return SiftResult(test, candidates[picked], None)


def estimate_error(sender_bits, receiver_bits) -> float:
    """Fraction of positions that disagree; with all-zero sender bits this
    is plain one-counting, which is the adversarial-preparation variant."""
    if len(sender_bits) != len(receiver_bits):
        raise ValueError("test records differ in length")
    if len(sender_bits) == 0:
        raise ValueError("cannot estimate an error rate from nothing")
    mism = np.count_nonzero(np.asarray(sender_bits) != np.asarray(receiver_bits))
    return int(mism) / len(sender_bits)


def _block_failure(n_block: int, radius: int, p: float, blocks: int) -> float:
    if blocks == 0:
        return 0.0
    q = 1.0 - sum(
        math.comb(n_block, w) * p**w * (1.0 - p) ** (n_block - w)
        for w in range(radius + 1)
    )
    return 1.0 - (1.0 - q) ** blocks


@functools.lru_cache(maxsize=64)
def choose_reconciliation_code(
    n: int, delta_obs: float, epsilon: float, target_fail: float
) -> LinearCode:
    """Cheapest shipped syndrome code whose estimated miss rate at error
    probability min(delta_obs + epsilon, 0.49) stays under the target.

    Candidates: no correction at all, single-error blocks of seven,
    odd-length majority blocks, and a verbatim fallback that always works.
    Leftover tail bits ride along verbatim in every block family.  Each
    candidate's syndrome length tau follows from its shape, so only the
    pick (the first of the cheapest, in the order above) is built.  The
    picks of the 64 latest inputs are kept, so the sender's call in a
    session returns the code the receiver's identical call has just built.
    """
    p = min(delta_obs + epsilon, 0.49)
    candidates = []
    if _block_failure(n, 0, p, 1) <= target_fail:
        candidates.append((0, functools.partial(rec_identity, n)))
    if _block_failure(7, 1, p, n // 7) <= target_fail:
        candidates.append((3 * (n // 7) + n % 7, functools.partial(rec_hamming, n)))
    for inner in range(3, 26, 2):
        if inner > n:
            break
        if _block_failure(inner, (inner - 1) // 2, p, n // inner) <= target_fail:
            tau = (inner - 1) * (n // inner) + n % inner
            candidates.append((tau, functools.partial(rec_repetition, n, inner)))
    candidates.append((n, functools.partial(rec_verbatim, n)))
    _, build = min(candidates, key=lambda pair: pair[0])
    return build()


def _sifted_word(bits: np.ndarray, key_set: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The sifted key: bits at the key positions, component i moved to
    position perm[i]."""
    word = np.empty(len(perm), dtype=np.uint8)
    word[perm] = bits[key_set]
    return word


def _confirm_mac(confirm_key: np.ndarray, kappa: np.ndarray) -> bytes:
    material = _pack_bits(confirm_key) + _pack_bits(kappa)
    return hashlib.sha256(material).digest()[:CONFIRM_MAC_BYTES]


# ---------------------------------------------------------------------------
# run statistics

STATS_FIELDS = (
    "run_id",
    "n",
    "epsilon",
    "delta_max",
    "delta",
    "t_size",
    "s_size",
    "r",
    "tau",
    "confirm_bits",
    "key_rate_net",
    "abort_reason",
)


@dataclass
class RunStats:
    n: int
    epsilon: float
    delta_max: float
    delta: float | None = None
    t_size: int | None = None
    s_size: int | None = None
    r: int | None = None
    tau: int | None = None
    confirm_bits: int | None = None
    abort_reason: str | None = None
    code_descriptor: str | None = None
    rec_descriptor: str | None = None

    @property
    def key_rate_net(self) -> float | None:
        if self.r is None or self.tau is None or self.confirm_bits is None:
            return None
        return (self.r - self.tau - self.confirm_bits) / self.n

    def as_row(self, run_id) -> list:
        """The STATS_FIELDS values: an unset field is empty, the net rate has
        six decimals, and every other field is written as it is."""
        row = []
        for name in STATS_FIELDS:
            value = run_id if name == "run_id" else getattr(self, name)
            if value is None:
                value = ""
            elif name == "key_rate_net":
                value = f"{value:.6f}"
            row.append(value)
        return row


# ---------------------------------------------------------------------------
# party state machines


class _Session:
    """Shared plumbing: phase tracking, transcript, outbox, terminal handling.

    Each subclass lists its waiting phases in protocol order, each with the
    one tag it accepts (`expects`); that table is the only statement of the
    phase order, and each class reads its successor table off it once, when
    the class is created.  `on_message` ends any other tag in `phase_order`
    before a handler sees it, records the peer's message and dispatches it
    to `_phase_<phase>`.  Handlers queue replies with `_send`, `_fail` queues
    the ABORT, and the flush in `on_message` and `start` records them.  The
    dispatcher alone turns an exception into an abort (`_error_aborts`),
    with its text as the detail; the abort follows what was queued, which a
    ProtocolError drops.  Any other exception escapes and drops the queue.
    Only the dispatcher moves `phase`: after a handler returns on a session
    that has not aborted, to the next phase of `expects`, or to "finished"
    after the last; `_fail` moves it to "dead".  A session is `done` once
    finished, and only then does `final_key` release the key its handlers
    derived.
    """

    role_name = "?"
    expects: dict[str, int] = {}
    # the exceptions a handler raises to abort, each with the reason it ends in
    _error_aborts = {
        ProtocolError: ABORT_MALFORMED,
        PoolExhausted: ABORT_POOL,
        DecodingFailure: ABORT_RECONCILE,
    }
    _next_phase: dict[str, str]  # phase -> the phase after it, read off `expects`

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        phases = [*cls.expects, "finished"]
        cls._next_phase = dict(zip(phases, phases[1:]))

    def __init__(self, cfg: SessionConfig) -> None:
        self.cfg = cfg
        self.transcript = Transcript()
        self.stats = RunStats(n=cfg.n, epsilon=cfg.epsilon, delta_max=cfg.delta_max)
        self.abort_reason: str | None = None
        self.abort_detail: str | None = None
        self.phase = next(iter(self.expects))
        self.pool = SecretPool(stream_seed(cfg.seed, "pool"), cfg.pool_capacity)
        self._key: BitVec | None = None
        self._outbox: list[WireMessage] = []

    @property
    def done(self) -> bool:
        return self.phase == "finished"

    @property
    def final_key(self) -> BitVec | None:
        return self._key if self.done else None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def terminal(self) -> bool:
        return self.done or self.aborted

    def _record(self, sender: str, msgs: Sequence[WireMessage]) -> None:
        """Appends the announcements among `msgs` to the transcript."""
        for msg in msgs:
            if msg.tag in TRANSCRIPT_TAGS:
                self.transcript.append(TAG_NAMES[msg.tag], sender, msg.payload)

    def _send(self, tag: int, payload: bytes = b"") -> None:
        self._outbox.append(WireMessage(tag, payload))

    def _flush(self) -> list[WireMessage]:
        """The queued messages, recorded and removed from the queue."""
        out, self._outbox = self._outbox, []
        self._record(self.role_name, out)
        return out

    def _fail(self, reason: str, announce: bool = True) -> None:
        self.abort_reason = reason
        self.stats.abort_reason = reason
        self.phase = "dead"
        if announce:
            self._send(TAG_ABORT, reason.encode())

    def hang_up(self) -> None:
        """Ends a session still waiting for a message that will not come,
        as the transport failure it is; a terminal session stays as it is."""
        if not self.terminal:
            self._fail(ABORT_TRANSPORT, announce=False)

    def on_message(self, msg: WireMessage) -> list[WireMessage]:
        if not self.terminal:  # a terminal session has nothing queued
            self._dispatch(msg)
        return self._flush()

    def _dispatch(self, msg: WireMessage) -> None:
        if msg.tag != TAG_ABORT and msg.tag != self.expects.get(self.phase):
            return self._fail(ABORT_PHASE)
        self._record(self.peer_name, [msg])
        if msg.tag == TAG_ABORT:
            # the peer names a known reason or none; anything else is
            # malformed, so the peer never writes the reason string
            cut = msg.payload[:_ABORT_NAME_CUT]
            reason = _ABORT_NAMES.get(cut) if cut else ABORT_TRANSPORT
            if reason is None:
                self.abort_detail = f"{msg.name()}: {msg.payload[:ABORT_DETAIL_BYTES]!r}"
                reason = ABORT_MALFORMED
            return self._fail(reason, announce=False)
        try:
            getattr(self, f"_phase_{self.phase}")(msg)
        except tuple(self._error_aborts) as err:
            if isinstance(err, ProtocolError):
                self._outbox.clear()
            self.abort_detail = f"{msg.name()}: {err}"
            self._fail(next(r for cls, r in self._error_aborts.items() if isinstance(err, cls)))
        except BaseException:
            self._outbox.clear()
            raise
        if not self.aborted:
            self.phase = self._next_phase[self.phase]


class AliceSession(_Session):
    """Sender side: emits the quantum signals and corrects toward the
    receiver's sifted key in step nine."""

    role_name = "alice"
    peer_name = "bob"
    expects = {
        "hello": TAG_HELLO,
        "await_bases": TAG_BASES_B,
        "await_subset": TAG_SUBSET_S,
        "await_delta": TAG_DELTA_DECISION,
        "await_perm": TAG_PERM,
        "await_code": TAG_CODE,
        "await_syndrome": TAG_SYNDROME_ENC,
        "await_confirm": TAG_KEY_CONFIRM,
    }

    def __init__(self, cfg: SessionConfig) -> None:
        super().__init__(cfg)
        self._emit_rng = np.random.default_rng(stream_seed(cfg.seed, "alice|emit"))
        self._choice_rng = random.Random(stream_seed(cfg.seed, "alice|choice"))
        self.a_bits: np.ndarray | None = None
        self.g_bits: np.ndarray | None = None
        self.r_mask: np.ndarray | None = None
        self._key_mask: np.ndarray | None = None  # key candidates, once T is known
        self.test_set = np.empty(0, dtype=np.intp)
        self.key_set = np.empty(0, dtype=np.intp)
        self.perm: np.ndarray | None = None
        self.kappa: np.ndarray | None = None

    def start(self) -> list[WireMessage]:
        # admissible: one emitted qubit, and basis-averaged states that agree
        # (written so that a NaN distance fails)
        src = self.cfg.source
        if src.palette.shape != (4, 2, 2) or not src.basis_distance <= SOURCE_TOLERANCE:
            self._fail(ABORT_SOURCE)
        else:
            self._send(TAG_HELLO, encode_hello(self.cfg, ROLE_ALICE))
        return self._flush()

    def _phase_hello(self, msg: WireMessage) -> None:
        if msg.payload != encode_hello(self.cfg, ROLE_BOB):
            return self._fail(ABORT_VERSION)
        self._emit_signals()

    def _emit_signals(self) -> None:
        cfg = self.cfg
        m = cfg.omega_size
        src = cfg.source
        rng = self._emit_rng
        self.a_bits = rng.integers(0, 2, size=m).astype(np.uint8)
        r_index = np.fromiter(_sample(self._choice_rng, range(m), m // 2), np.intp, m // 2)
        self.r_mask = np.zeros(m, dtype=np.uint8)
        self.r_mask[r_index] = 1
        # the basis actually keyed into the source: a for tested positions,
        # its opposite for the rest
        sent_basis = self.a_bits ^ self.r_mask ^ 1
        p_one = 2.0 * src.probs[:, 1]  # P(g = 1 | sent basis)
        self.g_bits = (rng.random(m) < p_one.take(sent_basis)).astype(np.uint8)
        self._outbox.append(encode_qburst(src.palette, 2 * sent_basis + self.g_bits))

    def _phase_await_bases(self, msg: WireMessage) -> None:
        b_symbols = decode_bases_b(msg.payload, self.cfg.omega_size)
        if b_symbols is None:
            return self._fail(ABORT_PHASE)
        # T is now public knowledge; S arrives from the peer next
        test_mask, self._key_mask = _sift_masks(self.a_bits, b_symbols, self.r_mask)
        self.test_set = np.flatnonzero(test_mask)
        self.stats.t_size = len(self.test_set)
        self._send(TAG_BASES_A_AND_R, encode_bases_a_and_r(self.a_bits, self.r_mask))

    def _phase_await_subset(self, msg: WireMessage) -> None:
        mask = decode_bits(msg.payload, self._key_mask.size)
        key_idx = np.empty(0, np.intp) if mask is None else np.flatnonzero(mask)
        ok = key_idx.size == self.cfg.n and bool(self._key_mask[key_idx].all())
        if len(self.test_set) < self.cfg.n or not ok:
            return self._fail(ABORT_SIFT)
        self.key_set = key_idx
        self.stats.s_size = len(self.key_set)
        self._send(TAG_TEST_BITS, encode_bits(self.g_bits[self.test_set]))

    def _phase_await_delta(self, msg: WireMessage) -> None:
        delta, proceed = decode_delta(msg.payload)
        self.stats.delta = delta
        if not proceed:
            return self._fail(ABORT_DELTA, announce=False)
        if not 0.0 <= delta <= self.cfg.delta_max:  # no verdict Bob could reach
            return self._fail(ABORT_PHASE)

    def _phase_await_perm(self, msg: WireMessage) -> None:
        perm = decode_perm(msg.payload, self.cfg.n)
        if perm is None or not is_permutation(perm, self.cfg.n):
            return self._fail(ABORT_PHASE)
        self.perm = perm

    def _phase_await_code(self, msg: WireMessage) -> None:
        code = self.cfg.pa_code
        if msg.payload != code.descriptor().encode():
            return self._fail(ABORT_PHASE)
        self.stats.r = code.k
        self.stats.code_descriptor = code.descriptor()

    def _phase_await_syndrome(self, msg: WireMessage) -> None:
        rec = choose_reconciliation_code(
            self.cfg.n, self.stats.delta, self.cfg.epsilon, self.cfg.rec_target_fail
        )
        try:
            desc, enc = decode_syndrome(msg.payload, rec.n - rec.k)
        except ProtocolError:
            return self._fail(ABORT_PHASE)
        if desc != rec.descriptor() or enc is None:
            return self._fail(ABORT_PHASE)
        self.stats.rec_descriptor = desc
        self.stats.tau = enc.size
        target = enc ^ self.pool.take(enc.size)
        word = _sifted_word(self.g_bits, self.key_set, self.perm)
        self.kappa = rec.correct_with_syndrome(word, target)

    def _phase_await_confirm(self, msg: WireMessage) -> None:
        their_mac = decode_confirm(msg.payload)
        confirm_key = self.pool.take(CONFIRM_KEY_BITS)
        self.stats.confirm_bits = CONFIRM_KEY_BITS
        if _confirm_mac(confirm_key, self.kappa) != their_mac:
            return self._fail(ABORT_CONFIRM)
        self._key = BitVec.from_array(self.cfg.pa_code.coset_key(self.kappa))
        self._send(TAG_DONE)


class BobSession(_Session):
    """Receiver side: measures, runs the verification test, and owns the
    sifted key the final key is taken from."""

    role_name = "bob"
    peer_name = "alice"
    expects = {
        "hello": TAG_HELLO,
        "collect": TAG_QBURST,
        "await_bases_a": TAG_BASES_A_AND_R,
        "await_test_bits": TAG_TEST_BITS,
        "await_done": TAG_DONE,
    }

    def __init__(self, cfg: SessionConfig) -> None:
        super().__init__(cfg)
        self._quantum_rng = np.random.default_rng(
            stream_seed(cfg.seed, "bob|quantum")
        )
        self._choice_rng = random.Random(stream_seed(cfg.seed, "bob|choice"))
        self.b_symbols: np.ndarray | None = None
        self.h_bits: np.ndarray | None = None
        self.test_set = np.empty(0, dtype=np.intp)
        self.key_set = np.empty(0, dtype=np.intp)
        self.kappa: np.ndarray | None = None

    def start(self) -> list[WireMessage]:
        return []

    def _phase_hello(self, msg: WireMessage) -> None:
        if msg.payload != encode_hello(self.cfg, ROLE_ALICE):
            return self._fail(ABORT_VERSION)
        self._send(TAG_HELLO, encode_hello(self.cfg, ROLE_BOB))

    def _phase_collect(self, msg: WireMessage) -> None:
        """Takes the burst, realizes the configured channel on it, then
        measures.  A burst that does not decode, or whose length is not this
        session's |Omega|, is out of order."""
        cfg = self.cfg
        m = cfg.omega_size
        try:
            palette, index = decode_qburst(msg.payload, m)
        except ProtocolError:
            return self._fail(ABORT_PHASE)
        palette, index = cfg.channel.apply_batch(palette, index, channel_rng(cfg.seed))
        rng = self._quantum_rng
        bases = rng.integers(0, 2, size=m).astype(np.uint8)
        outcomes, detected = cfg.detector.measure_batch(palette, index, bases, rng)
        self.h_bits = outcomes
        self.b_symbols = np.where(detected, bases, np.uint8(2)).astype(np.uint8)
        self._send(TAG_BASES_B, encode_bases_b(self.b_symbols))

    def _phase_await_bases_a(self, msg: WireMessage) -> None:
        decoded = decode_bases_a_and_r(msg.payload, self.cfg.omega_size)
        if decoded is None:
            return self._fail(ABORT_PHASE)
        a_bits, r_mask = decoded
        result = sift(a_bits, self.b_symbols, r_mask, self.cfg.n, self._choice_rng)
        self.stats.t_size = len(result.test_set)
        if result.abort_reason:
            return self._fail(result.abort_reason)
        self.test_set = result.test_set
        self.key_set = result.key_set
        self.stats.s_size = len(result.key_set)
        mask = np.zeros(self.cfg.omega_size, dtype=np.uint8)
        mask[result.key_set] = 1
        self._send(TAG_SUBSET_S, encode_bits(mask))

    def _phase_await_test_bits(self, msg: WireMessage) -> None:
        g_test = decode_bits(msg.payload, len(self.test_set))
        if g_test is None:
            return self._fail(ABORT_PHASE)
        h_test = self.h_bits[self.test_set]
        delta = estimate_error(g_test, h_test)
        self.stats.delta = delta
        proceed = delta <= self.cfg.delta_max
        self._send(TAG_DELTA_DECISION, encode_delta(delta, proceed))
        if not proceed:
            return self._fail(ABORT_DELTA, announce=False)
        self._announce_key_material(delta)

    def _announce_key_material(self, delta: float) -> None:
        cfg = self.cfg
        perm = list(range(cfg.n))
        _shuffle(self._choice_rng, perm)
        perm = np.array(perm, dtype=np.intp)
        pa = cfg.pa_code
        self.stats.r = pa.k
        self.stats.code_descriptor = pa.descriptor()
        self._send(TAG_PERM, encode_perm(perm))
        self._send(TAG_CODE, pa.descriptor().encode())
        self.kappa = _sifted_word(self.h_bits, self.key_set, perm)
        rec = choose_reconciliation_code(cfg.n, delta, cfg.epsilon, cfg.rec_target_fail)
        syndrome = rec.syndrome(self.kappa)
        self.stats.rec_descriptor = rec.descriptor()
        self.stats.tau = syndrome.size
        otp = self.pool.take(syndrome.size)
        confirm_key = self.pool.take(CONFIRM_KEY_BITS)
        self.stats.confirm_bits = CONFIRM_KEY_BITS
        self._send(TAG_SYNDROME_ENC, encode_syndrome(rec.descriptor(), syndrome ^ otp))
        self._send(TAG_KEY_CONFIRM, encode_confirm(_confirm_mac(confirm_key, self.kappa)))
        # released on DONE: Alice may abort silently on a flipped DELTA_DECISION
        self._key = BitVec.from_array(pa.coset_key(self.kappa))

    def _phase_await_done(self, msg: WireMessage) -> None:
        """DONE carries nothing: the dispatcher's step to "finished" is what
        releases the key.  Alice's DONE is empty, so one with a payload was
        rewritten and would leave the two transcripts unequal."""
        if msg.payload:
            raise ProtocolError(f"{len(msg.payload)} payload bytes, expected none")


# ---------------------------------------------------------------------------
# in-process execution


@dataclass
class ProtocolResult:
    alice_key: BitVec | None
    bob_key: BitVec | None
    transcript: Transcript
    stats: RunStats
    alice: AliceSession
    bob: BobSession

    @property
    def aborted(self) -> bool:
        return self.stats.abort_reason is not None


def run_protocol(cfg: SessionConfig) -> ProtocolResult:
    """Execute one full session in-process; the receiver realizes the
    configured channel, which plays the adversary/noise between the two
    state machines."""
    alice = AliceSession(cfg)
    bob = BobSession(cfg)

    queue: collections.deque = collections.deque()
    queue.extend(("alice", m) for m in alice.start())
    queue.extend(("bob", m) for m in bob.start())
    guard = 0
    while queue:
        guard += 1
        if guard > 16 * cfg.omega_size + 256:
            raise ProtocolError("message pump did not terminate")
        sender, msg = queue.popleft()
        receiver = bob if sender == "alice" else alice
        queue.extend((receiver.role_name, m) for m in receiver.on_message(msg))

    if alice.stats.abort_reason and not bob.stats.abort_reason:
        stats = alice.stats
    else:
        stats = bob.stats
    # Nothing is left to deliver, so a party still waiting would wait for
    # good: end it as the socket path does when the peer closes.
    alice.hang_up()
    bob.hang_up()
    return ProtocolResult(
        alice_key=alice.final_key,
        bob_key=bob.final_key,
        transcript=alice.transcript,
        stats=stats,
        alice=alice,
        bob=bob,
    )


def replay_protocol(cfg: SessionConfig, transcript: Transcript) -> ProtocolResult:
    """Re-run the deterministic machines and require every announcement to
    match the recorded transcript byte-for-byte."""
    result = run_protocol(cfg)
    if result.transcript != transcript:
        ours = result.transcript.records
        theirs = transcript.records
        for i in range(max(len(ours), len(theirs))):
            a = ours[i] if i < len(ours) else None
            b = theirs[i] if i < len(theirs) else None
            if a != b:
                raise ReplayMismatch(f"record {i}: produced {a}, transcript has {b}")
        raise ReplayMismatch("transcript mismatch")
    return result
