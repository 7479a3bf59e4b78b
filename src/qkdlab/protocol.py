"""Two-party BB84 session engine with pluggable source, channel, detector.

The protocol runs as two message-driven state machines exchanging tagged
wire messages; the transport (in-process pump here, framed sockets in
netchan) only moves bytes.  One session: hello exchange, the burst of
|Omega| signal states (QBURST messages of up to BURST_CHUNK states each),
which the receiver passes through the configured channel in one batch,
then the classical announcements in fixed order: Bob's bases; Alice's
bases and test-half choice R; Bob's key subset S; Alice's test bits; Bob's
error rate and verdict; Bob's permutation, code choice, and encrypted
syndrome; a keyed confirmation hash; done or abort.  Each side checks the
peer's HELLO as an echo: it must equal, byte for byte, the HELLO this side
would send in the peer's role.  Alice derives both codes herself, from the
shared config and Bob's announced error rate; his CODE and SYNDROME_ENC
descriptors are echoes she checks byte for byte.  In every waiting phase a
party accepts one tag; any other message ends the session in phase_order.

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

WIRE_VERSION = 2

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


BURST_HEAD = struct.Struct(">II")  # first signal index, burst length |Omega|
STATE_BYTES = 64  # one 2x2 complex128 density matrix, big-endian
# states per QBURST message: 4 MiB of states, so a frame stays well under
# netchan's 16 MiB cap at any burst length
BURST_CHUNK = 1 << 16


def states_from_bytes(blob: bytes) -> np.ndarray:
    """Signal states packed back to back on the wire, as an (m, 2, 2) array."""
    flat = np.frombuffer(blob, dtype=">f8").astype(np.float64)
    return flat.view(np.complex128).reshape(len(blob) // STATE_BYTES, 2, 2)


def states_to_bytes(states: np.ndarray) -> bytes:
    return states.reshape(len(states), 4).view(np.float64).astype(">f8").tobytes()


def encode_qburst(states: bytes) -> list[WireMessage]:
    """One signal burst (packed states) as QBURST messages of at most
    BURST_CHUNK states, each headed by its first index and the burst length."""
    total = len(states) // STATE_BYTES
    step = BURST_CHUNK * STATE_BYTES
    return [
        WireMessage(TAG_QBURST, BURST_HEAD.pack(at // STATE_BYTES, total) + states[at : at + step])
        for at in range(0, len(states), step)
    ]


# ---------------------------------------------------------------------------
# randomness plumbing


def stream_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class SecretPool:
    """Deterministic pre-shared secret bits, consumed strictly in order.

    Both parties build the pool from the same seed and must take bits in
    the same sequence; running out is a protocol abort, not an exception
    escaping to the caller.
    """

    def __init__(self, seed: int, nbits: int) -> None:
        if nbits < 0:
            raise ValueError("pool size cannot be negative")
        blocks = []
        for counter in range((nbits + 255) // 256):
            blocks.append(hashlib.sha256(f"{seed}|pool|{counter}".encode()).digest())
        raw = b"".join(blocks)[: (nbits + 7) // 8]
        self._value = int.from_bytes(raw, "little") & ((1 << nbits) - 1 if nbits else 0)
        self.capacity = nbits
        self.offset = 0

    def remaining(self) -> int:
        return self.capacity - self.offset

    def take(self, nbits: int) -> BitVec:
        if nbits > self.remaining():
            raise PoolExhausted(f"need {nbits} bits, {self.remaining()} left")
        out = (self._value >> self.offset) & ((1 << nbits) - 1 if nbits else 0)
        self.offset += nbits
        return BitVec(nbits, out)


# ---------------------------------------------------------------------------
# source models

_KET = {
    (0, 0): np.array([1.0, 0.0], dtype=np.complex128),  # |0>
    (0, 1): np.array([0.0, 1.0], dtype=np.complex128),  # |1>
    (1, 0): np.array([1.0, 1.0], dtype=np.complex128) / math.sqrt(2),  # |+>
    (1, 1): np.array([1.0, -1.0], dtype=np.complex128) / math.sqrt(2),  # |->
}


def _bb84_state(a: int, g: int) -> np.ndarray:
    k = _KET[(a, g)]
    return np.outer(k, k.conj())


class SourceModel:
    """Base: a table of emitted states rho(a, g) with joint weights p(a, g).

    Subclasses fill `probs` (2x2, rows indexed by basis, p[a,0]+p[a,1]=1/2)
    and `emission` (2x2 object array of density matrices over the emitted
    space).  The signal the receiver measures is always the first qubit of
    the emitted space; compliant models emit exactly one qubit.
    """

    kind = "abstract"

    def __init__(self, probs: np.ndarray, emission: list[list[np.ndarray]]) -> None:
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (2, 2) or np.any(probs < 0):
            raise ValueError("need nonnegative joint weights p[a][g]")
        for a in range(2):
            if abs(probs[a].sum() - 0.5) > 1e-12:
                raise ValueError("basis choice must be an unbiased coin")
        self.probs = probs
        self.emission = emission

    def emit(self, a: int, g: int, rng=None) -> np.ndarray:
        return self.emission[a][g]

    def key_bit_probability(self, a: int) -> float:
        """P(g = 1 | sent basis = a)."""
        return float(2.0 * self.probs[a][1])

    def averaged_state(self, a: int) -> np.ndarray:
        acc = np.zeros_like(self.emission[a][0])
        for g in range(2):
            acc = acc + 2.0 * self.probs[a][g] * self.emission[a][g]
        return acc


class PerfectSource(SourceModel):
    """Textbook BB84 states; `bias` skews the key bit, not the basis."""

    kind = "perfect"

    def __init__(self, bias: float = 0.5) -> None:
        if not 0.0 < bias < 1.0:
            raise ValueError("bias must sit strictly inside (0, 1)")
        probs = np.array([[1 - bias, bias], [1 - bias, bias]]) / 2.0
        emission = [[_bb84_state(a, g) for g in range(2)] for a in range(2)]
        super().__init__(probs, emission)
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
        rz = np.diag(
            [np.exp(-0.5j * theta), np.exp(0.5j * theta)]
        ).astype(np.complex128)
        probs = np.array([[1 - bias, bias], [1 - bias, bias]]) / 2.0
        emission = [
            [rz @ _bb84_state(a, g) @ rz.conj().T for g in range(2)] for a in range(2)
        ]
        super().__init__(probs, emission)
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
        pair = np.zeros(4, dtype=np.complex128)
        pair[0b00] = 1 / math.sqrt(2)
        pair[0b11] = 1 / math.sqrt(2)
        rho_pair = np.outer(pair, pair.conj())

        def helper_projector(axis_angle: float, outcome: int) -> np.ndarray:
            # measurement axis in the x-z plane, tilted off +z by axis_angle
            v = np.array(
                [math.cos(axis_angle / 2.0), math.sin(axis_angle / 2.0)],
                dtype=np.complex128,
            )
            if outcome == 1:
                v = np.array(
                    [-math.sin(axis_angle / 2.0), math.cos(axis_angle / 2.0)],
                    dtype=np.complex128,
                )
            return np.outer(v, v.conj())

        probs = np.zeros((2, 2))
        emission = [[None, None], [None, None]]
        angles = {0: 0.0, 1: math.pi / 2.0 + phi}
        for a in range(2):
            for g in range(2):
                proj = np.kron(helper_projector(angles[a], g), np.eye(2))
                sub = proj @ rho_pair @ proj
                weight = float(np.trace(sub).real)
                probs[a][g] = 0.5 * weight
                reduced = sub.reshape(2, 2, 2, 2)
                collapsed = np.einsum("asat->st", reduced) / weight
                emission[a][g] = collapsed
        super().__init__(probs, emission)
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
        probs = np.full((2, 2), 0.25)
        emission = [[None, None], [None, None]]
        for a in range(2):
            for g in range(2):
                sig = _bb84_state(a, g)
                emission[a][g] = (1.0 - leak_prob) * np.kron(vacuum, sig) + (
                    leak_prob
                ) * np.kron(sig, sig)
        super().__init__(probs, emission)
        self.leak_prob = leak_prob


def check_basis_independence(source: SourceModel) -> float:
    """Trace distance between the two basis-averaged emitted states."""
    diff = source.averaged_state(0) - source.averaged_state(1)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def source_from_config(cfg: dict) -> SourceModel:
    kind = cfg.get("kind", "perfect")
    if kind == "perfect":
        return PerfectSource(bias=cfg.get("bias", 0.5))
    if kind == "rotated_z":
        return RotatedZSource(cfg["theta"], bias=cfg.get("bias", 0.5))
    if kind == "entangled":
        return EntangledSource(phi=cfg.get("phi", 0.0))
    if kind == "leaky_two_copy":
        return LeakyTwoCopySource(leak_prob=cfg.get("leak_prob", 0.5))
    raise ValueError(f"unknown source kind {kind!r}")


# ---------------------------------------------------------------------------
# channel and detector models


class ChannelModel:
    """Stateless transform of a batch of single-qubit states; rng injected."""

    kind = "abstract"

    def apply_batch(self, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        raise NotImplementedError


class IdentityChannel(ChannelModel):
    kind = "identity"

    def apply_batch(self, states, rng):
        return states


class DepolarizingChannel(ChannelModel):
    kind = "depolarizing"

    def __init__(self, p: float) -> None:
        if not 0.0 <= p <= 1.0:
            raise ValueError("depolarizing weight must sit in [0, 1]")
        self.p = p

    def apply_batch(self, states, rng):
        eye = np.eye(2, dtype=np.complex128) / 2.0
        return (1.0 - self.p) * states + self.p * eye[None, :, :]


class InterceptResendChannel(ChannelModel):
    """Measures every signal in a random basis and forwards the eigenstate."""

    kind = "intercept_resend"

    def apply_batch(self, states, rng):
        m = states.shape[0]
        eve_basis = rng.integers(0, 2, size=m)
        p_one = np.where(
            eve_basis == 0,
            states[:, 1, 1].real,
            0.5 * (1.0 - 2.0 * states[:, 0, 1].real),
        )
        outcome = (rng.random(m) < p_one).astype(np.int64)
        lut = np.array(
            [[_bb84_state(a, g) for g in range(2)] for a in range(2)]
        )
        return lut[eve_basis, outcome]


class CustomUnitaryChannel(ChannelModel):
    """Couples each signal to a fresh ancilla with a fixed 4x4 unitary and
    discards the ancilla (index layout: signal is the low bit)."""

    kind = "custom"

    def __init__(self, unitary: np.ndarray) -> None:
        u = np.asarray(unitary, dtype=np.complex128)
        if u.shape != (4, 4) or np.max(np.abs(u @ u.conj().T - np.eye(4))) > 1e-10:
            raise ValueError("need a 4x4 unitary")
        self.unitary = u

    def apply_batch(self, states, rng):
        m = states.shape[0]
        full = np.zeros((m, 4, 4), dtype=np.complex128)
        full[:, 0:2, 0:2] = states  # ancilla starts in |0> (high bit clear)
        rolled = np.einsum("ij,mjk,lk->mil", self.unitary, full, self.unitary.conj())
        view = rolled.reshape(m, 2, 2, 2, 2)  # (anc, sig, anc', sig')
        return np.einsum("masat->mst", view)


def channel_from_config(cfg: dict) -> ChannelModel:
    kind = cfg.get("kind", "identity")
    if kind == "identity":
        return IdentityChannel()
    if kind == "depolarizing":
        return DepolarizingChannel(cfg["p"])
    if kind == "intercept_resend":
        return InterceptResendChannel()
    if kind == "custom":
        return CustomUnitaryChannel(np.asarray(cfg["unitary"], dtype=np.complex128))
    raise ValueError(f"unknown channel kind {kind!r}")


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
        self, states: np.ndarray, bases: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Returns (outcomes h, detected mask); h is only meaningful where
        detected.  Draw order (nulls first, then outcomes) is part of the
        determinism contract."""
        m = states.shape[0]
        detected = rng.random(m) < self.efficiency
        p_one = np.where(
            bases == 0,
            states[:, 1, 1].real,
            0.5 * (1.0 - 2.0 * states[:, 0, 1].real),
        )
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
        if self.n < 1:
            raise ValueError("need at least one key bit")
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        if not 0.0 < self.delta_max < 0.5:
            raise ValueError("delta_max must sit in (0, 1/2)")
        # the efficiency floor keeps 1/efficiency^2 finite; the burst cap
        # bounds a session's memory (2^20 states of 64 bytes per copy)
        if self.n > 0xFFFF or self.detector.efficiency < 2**-15 or self.omega_size > 1 << 20:
            raise ValueError("key size beyond the wire format or the burst limit")
        if self.pool_bits is not None and (
            not isinstance(self.pool_bits, int) or self.pool_bits < 0
        ):
            raise ValueError("pool_bits must be a non-negative integer")
        self.pa_code  # a policy that names no buildable code is a config error

    @property
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


def _unpack_bits(blob: bytes, count: int) -> np.ndarray:
    if len(blob) != (count + 7) // 8:
        raise ProtocolError(f"{len(blob)} bytes do not hold exactly {count} bits")
    arr = np.frombuffer(blob, dtype=np.uint8)
    return np.unpackbits(arr, count=count, bitorder="little")


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
    return struct.pack(">I", len(symbols)) + bytes(symbols.astype(np.uint8).tolist())


def decode_bases_b(payload: bytes) -> np.ndarray:
    (count,) = _unpack(">I", payload)
    body = np.frombuffer(payload[4:], dtype=np.uint8)
    if body.size != count:
        raise ProtocolError("basis announcement length mismatch")
    return body.copy()


def encode_bases_a_and_r(a_bits: np.ndarray, r_mask: np.ndarray) -> bytes:
    count = len(a_bits)
    return struct.pack(">I", count) + _pack_bits(a_bits) + _pack_bits(r_mask)


def decode_bases_a_and_r(payload: bytes) -> tuple[np.ndarray, np.ndarray]:
    (count,) = _unpack(">I", payload)
    span = (count + 7) // 8
    body = payload[4:]
    if len(body) != 2 * span:
        raise ProtocolError("basis/subset announcement length mismatch")
    return _unpack_bits(body[:span], count), _unpack_bits(body[span:], count)


def encode_bits(bits: np.ndarray) -> bytes:
    """A counted bit string: Bob's key-set mask, Alice's test bits."""
    return struct.pack(">I", len(bits)) + _pack_bits(bits)


def decode_bits(payload: bytes) -> np.ndarray:
    (count,) = _unpack(">I", payload)
    return _unpack_bits(payload[4:], count)


def encode_delta(delta: float, proceed: bool) -> bytes:
    return struct.pack(">dB", delta, 1 if proceed else 0)


def decode_delta(payload: bytes) -> tuple[float, bool]:
    delta, flag = _unpack_exact(">dB", payload)
    return delta, flag == 1


def encode_perm(perm: Sequence[int] | np.ndarray) -> bytes:
    return struct.pack(">I", len(perm)) + np.asarray(perm, dtype=">u2").tobytes()


def decode_perm(payload: bytes) -> np.ndarray:
    (count,) = _unpack(">I", payload)
    body = payload[4:]
    if len(body) != 2 * count:
        raise ProtocolError("permutation length mismatch")
    return np.frombuffer(body, dtype=">u2").astype(np.intp)


def encode_syndrome(descriptor: str, syndrome_enc: BitVec) -> bytes:
    desc = descriptor.encode()
    return (
        struct.pack(">H", len(desc))
        + desc
        + struct.pack(">I", syndrome_enc.n)
        + syndrome_enc.to_bytes()
    )


def decode_syndrome(payload: bytes) -> tuple[str, BitVec]:
    (dlen,) = _unpack(">H", payload)
    (bitlen,) = _unpack(">I", payload, 2 + dlen)
    try:
        desc = payload[2 : 2 + dlen].decode()
    except UnicodeDecodeError:
        raise ProtocolError("syndrome descriptor is not text") from None
    body = payload[6 + dlen :]
    if len(body) != (bitlen + 7) // 8:
        raise ProtocolError("syndrome length mismatch")
    return desc, BitVec.from_bytes(body, bitlen)


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


@dataclass(frozen=True)
class SiftResult:
    test_set: tuple[int, ...]
    key_set: tuple[int, ...] | None
    abort_reason: str | None


def _sift_masks(a, b, r) -> tuple[np.ndarray, np.ndarray]:
    """(test mask, key-candidate mask) over the announced positions.

    A test position lies in the test half R and the bases agree; a key
    candidate lies outside R and the receiver's basis matches the opposite
    of the announced one -- that opposite basis being what was actually
    sent there.  Null detections (symbol 2) match nothing.
    """
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    in_r = np.asarray(r, dtype=bool)
    seen = b != 2
    return in_r & (a == b) & seen, ~in_r & (1 - a == b) & seen


def sift(a_bits, b_symbols, r_mask, n: int, rng) -> SiftResult:
    """Split announced positions into the test set T (every test position)
    and the key set S (n key candidates sampled uniformly with the supplied
    rng).  Aborts when either set comes up short.
    """
    m = min(len(a_bits), len(b_symbols), len(r_mask))
    test_mask, key_mask = _sift_masks(a_bits[:m], b_symbols[:m], r_mask[:m])
    test = np.flatnonzero(test_mask).tolist()
    candidates = np.flatnonzero(key_mask).tolist()
    if len(test) < n or len(candidates) < n:
        return SiftResult(tuple(test), None, ABORT_SIFT)
    key_set = tuple(sorted(rng.sample(candidates, n)))
    return SiftResult(tuple(test), key_set, None)


def estimate_error(sender_bits, receiver_bits) -> float:
    """Fraction of positions that disagree; with all-zero sender bits this
    is plain one-counting, which is the adversarial-preparation variant."""
    if len(sender_bits) != len(receiver_bits):
        raise ValueError("test records differ in length")
    if len(sender_bits) == 0:
        raise ValueError("cannot estimate an error rate from nothing")
    sent = np.asarray(sender_bits, dtype=np.int64)
    mism = int(np.count_nonzero(sent != np.asarray(receiver_bits, dtype=np.int64)))
    return mism / len(sender_bits)


def _block_failure(n_block: int, radius: int, p: float, blocks: int) -> float:
    if blocks == 0:
        return 0.0
    q = 1.0 - sum(
        math.comb(n_block, w) * p**w * (1.0 - p) ** (n_block - w)
        for w in range(radius + 1)
    )
    return 1.0 - (1.0 - q) ** blocks


def choose_reconciliation_code(
    n: int, delta_obs: float, epsilon: float, target_fail: float
) -> LinearCode:
    """Cheapest shipped syndrome code whose estimated miss rate at error
    probability min(delta_obs + epsilon, 0.49) stays under the target.

    Candidates: no correction at all, single-error blocks of seven,
    odd-length majority blocks, and a verbatim fallback that always works.
    Leftover tail bits ride along verbatim in every block family.  Each
    candidate's syndrome length tau follows from its shape, so only the
    pick (the first of the cheapest, in the order above) is built.
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


def _sifted_word(bits: np.ndarray, key_set, perm) -> BitVec:
    """The sifted key: bits at the key positions, component i moved to
    position perm[i]."""
    return BitVec.from_array(bits[np.asarray(key_set, dtype=np.intp)]).permute(perm)


def _confirm_mac(confirm_key: BitVec, kappa: BitVec) -> bytes:
    material = confirm_key.to_bytes() + kappa.to_bytes()
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
        rate = self.key_rate_net
        return [
            run_id,
            self.n,
            self.epsilon,
            self.delta_max,
            "" if self.delta is None else repr(self.delta),
            "" if self.t_size is None else self.t_size,
            "" if self.s_size is None else self.s_size,
            "" if self.r is None else self.r,
            "" if self.tau is None else self.tau,
            "" if self.confirm_bits is None else self.confirm_bits,
            "" if rate is None else f"{rate:.6f}",
            self.abort_reason or "",
        ]


# ---------------------------------------------------------------------------
# party state machines


class _Session:
    """Shared plumbing: phase tracking, transcript, terminal handling.

    Each subclass maps every waiting phase to the one tag it accepts
    (`expects`).  `on_message` ends any other tag in `phase_order` before a
    handler sees it, records the peer's message, dispatches it to
    `_phase_<phase>`, and records what this side sends in reply.
    """

    role_name = "?"
    expects: dict[str, int] = {}

    def __init__(self, cfg: SessionConfig) -> None:
        self.cfg = cfg
        self.transcript = Transcript()
        self.stats = RunStats(n=cfg.n, epsilon=cfg.epsilon, delta_max=cfg.delta_max)
        self.final_key: BitVec | None = None
        self.abort_reason: str | None = None
        self.abort_detail: str | None = None
        self.done = False
        self.phase = "hello"
        self.pool = SecretPool(stream_seed(cfg.seed, "pool"), cfg.pool_capacity)

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def terminal(self) -> bool:
        return self.done or self.aborted

    def _record(self, sender: str, msgs: Sequence[WireMessage]) -> Sequence[WireMessage]:
        """Appends the announcements among `msgs` to the transcript."""
        for msg in msgs:
            if msg.tag in TRANSCRIPT_TAGS:
                self.transcript.append(TAG_NAMES[msg.tag], sender, msg.payload)
        return msgs

    def _fail(self, reason: str, announce: bool = True) -> list[WireMessage]:
        self.abort_reason = reason
        self.stats.abort_reason = reason
        self.final_key = None
        self.phase = "dead"
        return [WireMessage(TAG_ABORT, reason.encode())] if announce else []

    def on_message(self, msg: WireMessage) -> Sequence[WireMessage]:
        if self.terminal:
            return []
        return self._record(self.role_name, self._dispatch(msg))

    def _dispatch(self, msg: WireMessage) -> list[WireMessage]:
        if msg.tag != TAG_ABORT and msg.tag != self.expects.get(self.phase):
            return self._fail(ABORT_PHASE)
        self._record(self.peer_name, [msg])
        if msg.tag == TAG_ABORT:
            reason = msg.payload.decode(errors="replace") or ABORT_TRANSPORT
            return self._fail(reason, announce=False)
        try:
            return getattr(self, f"_phase_{self.phase}")(msg)
        except ProtocolError as err:
            self.abort_detail = f"{msg.name()}: {err}"
            return self._fail(ABORT_MALFORMED)


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
        self.b_symbols: np.ndarray | None = None
        self.g_bits: np.ndarray | None = None
        self.r_mask: np.ndarray | None = None
        self.test_set: tuple[int, ...] = ()
        self.key_set: tuple[int, ...] = ()
        self.perm: np.ndarray | None = None
        self.kappa: BitVec | None = None

    def start(self) -> list[WireMessage]:
        if check_basis_independence(self.cfg.source) > SOURCE_TOLERANCE:
            return self._record(self.role_name, self._fail(ABORT_SOURCE))
        self.phase = "hello"
        return [WireMessage(TAG_HELLO, encode_hello(self.cfg, ROLE_ALICE))]

    def _phase_hello(self, msg: WireMessage) -> Sequence[WireMessage]:
        if msg.payload != encode_hello(self.cfg, ROLE_BOB):
            return self._fail(ABORT_VERSION)
        return self._emit_signals()

    def _emit_signals(self) -> list[WireMessage]:
        cfg = self.cfg
        m = cfg.omega_size
        src = cfg.source
        rng = self._emit_rng
        self.a_bits = rng.integers(0, 2, size=m).astype(np.uint8)
        r_index = self._choice_rng.sample(range(m), m // 2)
        self.r_mask = np.zeros(m, dtype=np.uint8)
        self.r_mask[r_index] = 1
        # the basis actually keyed into the source: a for tested positions,
        # its opposite for the rest
        sent_basis = np.where(self.r_mask == 1, self.a_bits, 1 - self.a_bits)
        p_one = np.array([src.key_bit_probability(0), src.key_bit_probability(1)])
        self.g_bits = (rng.random(m) < p_one[sent_basis]).astype(np.uint8)
        lut = np.array(
            [[src.emit(a, g) for g in range(2)] for a in range(2)]
        )
        states = lut[sent_basis, self.g_bits]
        self.phase = "await_bases"
        return encode_qburst(states_to_bytes(states))

    def _phase_await_bases(self, msg: WireMessage) -> list[WireMessage]:
        b_symbols = decode_bases_b(msg.payload)
        if b_symbols.size != self.cfg.omega_size:
            return self._fail(ABORT_PHASE)
        self.b_symbols = b_symbols
        # T is now public knowledge; S arrives from the peer next
        test_mask, _ = _sift_masks(self.a_bits, b_symbols, self.r_mask)
        self.test_set = tuple(np.flatnonzero(test_mask).tolist())
        self.stats.t_size = len(self.test_set)
        self.phase = "await_subset"
        return [WireMessage(TAG_BASES_A_AND_R, encode_bases_a_and_r(self.a_bits, self.r_mask))]

    def _phase_await_subset(self, msg: WireMessage) -> list[WireMessage]:
        key_idx = np.flatnonzero(decode_bits(msg.payload))
        _, key_mask = _sift_masks(self.a_bits, self.b_symbols, self.r_mask)
        ok = (
            key_idx.size == self.cfg.n
            and key_idx[-1] < key_mask.size
            and bool(key_mask[key_idx].all())
        )
        if len(self.test_set) < self.cfg.n or not ok:
            return self._fail(ABORT_SIFT)
        self.key_set = tuple(key_idx.tolist())
        self.stats.s_size = len(self.key_set)
        g_test = self.g_bits[np.asarray(self.test_set, dtype=np.intp)]
        self.phase = "await_delta"
        return [WireMessage(TAG_TEST_BITS, encode_bits(g_test))]

    def _phase_await_delta(self, msg: WireMessage) -> list[WireMessage]:
        delta, proceed = decode_delta(msg.payload)
        self.stats.delta = delta
        if not proceed:
            return self._fail(ABORT_DELTA, announce=False)
        if not 0.0 <= delta <= self.cfg.delta_max:  # no verdict Bob could reach
            return self._fail(ABORT_PHASE)
        self.phase = "await_perm"
        return []

    def _phase_await_perm(self, msg: WireMessage) -> list[WireMessage]:
        perm = decode_perm(msg.payload)
        if not is_permutation(perm, self.cfg.n):
            return self._fail(ABORT_PHASE)
        self.perm = perm
        self.phase = "await_code"
        return []

    def _phase_await_code(self, msg: WireMessage) -> list[WireMessage]:
        code = self.cfg.pa_code
        if msg.payload != code.descriptor().encode():
            return self._fail(ABORT_PHASE)
        self.stats.r = code.k
        self.stats.code_descriptor = code.descriptor()
        self.phase = "await_syndrome"
        return []

    def _phase_await_syndrome(self, msg: WireMessage) -> list[WireMessage]:
        try:
            desc, enc = decode_syndrome(msg.payload)
        except ProtocolError:
            return self._fail(ABORT_PHASE)
        rec = choose_reconciliation_code(
            self.cfg.n, self.stats.delta, self.cfg.epsilon, self.cfg.rec_target_fail
        )
        if desc != rec.descriptor() or enc.n != rec.n - rec.k:
            return self._fail(ABORT_PHASE)
        self.stats.rec_descriptor = desc
        self.stats.tau = enc.n
        try:
            otp = self.pool.take(enc.n)
        except PoolExhausted:
            return self._fail(ABORT_POOL)
        target = enc + otp
        word = _sifted_word(self.g_bits, self.key_set, self.perm)
        try:
            self.kappa = rec.correct_with_syndrome(word, target)
        except DecodingFailure:
            return self._fail(ABORT_RECONCILE)
        self.phase = "await_confirm"
        return []

    def _phase_await_confirm(self, msg: WireMessage) -> list[WireMessage]:
        their_mac = decode_confirm(msg.payload)
        try:
            confirm_key = self.pool.take(CONFIRM_KEY_BITS)
        except PoolExhausted:
            return self._fail(ABORT_POOL)
        self.stats.confirm_bits = CONFIRM_KEY_BITS
        if _confirm_mac(confirm_key, self.kappa) != their_mac:
            return self._fail(ABORT_CONFIRM)
        self.final_key = self.cfg.pa_code.coset_key(self.kappa)
        self.done = True
        self.phase = "finished"
        return [WireMessage(TAG_DONE, b"")]


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
        self._omega = cfg.omega_size
        self._chunks: list[bytes] = []
        self._received = 0
        self.b_symbols: np.ndarray | None = None
        self.h_bits: np.ndarray | None = None
        self.test_set: tuple[int, ...] = ()
        self.key_set: tuple[int, ...] = ()
        self.kappa: BitVec | None = None
        # released on DONE: Alice may abort silently on a flipped DELTA_DECISION
        self._pending_key: BitVec | None = None

    def start(self) -> list[WireMessage]:
        return []

    def _phase_hello(self, msg: WireMessage) -> list[WireMessage]:
        if msg.payload != encode_hello(self.cfg, ROLE_ALICE):
            return self._fail(ABORT_VERSION)
        self.phase = "collect"
        return [WireMessage(TAG_HELLO, encode_hello(self.cfg, ROLE_BOB))]

    def _phase_collect(self, msg: WireMessage) -> list[WireMessage]:
        """Takes the burst chunk by chunk, in order; any chunk that is not
        the next non-empty run of whole states of this session's burst is
        out of order."""
        if len(msg.payload) < BURST_HEAD.size:
            return self._fail(ABORT_PHASE)
        first, total = BURST_HEAD.unpack_from(msg.payload)
        body = msg.payload[BURST_HEAD.size :]
        count, partial = divmod(len(body), STATE_BYTES)
        if (
            partial
            or count == 0
            or first != self._received
            or total != self._omega
            or first + count > total
        ):
            return self._fail(ABORT_PHASE)
        self._chunks.append(body)
        self._received += count
        if self._received < self._omega:
            return []
        return self._measure_all()

    def _measure_all(self) -> list[WireMessage]:
        """Realizes the configured channel on the whole burst, then measures."""
        m = self._omega
        cfg = self.cfg
        states = states_from_bytes(b"".join(self._chunks))
        self._chunks = []  # every state is in `states` now
        eve_rng = np.random.default_rng(stream_seed(cfg.seed, "eve|channel"))
        states = cfg.channel.apply_batch(states, eve_rng)
        rng = self._quantum_rng
        bases = rng.integers(0, 2, size=m).astype(np.uint8)
        outcomes, detected = cfg.detector.measure_batch(states, bases, rng)
        self.h_bits = outcomes
        self.b_symbols = np.where(detected, bases, np.uint8(2)).astype(np.uint8)
        self.phase = "await_bases_a"
        return [WireMessage(TAG_BASES_B, encode_bases_b(self.b_symbols))]

    def _phase_await_bases_a(self, msg: WireMessage) -> list[WireMessage]:
        a_bits, r_mask = decode_bases_a_and_r(msg.payload)
        if a_bits.size != self.cfg.omega_size:
            return self._fail(ABORT_PHASE)
        result = sift(a_bits, self.b_symbols, r_mask, self.cfg.n, self._choice_rng)
        self.stats.t_size = len(result.test_set)
        if result.abort_reason:
            return self._fail(result.abort_reason)
        self.test_set = result.test_set
        self.key_set = result.key_set
        self.stats.s_size = len(result.key_set)
        mask = np.zeros(self.cfg.omega_size, dtype=np.uint8)
        mask[list(result.key_set)] = 1
        self.phase = "await_test_bits"
        return [WireMessage(TAG_SUBSET_S, encode_bits(mask))]

    def _phase_await_test_bits(self, msg: WireMessage) -> list[WireMessage]:
        g_test = decode_bits(msg.payload)
        if g_test.size != len(self.test_set):
            return self._fail(ABORT_PHASE)
        h_test = self.h_bits[np.asarray(self.test_set, dtype=np.intp)]
        delta = estimate_error(g_test, h_test)
        self.stats.delta = delta
        proceed = delta <= self.cfg.delta_max
        out = [WireMessage(TAG_DELTA_DECISION, encode_delta(delta, proceed))]
        if not proceed:
            self._fail(ABORT_DELTA, announce=False)
            return out
        return out + self._announce_key_material(delta)

    def _announce_key_material(self, delta: float) -> list[WireMessage]:
        cfg = self.cfg
        perm = list(range(cfg.n))
        self._choice_rng.shuffle(perm)
        perm = np.array(perm, dtype=np.intp)
        pa = cfg.pa_code
        self.stats.r = pa.k
        self.stats.code_descriptor = pa.descriptor()
        out = [
            WireMessage(TAG_PERM, encode_perm(perm)),
            WireMessage(TAG_CODE, pa.descriptor().encode()),
        ]

        self.kappa = _sifted_word(self.h_bits, self.key_set, perm)
        rec = choose_reconciliation_code(
            cfg.n, delta, cfg.epsilon, cfg.rec_target_fail
        )
        syndrome = rec.syndrome(self.kappa)
        self.stats.rec_descriptor = rec.descriptor()
        self.stats.tau = syndrome.n
        try:
            otp = self.pool.take(syndrome.n)
            confirm_key = self.pool.take(CONFIRM_KEY_BITS)
        except PoolExhausted:
            return out + self._fail(ABORT_POOL)
        self.stats.confirm_bits = CONFIRM_KEY_BITS
        out += [
            WireMessage(TAG_SYNDROME_ENC, encode_syndrome(rec.descriptor(), syndrome + otp)),
            WireMessage(TAG_KEY_CONFIRM, encode_confirm(_confirm_mac(confirm_key, self.kappa))),
        ]
        self._pending_key = pa.coset_key(self.kappa)
        self.phase = "await_done"
        return out

    def _phase_await_done(self, msg: WireMessage) -> list[WireMessage]:
        self.final_key = self._pending_key
        self.done = True
        self.phase = "finished"
        return []


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
    for party in (alice, bob):
        if not party.terminal:
            party._fail(ABORT_TRANSPORT, announce=False)
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


# ---------------------------------------------------------------------------
# adversarial-preparation variant, sampled classically


def run_protocol3(
    attack: np.ndarray,
    n: int,
    code: LinearCode,
    *,
    epsilon: float = 0.05,
    delta_max: float = 0.109,
    seed: int = 0,
) -> tuple[BitVec | None, str | None, float | None]:
    """Classical sampling of the adversary-prepares variant: fixed sender
    bits, Z-basis verification on the tested half, X-basis key generation
    on the rest.  Returns (final key or None, abort reason, observed rate).
    """
    attack = np.asarray(attack, dtype=np.complex128)
    chi = attack[:, 0]
    rho = np.outer(chi, chi.conj()).reshape(2, 2, 2, 2)
    sigma = np.einsum("asat->st", rho)  # receiver's qubit
    p_z = float(sigma[1, 1].real)
    p_x = float(0.5 * (1.0 - 2.0 * sigma[0, 1].real))

    rng = np.random.default_rng(stream_seed(seed, "protocol3"))
    choice = random.Random(stream_seed(seed, "protocol3|choice"))
    m = 2 * math.ceil(2.0 * n * (1.0 + epsilon))
    r_mask = np.zeros(m, dtype=bool)
    r_mask[choice.sample(range(m), m // 2)] = True
    bases = rng.integers(0, 2, size=m)
    errs = rng.random(m) < np.where(bases == 0, p_z, p_x)

    # the sender's bits are all zero: Z tests, X keys
    res = sift(np.zeros(m, dtype=np.int64), bases, r_mask, n, choice)
    if res.abort_reason:
        return None, res.abort_reason, None
    delta = float(np.mean(errs[np.asarray(res.test_set, dtype=np.intp)]))
    if delta > delta_max:
        return None, ABORT_DELTA, delta
    perm = list(range(n))
    choice.shuffle(perm)
    kappa = _sifted_word(errs, res.key_set, perm)
    if code.n != n:
        raise ValueError("code length must match the key size")
    return code.coset_key(kappa), None, delta
