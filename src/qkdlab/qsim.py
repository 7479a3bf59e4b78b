"""Dense quantum simulation of the key-extraction circuit and small audits.

Qubit convention: bit j of a basis-state index is the Z-outcome of qubit j,
so qubit 0 is the least significant index bit, and a basis-state index is
the packed int of the Z-outcomes (bit j = component j, as in `gf2`).
Registers are laid out low-to-high: the N signal qubits S first, then the
r-qubit key ancilla Q, then (inside the audit) one adversary ancilla per
signal.

Everything here is exact dense linear algebra, capped at a size where every
interesting check can be exhaustive.  The key circuit is a pure Z-basis
permutation and is stored as one, never as a dense matrix.  The audit's
adversaries prepare every signal alike and independently, so each
permutation of the signals gives the same key-side state: the audit
computes that state once, where the proof averages over all n! of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import binary_entropy
from .codes import LinearCode

SIM_QUBIT_LIMIT = 12
MAX_TEST_SIZE = 1 << 24  # the test's pass probability sums up to this many terms
_ENTROPY_CUTOFF = 1e-12


def _unit(x: float) -> float:
    """x clamped to [0, 1]: a probability or fidelity that rounding left
    just outside."""
    return min(max(x, 0.0), 1.0)


def _shannon_bits(ps) -> float:
    """Entropy in bits, never below zero (a p of 1 + 2e-16 adds -3e-16)."""
    total = 0.0
    for p in ps:
        if p > _ENTROPY_CUTOFF:
            total -= p * math.log2(p)
    return max(total, 0.0)


class StateVector:
    """Pure state of n qubits; bit j of the index is qubit j's Z value."""

    def __init__(self, amps, validate: bool = True) -> None:
        a = np.asarray(amps, dtype=np.complex128).reshape(-1)
        n = a.size.bit_length() - 1
        if 1 << n != a.size:
            raise ValueError("amplitude count must be a power of two")
        if validate and abs(np.vdot(a, a).real - 1.0) > 1e-10:
            raise ValueError("state is not normalized")
        self.n = n
        self.amps = a

    def apply_permutation(self, perm: np.ndarray) -> StateVector:
        """The unitary |i> -> |perm[i]>."""
        out = np.empty_like(self.amps)
        out[perm] = self.amps
        return StateVector(out, validate=False)

    def density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amps, self.amps.conj()), validate=False)


class DensityMatrix:
    """Mixed state of n qubits, validated Hermitian, unit-trace, PSD."""

    def __init__(self, mat, validate: bool = True) -> None:
        m = np.asarray(mat, dtype=np.complex128)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("density matrix must be square")
        n = m.shape[0].bit_length() - 1
        if 1 << n != m.shape[0]:
            raise ValueError("dimension must be a power of two")
        if validate:
            if np.max(np.abs(m - m.conj().T)) > 1e-10:
                raise ValueError("not Hermitian")
            if abs(np.trace(m).real - 1.0) > 1e-10:
                raise ValueError("trace is not one")
            if np.linalg.eigvalsh(m).min() < -1e-9:
                raise ValueError("not positive semidefinite")
        self.n = n
        self.mat = m


def _clean_spectrum(lam: np.ndarray) -> np.ndarray:
    """Clip negatives and zero out round-off dust; sqrt amplifies anything
    at the 1e-16 level into visible error otherwise."""
    lam = np.clip(lam, 0.0, None)
    top = lam.max(initial=0.0)
    if top > 0.0:
        lam[lam < top * 1e-12] = 0.0
    return lam


def fidelity(a: DensityMatrix, b: DensityMatrix) -> float:
    """Squared Uhlmann fidelity (Tr sqrt(sqrt(a) b sqrt(a)))^2."""
    evals, evecs = np.linalg.eigh(a.mat)
    root = (evecs * np.sqrt(_clean_spectrum(evals))) @ evecs.conj().T
    inner = root @ b.mat @ root
    lam = _clean_spectrum(np.linalg.eigvalsh(inner))
    return float(np.sum(np.sqrt(lam)) ** 2)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Spectral entropy in bits, with tiny eigenvalues cut at 1e-12."""
    lam = np.clip(np.linalg.eigvalsh(rho.mat), 0.0, None)
    return _shannon_bits(lam)


# ---------------------------------------------------------------------------
# the key circuit


class KeyCircuit:
    """Z-basis permutation computing the coset key into an r-qubit ancilla.

    Register layout: signal qubits S at bits 0..N-1, key ancilla Q at bits
    N..N+r-1.  The first stage adds a message-indexed codeword onto S
    (controlled on Q); the second adds the decoded message of S onto Q.
    Running it on |kappa>_X (x) |0>_X and measuring Q in the X basis yields
    the coset key of kappa; running it on a correctable Z-basis pattern with
    Q in |0>_X leaves Q exactly in |0>_Z.
    """

    def __init__(self, code: LinearCode) -> None:
        n, r = code.n, code.k
        if n + r > SIM_QUBIT_LIMIT:
            raise ValueError(
                f"circuit needs {n + r} qubits, over the {SIM_QUBIT_LIMIT} limit"
            )
        idx = np.arange(1 << (n + r), dtype=np.int64)
        x = idx & ((1 << n) - 1)
        y = idx >> n
        cw = np.array(code.codewords(), dtype=np.int64)
        self.perm_u1 = (x ^ cw[y]) | (y << n)
        fvals = np.array([code._message(v) for v in range(1 << n)], dtype=np.int64)
        self.perm_u2 = x | ((y ^ fvals[x]) << n)
        self.perm = self.perm_u2[self.perm_u1]
        self.code = code
        self.n_signal = n
        self.r = r
        self.n_qubits = n + r


def build_key_circuit(code: LinearCode) -> KeyCircuit:
    return KeyCircuit(code)


def _walsh_signs(n: int) -> np.ndarray:
    idx = np.arange(1 << n, dtype=np.int64)
    par = np.bitwise_count(np.bitwise_and.outer(idx, idx)).astype(np.int64) & 1
    return (1.0 - 2.0 * par).astype(np.float64)


def _check_pattern(x: int, n: int) -> None:
    if x < 0 or x >> n:
        raise ValueError(f"pattern {x:#x} does not fit in {n} signal bits")


def extract_final_key(circuit: KeyCircuit, kappa_sif: int) -> int:
    """Run the circuit on |kappa>_X (x) |0>_X and read Q in the X basis;
    kappa and the r-bit key are packed ints.

    The outcome is deterministic; anything short of probability one within
    1e-10 is an invariant violation and raises.
    """
    n, r = circuit.n_signal, circuit.r
    _check_pattern(kappa_sif, n)
    dim = 1 << (n + r)
    idx = np.arange(dim, dtype=np.int64)
    signs = 1.0 - 2.0 * (np.bitwise_count(idx & kappa_sif).astype(np.int64) & 1)
    psi = StateVector(signs.astype(np.complex128) / math.sqrt(dim), validate=False)
    psi = psi.apply_permutation(circuit.perm)
    view = psi.amps.reshape(1 << r, 1 << n)  # axis 0: Q bits, axis 1: S bits
    x_amps = (_walsh_signs(r) / math.sqrt(1 << r)) @ view
    probs = np.sum(np.abs(x_amps) ** 2, axis=1)
    winner = int(np.argmax(probs))
    if abs(probs[winner] - 1.0) > 1e-10:
        raise RuntimeError(
            f"key readout not deterministic: best outcome has p={probs[winner]!r}"
        )
    return winner


def error_reversal_check(circuit: KeyCircuit, x: int) -> float:
    """Probability that Q lands in |0>_Z after running on |x>_Z (x) |0>_X,
    for a packed n-bit pattern x."""
    n, r = circuit.n_signal, circuit.r
    _check_pattern(x, n)
    dim = 1 << (n + r)
    amps = np.zeros(dim, dtype=np.complex128)
    for y in range(1 << r):
        amps[x | (y << n)] = 1.0 / math.sqrt(1 << r)
    psi = StateVector(amps, validate=False).apply_permutation(circuit.perm)
    view = psi.amps.reshape(1 << r, 1 << n)
    return float(np.sum(np.abs(view[0]) ** 2))


# ---------------------------------------------------------------------------
# adversary preparations for the audit


def identity_attack() -> np.ndarray:
    """Hands Bob the noiseless signal; the ancilla stays blank."""
    return np.eye(4, dtype=np.complex128)


def rotation_attack(theta: float) -> np.ndarray:
    """Tilts each signal qubit by a Y-rotation; no entanglement kept."""
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    ry = np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.kron(np.eye(2, dtype=np.complex128), ry)


def _copy_gate() -> np.ndarray:
    """Signal-controlled flip of the ancilla (index layout: s + 2e)."""
    cnot = np.zeros((4, 4), dtype=np.complex128)
    for s_bit in range(2):
        for e_bit in range(2):
            cnot[s_bit | ((e_bit ^ s_bit) << 1), s_bit | (e_bit << 1)] = 1.0
    return cnot


def swap_attack() -> np.ndarray:
    """Correlates the ancilla with everything Bob gets (a Bell pair per
    signal), the closest preparation-side analogue of keeping the qubit."""
    h = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    return _copy_gate() @ np.kron(np.eye(2, dtype=np.complex128), h)


def entangle_attack(alpha: float, beta: float) -> np.ndarray:
    """Partial entanglement: tilt by alpha, copy into the ancilla, tilt by beta."""
    return rotation_attack(beta) @ _copy_gate() @ rotation_attack(alpha)


# ---------------------------------------------------------------------------
# the small-N audit


@dataclass
class SecurityReport:
    """Everything the audit measured, plus the bound values it compares to.

    Scalars only; assertions about which bounds must hold in which regime
    belong to the caller.
    """

    n_signals: int
    code_descriptor: str
    r: int
    per_signal_z_error: float
    test_size: int
    delta_max: float
    test_pass_probability: float
    abort_expected: bool
    eta: float
    q0_fidelity: float
    q0_projected: float
    entropy_q: float
    entropy_bound: float
    entropy_bound_valid: bool
    key_distribution: tuple[float, ...]
    key_entropy: float
    key_entropy_floor: float
    uniformity_fidelity: float
    uniformity_floor: float
    vacuous: bool
    rho_q: np.ndarray = field(repr=False, compare=False, default=None)

    def to_json(self) -> str:
        payload = {
            k: v
            for k, v in self.__dict__.items()
            if k != "rho_q"
        }
        payload["key_distribution"] = list(self.key_distribution)
        return json.dumps(payload, indent=2)


def _binomial_tail_at_most(trials: int, p: float, cutoff: int) -> float:
    """P[Binom(trials, p) <= cutoff].  Each term is taken through its
    logarithm, so none overflows at any size; p = 0 and p = 1 are point
    masses, and the sum is clamped to [0, 1] against rounding."""
    p = _unit(p)
    if p in (0.0, 1.0):  # all mass at 0 or at `trials`
        return float(cutoff >= (0 if p == 0.0 else trials))
    log_p, log_q = math.log(p), math.log1p(-p)
    lead = math.lgamma(trials + 1)
    total = math.fsum(
        math.exp(
            lead
            - math.lgamma(j + 1)
            - math.lgamma(trials - j + 1)
            + j * log_p
            + (trials - j) * log_q
        )
        for j in range(min(cutoff, trials) + 1)
    )
    return _unit(total)


def _key_side_states(chi: np.ndarray, code: LinearCode) -> tuple[np.ndarray, np.ndarray, float]:
    """rho_Q after the key circuit, the same for the part of the prepared
    state inside the correctable set (not renormalized), and that part's
    weight.

    Each (signal, ancilla) pair is in chi, index s + 2e; Q starts in
    |0>_X.  The joint state is a (2^n, 2^(n+r)) array: rows are the
    adversary's ancillas, columns the basis index of S (low bits) and Q.
    """
    n, r = code.n, code.k
    pair = chi.reshape(2, 2)  # [e, s]
    prepared = pair  # [ancillas, S]: the product of n pairs
    for _ in range(n - 1):  # np.kron(prepared, pair), without its overhead
        prepared = (prepared[:, None, :, None] * pair[None, :, None, :]).reshape(
            2 * len(prepared), -1
        )
    s_weight = np.bitwise_count(np.arange(1 << n))
    kept = prepared * (s_weight <= code.correctable_set().max_weight)
    perm = build_key_circuit(code).perm
    states = []
    for signals in (prepared, kept):
        # Q in |0>_X: each ancilla row holds its S amplitudes once per Q value
        joint = np.repeat(signals, 1 << r, axis=0).reshape(1 << n, -1) * (1 << r) ** -0.5
        out = np.empty_like(joint)
        out[:, perm] = joint
        m = out.reshape(1 << n, 1 << r, 1 << n).transpose(1, 0, 2).reshape(1 << r, -1)
        states.append(m @ m.conj().T)
    return states[0], states[1], float(np.vdot(kept, kept).real)


def audit_protocol3(
    attack: np.ndarray,
    n_signals: int,
    code: LinearCode,
    *,
    delta_max: float = 0.11,
    test_size: int = 32,
) -> SecurityReport:
    """Exact end-to-end audit of one prepared-qubit adversary strategy.

    The adversary prepares each of Bob's qubits (plus a private one-qubit
    ancilla) in attack @ |00>, independently per signal.  Because the
    preparation is a product, conditioning on the Z-basis verification
    record over disjoint test positions leaves the key-side state untouched;
    the audit therefore computes the pass probability of the test in closed
    form and proceeds with the key-side state as prepared.

    The proof averages over permutations of the signals; for this state
    every permutation block equals the identity block, so the audit
    computes that one.  Permuting the S qubits of a pairwise product state
    equals the inverse permutation of the ancilla qubits E.  That
    permutation commutes with the key circuit, which acts on S and Q only,
    and it drops out of the trace over E.  The correctable mask depends
    only on the S weight, so the projected block and its weight are
    unchanged too.

    Pipeline: prepared state -> correctable projection for eta -> key
    circuit -> reduce to Q.  Reports the measured fidelities and entropies,
    each clamped to its range against rounding, alongside the bound values
    they are compared against.
    """
    n = n_signals
    r = code.k
    if code.n != n:
        raise ValueError(f"code length {code.n} != signal count {n}")
    if n > 4:
        raise ValueError("audit is exact only up to 4 signals")
    if not 1 <= test_size <= MAX_TEST_SIZE:
        raise ValueError(f"test_size must sit in [1, 2^24], got {test_size}")
    if not math.isfinite(delta_max):
        raise ValueError(f"delta_max must be finite, got {delta_max}")
    if 2 * n + r > SIM_QUBIT_LIMIT:
        raise ValueError(f"audit needs {2 * n + r} qubits, over the limit")
    attack = np.asarray(attack, dtype=np.complex128)
    if (
        attack.shape != (4, 4)
        or not np.isfinite(attack).all()
        or np.max(np.abs(attack @ attack.conj().T - np.eye(4))) > 1e-10
    ):
        raise ValueError("attack must be a 4x4 unitary with finite entries")

    chi = attack[:, 0]  # per-signal (signal, ancilla) state, index s + 2e
    p_z = _unit(float(abs(chi[1]) ** 2 + abs(chi[3]) ** 2))
    pass_prob = _binomial_tail_at_most(test_size, p_z, int(delta_max * test_size))
    if pass_prob <= 0.0:
        raise ValueError("verification test passes with probability numerically zero")

    rho_q_actual, rho_q_projected, kept = _key_side_states(chi, code)
    if kept <= 1e-14:
        raise ValueError("state has no support on the correctable subspace")
    eta = _unit(1.0 - kept)
    rho_q_projected /= kept

    walsh = _walsh_signs(r) / math.sqrt(1 << r)
    p_y = np.clip(np.real(np.diag(walsh @ rho_q_actual @ walsh)), 0.0, 1.0)
    bound = binary_entropy(eta) + r * eta if eta <= 0.5 else float("inf")

    return SecurityReport(
        n_signals=n,
        code_descriptor=code.descriptor(),
        r=r,
        per_signal_z_error=p_z,
        test_size=test_size,
        delta_max=delta_max,
        test_pass_probability=pass_prob,
        abort_expected=p_z > delta_max,
        eta=eta,
        q0_fidelity=_unit(float(rho_q_actual[0, 0].real)),
        q0_projected=_unit(float(rho_q_projected[0, 0].real)),
        entropy_q=von_neumann_entropy(DensityMatrix(rho_q_actual, validate=False)),
        entropy_bound=bound,
        entropy_bound_valid=eta <= 0.5,
        key_distribution=tuple(float(p) for p in p_y),
        key_entropy=_shannon_bits(p_y),
        key_entropy_floor=r * (1.0 - 2.0 * eta),
        uniformity_fidelity=_unit(float(np.sum(np.sqrt(p_y)) ** 2) / (1 << r)),
        uniformity_floor=1.0 - eta,
        vacuous=(eta > 0.5) or (bound >= r),
        rho_q=rho_q_actual,
    )
