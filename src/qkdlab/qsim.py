"""Dense quantum simulation of the key-extraction circuit and small audits.

Qubit convention: bit j of a basis-state index is the Z-outcome of qubit j,
so qubit 0 is the least significant index bit, and a basis-state index is
the packed int of the Z-outcomes (bit j = component j, as in `gf2`).
Registers are laid out low-to-high: the N signal qubits S first, then the
r-qubit key ancilla Q, then (inside the audit) one adversary ancilla per
signal.

Everything here is exact dense linear algebra, capped at a size where every
interesting check can be exhaustive.  The key circuit is a pure Z-basis
permutation and is stored as one, never as a dense matrix.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import binary_entropy
from .codes import CorrectableSet, LinearCode

SIM_QUBIT_LIMIT = 12
_ENTROPY_CUTOFF = 1e-12


def _shannon_bits(ps) -> float:
    total = 0.0
    for p in ps:
        if p > _ENTROPY_CUTOFF:
            total -= p * math.log2(p)
    return total


def qubit_map_indices(n: int, mapping) -> np.ndarray:
    """Index table for the relabeling "qubit j becomes qubit mapping[j]".

    out[i] is the basis index whose bit mapping[j] equals bit j of i.
    """
    if sorted(mapping) != list(range(n)):
        raise ValueError("mapping must be a permutation of all qubits")
    idx = np.arange(1 << n, dtype=np.int64)
    out = np.zeros_like(idx)
    for j, target in enumerate(mapping):
        out |= ((idx >> j) & 1) << target
    return out


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
# symmetrization and the correctable projection


def _signal_permutation_indices(n_total: int, n_s: int, pi) -> np.ndarray:
    """qubit_map_indices(n_total, [*pi, n_s, ..., n_total - 1]), from the 2^n_s table."""
    sig = (1 << n_s) - 1
    table = qubit_map_indices(n_s, pi)
    idx = np.arange(1 << n_total, dtype=np.int64)
    return table[idx & sig] | (idx & ~sig)


def _member_table(corr: CorrectableSet) -> np.ndarray:
    idx = np.arange(1 << corr.n, dtype=np.int64)
    return np.bitwise_count(idx).astype(np.int64) <= corr.max_weight


def project_correctable(
    rho_s: DensityMatrix, corr: CorrectableSet
) -> tuple[DensityMatrix, float]:
    """Project the signal factor onto Z-basis patterns in the correctable set.

    The signal register is the low corr.n qubits; anything above it rides
    along untouched.  Returns the renormalized state and eta, one minus the
    weight the projector captured.  The fidelity of the result to the input
    equals that captured weight exactly.
    """
    if corr.n > rho_s.n:
        raise ValueError("correctable set larger than the state")
    dim = rho_s.mat.shape[0]
    mask = _member_table(corr)[np.arange(dim) & ((1 << corr.n) - 1)]
    kept = float(np.sum(rho_s.mat.diagonal().real[mask]))
    if kept <= 1e-14:
        raise ValueError("state has no support on the correctable subspace")
    cut = np.where(mask, 1.0, 0.0)
    projected = rho_s.mat * np.outer(cut, cut)
    return DensityMatrix(projected / kept, validate=False), 1.0 - kept


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
    p = min(max(p, 0.0), 1.0)
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
    return min(total, 1.0)


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

    Pipeline: product state -> permutation symmetrization (classical label,
    one pure block per permutation) -> correctable projection for eta ->
    key circuit -> reduce to Q.  Reports the measured fidelities and
    entropies alongside the bound values they are compared against.
    """
    n = n_signals
    r = code.k
    if code.n != n:
        raise ValueError(f"code length {code.n} != signal count {n}")
    if n > 4:
        raise ValueError("audit is exact only up to 4 signals")
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
    p_z = float(abs(chi[1]) ** 2 + abs(chi[3]) ** 2)
    pass_prob = _binomial_tail_at_most(test_size, p_z, int(delta_max * test_size))
    if pass_prob <= 0.0:
        raise ValueError("verification test passes with probability numerically zero")

    # Joint pure state: S bits 0..n-1, Q bits n..n+r-1, ancillas above.
    total = 2 * n + r
    idx = np.arange(1 << total, dtype=np.int64)
    amps = np.full(1 << total, (1 << r) ** -0.5, dtype=np.complex128)
    for i in range(n):
        s_bit = (idx >> i) & 1
        e_bit = (idx >> (n + r + i)) & 1
        amps = amps * chi[s_bit + 2 * e_bit]

    member = _member_table(code.correctable_set())
    mask = member[idx & ((1 << n) - 1)]
    circuit = build_key_circuit(code)
    low = idx & ((1 << (n + r)) - 1)
    high_mask = ((1 << total) - 1) ^ ((1 << (n + r)) - 1)
    ext_perm = circuit.perm[low] | (idx & high_mask)

    rho_q_actual = np.zeros((1 << r, 1 << r), dtype=np.complex128)
    rho_q_projected = np.zeros_like(rho_q_actual)
    kept_total = 0.0
    blocks = list(itertools.permutations(range(n)))
    for pi in blocks:
        relabel = _signal_permutation_indices(total, n, pi)
        block = np.empty_like(amps)
        block[relabel] = amps
        kept_vec = block * mask
        kept_total += float(np.vdot(kept_vec, kept_vec).real)

        for vec, acc in ((block, rho_q_actual), (kept_vec, rho_q_projected)):
            out = np.empty_like(vec)
            out[ext_perm] = vec
            view = out.reshape(1 << n, 1 << r, 1 << n)  # ancillas, Q, S
            m = view.transpose(1, 0, 2).reshape(1 << r, -1)
            acc += m @ m.conj().T

    kept_total /= len(blocks)
    eta = min(max(1.0 - kept_total, 0.0), 1.0)  # rounding can leave it just outside
    if kept_total <= 1e-14:
        raise ValueError("state has no support on the correctable subspace")
    rho_q_actual /= len(blocks)
    rho_q_projected /= len(blocks) * kept_total

    rho_q = DensityMatrix(rho_q_actual, validate=False)
    q0 = float(rho_q_actual[0, 0].real)
    q0_proj = float(rho_q_projected[0, 0].real)
    walsh = _walsh_signs(r) / math.sqrt(1 << r)
    p_y = np.clip(np.real(np.diag(walsh @ rho_q_actual @ walsh)), 0.0, None)
    key_entropy = _shannon_bits(p_y)
    uniformity = float(np.sum(np.sqrt(p_y)) ** 2) / (1 << r)
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
        q0_fidelity=q0,
        q0_projected=q0_proj,
        entropy_q=von_neumann_entropy(rho_q),
        entropy_bound=bound,
        entropy_bound_valid=eta <= 0.5,
        key_distribution=tuple(float(p) for p in p_y),
        key_entropy=key_entropy,
        key_entropy_floor=r * (1.0 - 2.0 * eta),
        uniformity_fidelity=uniformity,
        uniformity_floor=1.0 - eta,
        vacuous=(eta > 0.5) or (bound >= r),
        rho_q=rho_q_actual,
    )
