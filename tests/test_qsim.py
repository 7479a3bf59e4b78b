"""Simulator checks: exact circuit behaviour against classical oracles."""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdlab import qsim
from qkdlab.bounds import binary_entropy
from qkdlab.cli import audit_checks
from qkdlab.codes import (
    CODE_FAMILIES,
    CorrectableSet,
    code_from_descriptor,
    hamming,
    repetition,
)
from qkdlab.gf2 import bits_to_int, int_to_bits
from qkdlab.qsim import (
    DensityMatrix,
    StateVector,
    _walsh_signs,
    audit_protocol3,
    build_key_circuit,
    entangle_attack,
    error_reversal_check,
    extract_final_key,
    fidelity,
    identity_attack,
    rotation_attack,
    swap_attack,
    von_neumann_entropy,
)

RNG = np.random.default_rng(7)


def random_density(n: int, rank: int = 2) -> DensityMatrix:
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=np.complex128)
    for _ in range(rank):
        v = RNG.normal(size=dim) + 1j * RNG.normal(size=dim)
        w = RNG.random()
        m += w * np.outer(v, v.conj())
    m /= np.trace(m).real
    return DensityMatrix(m)


# -- dense oracles -------------------------------------------------------------
# The audit never builds a density matrix of the signals and computes one
# permutation block; these rebuild its pipeline densely, and the retired
# loop over all n! blocks, so the checks below have independent references.


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


def signal_permutation_indices(n_total: int, n_s: int, pi) -> np.ndarray:
    """qubit_map_indices(n_total, [*pi, n_s, ..., n_total - 1]), from the 2^n_s table."""
    sig = (1 << n_s) - 1
    table = qubit_map_indices(n_s, pi)
    idx = np.arange(1 << n_total, dtype=np.int64)
    return table[idx & sig] | (idx & ~sig)


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
    weight = np.bitwise_count(np.arange(dim) & ((1 << corr.n) - 1))
    mask = weight <= corr.max_weight
    kept = float(np.sum(rho_s.mat.diagonal().real[mask]))
    if kept <= 1e-14:
        raise ValueError("state has no support on the correctable subspace")
    cut = np.where(mask, 1.0, 0.0)
    projected = rho_s.mat * np.outer(cut, cut)
    return DensityMatrix(projected / kept, validate=False), 1.0 - kept


def apply_permutation(rho: DensityMatrix, perm: np.ndarray) -> DensityMatrix:
    """rho conjugated by the unitary |i> -> |perm[i]>."""
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    return DensityMatrix(rho.mat[np.ix_(inv, inv)], validate=False)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state on the listed qubits, in their given order as 0, 1, ..."""
    keep = list(keep)
    dropped = [q for q in range(rho.n) if q not in keep]
    mapping = [0] * rho.n
    for pos, q in enumerate(keep + dropped):
        mapping[q] = pos
    relabel = qubit_map_indices(rho.n, mapping)
    src = np.empty_like(relabel)
    src[relabel] = np.arange(relabel.size)
    kd, dd = 1 << len(keep), 1 << len(dropped)
    m = rho.mat[np.ix_(src, src)].reshape(dd, kd, dd, kd)
    return DensityMatrix(np.einsum("akal->kl", m), validate=False)


def symmetrize(rho: DensityMatrix, n_s: int) -> DensityMatrix:
    """Average rho over all permutations of its first n_s qubits."""
    perms = list(itertools.permutations(range(n_s)))
    acc = np.zeros_like(rho.mat)
    for pi in perms:
        acc += apply_permutation(rho, signal_permutation_indices(rho.n, n_s, pi)).mat
    return DensityMatrix(acc / len(perms), validate=False)


def permutation_blocks(chi, code) -> list[tuple[np.ndarray, np.ndarray, float]]:
    """The blocks of the retired audit loop, one per signal permutation pi
    in itertools order (the identity first): the prepared state with its
    signal qubits relabeled by pi, then rho_Q after the key circuit, the
    same for the correctable part, and that part's weight (none of them
    renormalized).  The flat state holds S at bits 0..n-1, Q at n..n+r-1
    in |0>_X and signal i's ancilla at bit n + r + i."""
    n, r = code.n, code.k
    total = 2 * n + r
    idx = np.arange(1 << total, dtype=np.int64)
    amps = np.full(1 << total, (1 << r) ** -0.5, dtype=np.complex128)
    for i in range(n):
        amps = amps * chi[((idx >> i) & 1) + 2 * ((idx >> (n + r + i)) & 1)]
    mask = np.bitwise_count(idx & ((1 << n) - 1)) <= code.correctable_set().max_weight
    low = (1 << (n + r)) - 1
    ext_perm = build_key_circuit(code).perm[idx & low] | (idx & ~low)
    blocks = []
    for pi in itertools.permutations(range(n)):
        block = np.empty_like(amps)
        block[signal_permutation_indices(total, n, pi)] = amps
        states = []
        for vec in (block, block * mask):
            out = np.empty_like(vec)
            out[ext_perm] = vec
            m = out.reshape(1 << n, 1 << r, 1 << n).transpose(1, 0, 2).reshape(1 << r, -1)
            states.append(m @ m.conj().T)
        blocks.append((*states, float(np.vdot(block * mask, block * mask).real)))
    return blocks


def retired_key_side_states(chi, code) -> tuple[np.ndarray, np.ndarray, float]:
    """What qsim._key_side_states returns, averaged over all n! permutation
    blocks, as the audit computed it before it kept only the identity block."""
    blocks = permutation_blocks(chi, code)
    rho_q, projected, kept = (sum(parts) / len(blocks) for parts in zip(*blocks))
    return rho_q, projected, kept


# -- states -----------------------------------------------------------------
# Row v of _walsh_signs(n), scaled by 2^(-n/2), is |v>_X: the states the key
# readout projects onto.


def test_basis_state_x_single_qubit():
    assert np.array_equal(_walsh_signs(1), [[1, 1], [1, -1]])  # |+>, |-> times sqrt 2


def test_x_basis_orthonormal_n3():
    x = _walsh_signs(3) / math.sqrt(8)
    assert np.allclose(x @ x.T, np.eye(8), atol=1e-12)


def test_x_basis_signs_frozen():
    assert np.allclose(_walsh_signs(2)[0b11], [1, -1, -1, 1])


def test_state_validation():
    with pytest.raises(ValueError):
        StateVector([1.0, 1.0])
    with pytest.raises(ValueError):
        StateVector([1.0, 0.0, 0.0])  # not a power of two


def test_density_validation():
    with pytest.raises(ValueError):
        DensityMatrix([[1.0, 1.0], [0.0, 0.0]])  # not Hermitian
    with pytest.raises(ValueError):
        DensityMatrix([[0.7, 0.0], [0.0, 0.7]])  # trace != 1
    with pytest.raises(ValueError):
        DensityMatrix([[1.5, 0.0], [0.0, -0.5]])  # negative eigenvalue


def test_qubit_map_indices():
    assert np.array_equal(qubit_map_indices(2, [0, 1]), np.arange(4))
    swapped = qubit_map_indices(2, [1, 0])
    assert list(swapped) == [0, 2, 1, 3]
    with pytest.raises(ValueError):
        qubit_map_indices(2, [0, 0])


@pytest.mark.parametrize("n_s", range(5))
@pytest.mark.parametrize("spectators", range(6))
def test_signal_permutation_indices_keep_the_spectators(n_s, spectators):
    n_total = n_s + spectators
    rest = list(range(n_s, n_total))
    for pi in itertools.permutations(range(n_s)):
        expect = qubit_map_indices(n_total, list(pi) + rest)
        assert np.array_equal(signal_permutation_indices(n_total, n_s, pi), expect)


def test_partial_trace_product():
    a = random_density(1)
    b = random_density(1)
    joint = DensityMatrix(np.kron(b.mat, a.mat))  # qubit 0 is a, qubit 1 is b
    assert np.allclose(partial_trace(joint, [0]).mat, a.mat, atol=1e-12)
    assert np.allclose(partial_trace(joint, [1]).mat, b.mat, atol=1e-12)


def test_partial_trace_bell():
    bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    red = partial_trace(bell.density(), [0])
    assert np.allclose(red.mat, np.eye(2) / 2, atol=1e-12)


# -- entropy and fidelity ------------------------------------------------------


def test_entropy_pure_and_mixed():
    pure = StateVector(np.array([1, -1, -1, 1]) / 2).density()  # |11>_X
    assert von_neumann_entropy(pure) < 1e-10
    half = DensityMatrix(np.eye(2) / 2)
    assert abs(von_neumann_entropy(half) - 1.0) < 1e-12
    skew = DensityMatrix(np.diag([0.9, 0.1]))
    assert abs(von_neumann_entropy(skew) - binary_entropy(0.1)) < 1e-12
    assert abs(binary_entropy(0.1) - 0.4690) < 1e-4


def test_fidelity_pure_states():
    for _ in range(5):
        v = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        w = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        f = fidelity(StateVector(v).density(), StateVector(w).density())
        assert abs(f - abs(np.vdot(v, w)) ** 2) < 1e-10


def test_fidelity_self_is_one():
    rho = random_density(2, rank=3)
    assert abs(fidelity(rho, rho) - 1.0) < 1e-9


# -- key circuit ----------------------------------------------------------------


def test_circuit_is_permutation():
    for code in (repetition(3), hamming(3)):
        c = build_key_circuit(code)
        for p in (c.perm_u1, c.perm_u2, c.perm):
            assert sorted(p) == list(range(1 << c.n_qubits))


def test_circuit_size_limit():
    with pytest.raises(ValueError):
        build_key_circuit(hamming(4))  # 15 + 11 qubits


def test_u1_z_action_repetition():
    # |000>_Z |1>_Z picks up the nonzero codeword: -> |111>_Z |1>_Z
    c = build_key_circuit(repetition(3))
    assert c.perm_u1[0b1000] == 0b1111
    assert c.perm_u1[0b0000] == 0b0000


def test_u2_on_codewords():
    code = hamming(3)
    c = build_key_circuit(code)
    for y in range(16):
        cw = code.codewords()[y]
        assert c.perm_u2[cw] == cw | (y << 7)


def test_u1_x_action_exhaustive():
    # The Z-basis construction must satisfy the X-basis description
    # (message register gains the coset key) on every X-basis state.
    for code in (repetition(3), hamming(3)):
        n, r = code.n, code.k
        c = build_key_circuit(code)
        dim = 1 << (n + r)
        idx = np.arange(dim, dtype=np.int64)
        signs = 1 - 2 * (np.bitwise_count(np.bitwise_and.outer(idx, idx)).astype(np.int64) & 1)
        signs = signs.astype(np.int8)
        inv = np.empty(dim, dtype=np.int64)
        inv[c.perm_u1] = idx
        # expected X-label image, via independent per-column dot products
        cols = code.gen.transpose().row_words
        xt = idx & ((1 << n) - 1)
        gt = np.zeros(dim, dtype=np.int64)
        for j, col in enumerate(cols):
            gt |= (np.bitwise_count(xt & col).astype(np.int64) & 1) << j
        q = xt | (((idx >> n) ^ gt) << n)
        assert np.array_equal(signs[inv, :], signs[:, q])


def test_extract_final_key_matches_coset_key():
    code = hamming(3)
    c = build_key_circuit(code)
    cols = code.gen.transpose().row_words
    for w in range(3):
        for pos in itertools.combinations(range(7), w):
            kappa = 0
            for p in pos:
                kappa |= 1 << p
            expect = sum(((col & kappa).bit_count() & 1) << j for j, col in enumerate(cols))
            assert extract_final_key(c, kappa) == expect


def test_extract_final_key_zero_and_duals():
    code = repetition(3)
    c = build_key_circuit(code)
    assert extract_final_key(c, 0) == 0
    for kappa in range(8):
        base = extract_final_key(c, kappa)
        for d in code.parity_check().row_words:
            assert extract_final_key(c, kappa ^ d) == base
    for wider in (1 << 3, -1):
        with pytest.raises(ValueError):
            extract_final_key(c, wider)
        with pytest.raises(ValueError):
            error_reversal_check(c, wider)


def reversal_oracle(code, x: int) -> float:
    hits = 0
    for y in range(1 << code.k):
        shifted = x ^ code.codewords()[y]
        if bits_to_int(code.decode(int_to_bits(shifted, code.n))) == y:
            hits += 1
    return hits / (1 << code.k)


def test_error_reversal_correctable():
    code = hamming(3)
    c = build_key_circuit(code)
    assert abs(error_reversal_check(c, 0) - 1.0) < 1e-10
    for i in range(7):
        assert abs(error_reversal_check(c, 1 << i) - 1.0) < 1e-10


def test_error_reversal_matches_counting_oracle():
    code = hamming(3)
    c = build_key_circuit(code)
    below_one = 0
    for x in range(128):
        got = error_reversal_check(c, x)
        assert abs(got - reversal_oracle(code, x)) < 1e-10
        if x.bit_count() == 3 and got < 1.0 - 1e-10:
            below_one += 1
    assert below_one > 0  # some uncorrectable pattern really fails

    code3 = repetition(3)
    c3 = build_key_circuit(code3)
    for x in range(8):
        assert abs(error_reversal_check(c3, x) - reversal_oracle(code3, x)) < 1e-10


# -- symmetrization ---------------------------------------------------------------


def test_symmetrize_fixed_point():
    single = random_density(1)
    rho = DensityMatrix(np.kron(single.mat, single.mat))
    out = symmetrize(rho, 2)
    assert np.allclose(out.mat, rho.mat, atol=1e-12)


def test_symmetrize_two_qubit_orbit():
    amps = np.zeros(4)
    amps[0b10] = 1.0  # qubit 0 in |0>, qubit 1 in |1>
    rho = StateVector(amps).density()
    out = symmetrize(rho, 2)
    expect = np.zeros((4, 4))
    expect[1, 1] = 0.5
    expect[2, 2] = 0.5
    assert np.allclose(out.mat, expect, atol=1e-12)


def test_symmetrize_preserves_trace_with_spectator():
    rho = random_density(3, rank=3)
    out = symmetrize(rho, 2)  # qubit 2 rides along
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12
    DensityMatrix(out.mat)  # still a valid state


# -- correctable projection ----------------------------------------------------------


def test_project_correctable_full_support():
    # a state already inside the weight-1 ball is untouched
    amps = np.zeros(8)
    amps[0b001] = 1.0
    rho = StateVector(amps).density()
    out, eta = project_correctable(rho, CorrectableSet(3, max_weight=1))
    assert eta < 1e-14
    assert np.allclose(out.mat, rho.mat, atol=1e-12)


def test_project_correctable_uniform_counting():
    rho = DensityMatrix(np.eye(8) / 8)
    out, eta = project_correctable(rho, CorrectableSet(3, max_weight=1))
    assert abs(eta - 0.5) < 1e-12
    assert abs(np.trace(out.mat).real - 1.0) < 1e-12


def test_project_correctable_fidelity_identity():
    # F(rho', rho_s) equals the captured weight, checked against the
    # eigendecomposition fidelity, not just the trace formula.
    corr = CorrectableSet(3, max_weight=1)
    for _ in range(6):
        rho = random_density(4, rank=2)  # 3 signal qubits + 1 spectator
        out, eta = project_correctable(rho, corr)
        f = fidelity(out, rho)
        assert abs(f - (1.0 - eta)) < 1e-8


def test_project_correctable_no_support():
    amps = np.zeros(8)
    amps[0b111] = 1.0
    rho = StateVector(amps).density()
    with pytest.raises(ValueError):
        project_correctable(rho, CorrectableSet(3, max_weight=1))


# -- the audit -------------------------------------------------------------------------


def binomial_eta(p: float, n: int, radius: int) -> float:
    keep = sum(
        math.comb(n, w) * p**w * (1 - p) ** (n - w) for w in range(radius + 1)
    )
    return 1.0 - keep


def test_audit_identity_attack():
    rep = audit_protocol3(identity_attack(), 3, repetition(3))
    assert rep.eta < 1e-12
    assert rep.entropy_q < 1e-9
    assert abs(rep.q0_fidelity - 1.0) < 1e-12
    assert abs(rep.test_pass_probability - 1.0) < 1e-12
    assert not rep.abort_expected and not rep.vacuous
    assert np.allclose(rep.key_distribution, [0.5, 0.5], atol=1e-12)


def test_audit_rotation_closed_form():
    theta = 0.4
    rep = audit_protocol3(rotation_attack(theta), 3, repetition(3))
    p = math.sin(theta / 2) ** 2
    assert abs(rep.per_signal_z_error - p) < 1e-12
    assert abs(rep.eta - binomial_eta(p, 3, 1)) < 1e-10
    assert rep.q0_fidelity >= 1.0 - rep.eta - 1e-9
    assert rep.entropy_bound_valid
    assert rep.entropy_q <= rep.entropy_bound + 1e-9
    assert rep.uniformity_fidelity >= rep.uniformity_floor - 1e-9
    assert rep.key_entropy >= rep.key_entropy_floor - 1e-9
    assert not rep.abort_expected


def test_audit_swap_attack_vacuous():
    rep = audit_protocol3(swap_attack(), 3, repetition(3))
    assert abs(rep.per_signal_z_error - 0.5) < 1e-12
    assert abs(rep.eta - 0.5) < 1e-10
    assert rep.abort_expected
    assert rep.vacuous
    assert rep.q0_fidelity >= 1.0 - rep.eta - 1e-9
    assert rep.uniformity_fidelity >= rep.uniformity_floor - 1e-9


def test_audit_eta_monte_carlo_oracle():
    # density-matrix-free oracle: sample Z outcomes straight from the
    # prepared amplitudes and count patterns outside the ball
    attack = swap_attack()
    chi = attack[:, 0]
    p_one = abs(chi[1]) ** 2 + abs(chi[3]) ** 2
    rng = np.random.default_rng(123)
    bits = rng.random((200_000, 3)) < p_one
    weights = bits.sum(axis=1)
    frac_outside = float(np.mean(weights > 1))
    rep = audit_protocol3(attack, 3, repetition(3))
    assert abs(rep.eta - frac_outside) < 0.01


def test_audit_bound_chain_across_attacks():
    attacks = [
        identity_attack(),
        rotation_attack(0.3),
        rotation_attack(0.672),
        entangle_attack(0.3, 0.2),
        swap_attack(),
    ]
    for n, code in ((3, repetition(3)), (4, repetition(4))):
        for attack in attacks:
            rep = audit_protocol3(attack, n, code)
            assert rep.q0_fidelity >= 1.0 - rep.eta - 1e-9
            assert abs(rep.q0_projected - 1.0) < 1e-9
            assert rep.uniformity_fidelity >= rep.uniformity_floor - 1e-9
            if rep.entropy_bound_valid:
                assert rep.entropy_q <= rep.entropy_bound + 1e-9
            if not rep.abort_expected:
                assert rep.key_entropy >= rep.key_entropy_floor - 1e-9


def test_audit_reports_eta_as_a_probability():
    # identity keeps every pattern, and the rounded kept weight once
    # reported eta = -2.2e-16 for this audit
    rep = audit_protocol3(identity_attack(), 4, code_from_descriptor("repetition:n=4"))
    assert rep.eta == 0.0
    attacks = [identity_attack(), rotation_attack(0.3), swap_attack(), entangle_attack(0.3, 0.2)]
    for attack in attacks:
        for desc in ("repetition:n=4", "hamming_blocks:n=4"):
            rep = audit_protocol3(attack, 4, code_from_descriptor(desc))
            assert 0.0 <= rep.eta <= 1.0, desc


def test_audit_entropy_floor_fails_only_in_abort_regime():
    # Deep in the abort regime the asymptotic entropy floor r(1 - 2 eta)
    # can genuinely exceed the key entropy at r = 1; the report carries
    # both numbers and flags that the run would have aborted anyway.
    rep = audit_protocol3(rotation_attack(1.0), 3, repetition(3))
    assert rep.abort_expected
    assert rep.key_entropy < rep.key_entropy_floor


# the eight audits the benchmark's audit_bounds runs
BENCHMARK_AUDITS = [
    (name, attack, desc)
    for name, attack in (
        ("identity", identity_attack()),
        ("rotation:theta=0.3", rotation_attack(0.3)),
        ("swap", swap_attack()),
        ("entangle:alpha=0.3,beta=0.2", entangle_attack(0.3, 0.2)),
    )
    for desc in ("repetition:n=4", "hamming_blocks:n=4")
]
# the original hand-checked case, one with complex amplitudes (every shipped
# attack is real), and the benchmark's eight
DENSE_CROSS_CHECK = [
    ("rotation:theta=0.5", rotation_attack(0.5), "repetition:n=3"),
    (
        "phased_entangle",
        np.diag(np.exp(1j * np.array([0.0, 0.4, 1.1, 2.0]))) @ entangle_attack(0.6, 0.2),
        "hamming_blocks:n=4",
    ),
    *BENCHMARK_AUDITS,
]


@pytest.mark.parametrize(
    "attack,desc",
    [case[1:] for case in DENSE_CROSS_CHECK],
    ids=[f"{name}-{desc}" for name, _, desc in DENSE_CROSS_CHECK],
)
def test_audit_dense_pipeline_cross_check(attack, desc):
    # Rebuild the audit with plain dense density matrices, starting from a
    # hand-assembled product state, and compare eta and rho_Q entry-wise.
    code = code_from_descriptor(desc)
    rep = audit_protocol3(attack, code.n, code)

    chi = attack[:, 0]
    n, r = code.n, code.k
    total = 2 * n + r
    amps = np.zeros(1 << total, dtype=np.complex128)
    for i in range(1 << total):
        a = 1.0 / math.sqrt(1 << r)  # ancilla Q in |0>_X
        for s in range(n):
            s_bit = (i >> s) & 1
            e_bit = (i >> (n + r + s)) & 1
            a *= chi[s_bit + 2 * e_bit]
        amps[i] = a
    # Nothing below acts on the adversary's ancillas (the top n qubits), so
    # trace them out first: rho[a, b] = sum_e psi[e, a] psi[e, b]^*.  That
    # keeps the [4,4]-code cases at 256x256 instead of 4096x4096.
    psi = amps.reshape(1 << n, 1 << (n + r))
    rho = DensityMatrix(psi.T @ psi.conj())
    rho_s = symmetrize(rho, n)
    _, eta = project_correctable(rho_s, code.correctable_set())
    assert abs(eta - rep.eta) < 1e-10

    circuit = build_key_circuit(code)
    rho_out = apply_permutation(rho_s, circuit.perm)
    rho_q = partial_trace(rho_out, range(n, n + r))
    assert np.allclose(rho_q.mat, rep.rho_q, atol=1e-10)


# every shipped code of length at most 4; random codes at one seed per shape
SHORT_CODES = [
    *(
        f"{family}:n={n}"
        for family in (
            "repetition", "identity", "zero", "hamming_blocks",
            "rec_hamming", "rec_identity", "rec_verbatim",
        )
        for n in range(1, 5)
    ),
    "hamming:n=3",
    *(
        f"{family}:n={n},inner={inner}"
        for family in ("repetition_blocks", "rec_repetition")
        for n in range(1, 5)
        for inner in range(1, 5)
    ),
    *(f"random:n={n},k={k},seed=0" for n in range(1, 5) for k in range(1, n + 1)),
]


def test_short_codes_cover_every_family():
    assert {desc.partition(":")[0] for desc in SHORT_CODES} == set(CODE_FAMILIES)


def random_unitary(seed: int) -> np.ndarray:
    """A 4x4 unitary with complex entries: Q of a complex Gaussian matrix."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q


def assert_physical(rep) -> None:
    """Entropies are nonnegative; probabilities and fidelities lie in [0, 1]."""
    assert rep.entropy_q >= 0.0 and rep.key_entropy >= 0.0
    unit = [rep.eta, rep.per_signal_z_error, rep.test_pass_probability, rep.q0_fidelity,
            rep.q0_projected, rep.uniformity_fidelity, *rep.key_distribution]
    assert all(0.0 <= v <= 1.0 for v in unit), unit


@pytest.mark.parametrize("desc", SHORT_CODES)
@settings(derandomize=True, max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_every_permutation_block_equals_the_identity_block(desc, seed):
    # the reason the audit computes one block: for a product preparation,
    # relabeling the signals changes neither rho_Q, nor its correctable
    # part, nor that part's weight
    code = code_from_descriptor(desc)
    attack = random_unitary(seed)
    identity, *others = permutation_blocks(attack[:, 0], code)
    for block in others:
        for got, want in zip(block, identity):
            assert np.max(np.abs(np.asarray(got) - want)) < 1e-12
    rep = audit_protocol3(attack, code.n, code)
    assert np.max(np.abs(rep.rho_q - identity[0])) < 1e-12
    assert_physical(rep)


@pytest.mark.parametrize(
    "attack,desc",
    [(identity_attack(), "repetition:n=3")] + [case[1:] for case in BENCHMARK_AUDITS],
    ids=["identity-repetition:n=3"] + [f"{name}-{desc}" for name, _, desc in BENCHMARK_AUDITS],
)
def test_audit_values_stay_physical_under_rounding(attack, desc):
    # with one block, identity at n=3 once read entropy_q = -3.2e-16 and
    # q0_fidelity = 1.0000000000000002
    code = code_from_descriptor(desc)
    assert_physical(audit_protocol3(attack, code.n, code))


@pytest.mark.parametrize(
    "attack,desc",
    [case[1:] for case in BENCHMARK_AUDITS],
    ids=[f"{name}-{desc}" for name, _, desc in BENCHMARK_AUDITS],
)
def test_one_block_audit_matches_the_retired_loop(attack, desc, monkeypatch):
    code = code_from_descriptor(desc)
    rep = audit_protocol3(attack, code.n, code)
    monkeypatch.setattr(qsim, "_key_side_states", retired_key_side_states)
    retired = audit_protocol3(attack, code.n, code)
    for name, want in vars(retired).items():
        got = getattr(rep, name)
        if isinstance(want, (str, bool)):
            assert got == want, name
        else:
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=name)
    assert audit_checks(rep) == audit_checks(retired)


def test_audit_error_paths():
    with pytest.raises(ValueError):
        audit_protocol3(np.eye(4) * 2.0, 3, repetition(3))  # not unitary
    with pytest.raises(ValueError):
        audit_protocol3(np.where(np.eye(4) == 1, np.nan, 0.0), 3, repetition(3))
    with pytest.raises(ValueError):
        audit_protocol3(identity_attack(), 4, repetition(3))  # length mismatch
    with pytest.raises(ValueError):
        audit_protocol3(identity_attack(), 5, repetition(5))  # too many signals
    with pytest.raises(ValueError):
        # flips every signal: the verification test can never pass
        audit_protocol3(rotation_attack(math.pi), 3, repetition(3))


def test_report_json_roundtrip():
    rep = audit_protocol3(rotation_attack(0.3), 3, repetition(3))
    blob = json.loads(rep.to_json())
    assert blob["n_signals"] == 3
    assert blob["r"] == 1
    assert len(blob["key_distribution"]) == 2
    assert "rho_q" not in blob
    assert blob["eta"] == rep.eta
