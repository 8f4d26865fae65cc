"""Statevector engine against dense linear-algebra oracles (scipy expm),
gate-decomposition fidelity, optimizer behavior, and the lockstep
Nelder-Mead against scipy.optimize.minimize, which it must match exactly,
in shrinks cut short at every length (`test_lockstep_oracle.py` runs whole
`optimize` calls against scipy)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.qaoa import (
    Gate,
    QaoaParams,
    ansatz_state,
    apply_phase_layer,
    decompose_evolution,
    num_qubits,
    optimize,
    sample_candidates,
    simulate_gates,
    uniform_state,
)
from isingpursuit.qaoa import _expectations, _lockstep, _nelder_mead, _StateBuffers

from oracles import apply_mixer_layer, expectation, scipy_nelder_mead
from strategies import hamiltonians

X = np.array([[0.0, 1.0], [1.0, 0.0]])


def test_uniform_state_examples():
    assert np.allclose(uniform_state(1), [2**-0.5, 2**-0.5])
    assert np.allclose(uniform_state(2), [0.5, 0.5, 0.5, 0.5])
    assert np.isclose(np.linalg.norm(uniform_state(7)), 1.0)


def test_uniform_state_bounds():
    with pytest.raises(ValueError):
        uniform_state(0)


def test_num_qubits_rejects_bad_shapes():
    H = IsingHamiltonian(1, {frozenset({1}): 1.0})
    bad = [
        (np.ones(3, dtype=complex), r"shape \(3,\): length 3 is not a power of two"),
        (np.array(1.0 + 0j), r"shape \(\) is not one-dimensional"),
        (np.ones(0, dtype=complex), r"shape \(0,\): length 0 is not a power of two"),
        (np.ones((2, 2), dtype=complex), r"shape \(2, 2\) is not one-dimensional"),
    ]
    for state, message in bad:
        for call in (num_qubits, lambda s: simulate_gates(s, []),
                     lambda s: apply_phase_layer(s, H, 0.1)):
            with pytest.raises(ValueError, match=message):
                call(state)


def test_phase_layer_gamma_zero_is_identity():
    H = IsingHamiltonian(2, {frozenset({1}): 1.0})
    psi = uniform_state(2)
    assert np.array_equal(apply_phase_layer(psi, H, 0.0), psi)


def test_phase_layer_identity_term_is_global_phase():
    H = IsingHamiltonian(2, {frozenset(): 0.7})
    psi = apply_phase_layer(uniform_state(2), H, 1.3)
    assert np.allclose(np.abs(psi) ** 2, 0.25)
    assert np.allclose(psi, uniform_state(2) * np.exp(1j * 1.3 * 0.7))


def test_mixer_layer_beta_zero_is_identity():
    psi = uniform_state(3)
    assert np.allclose(apply_mixer_layer(psi, 0.0), psi)


def test_mixer_layer_half_pi_flips_bits():
    psi = np.zeros(4, dtype=complex)
    psi[0] = 1.0  # |00>
    out = apply_mixer_layer(psi, np.pi / 2)
    assert np.isclose(abs(out[3]), 1.0)  # |11> up to phase


def test_mixer_layers_compose_additively():
    psi = ansatz_state(
        IsingHamiltonian(3, {frozenset({1, 2}): 0.4}), QaoaParams((0.3,), (0.2,))
    )
    once = apply_mixer_layer(apply_mixer_layer(psi, 0.5), 0.8)
    assert np.allclose(once, apply_mixer_layer(psi, 1.3), atol=1e-12)


def test_mixer_matches_expm_oracle():
    beta = 0.917
    oracle = expm(1j * beta * X)
    psi = np.array([0.6, 0.8j])
    assert np.allclose(apply_mixer_layer(psi, beta), oracle @ psi, atol=1e-12)


def test_ansatz_p1_zero_angles_is_uniform():
    H = IsingHamiltonian(3, {frozenset({2}): 1.0})
    assert np.allclose(ansatz_state(H, QaoaParams((0.0,), (0.0,))), uniform_state(3))


def test_ansatz_matches_dense_expm_on_a_grid():
    # n=2 chain H; oracle: expm(i*beta*(X1+X2)) @ expm(i*gamma*diag(h)) @ uniform
    H = IsingHamiltonian(2, {frozenset({1}): 0.5, frozenset({2}): -0.3, frozenset({1, 2}): 0.8})
    mixer_op = np.kron(X, np.eye(2)) + np.kron(np.eye(2), X)
    diag = H.diagonal()
    for gamma in (0.0, 0.4, 1.1, 2.9):
        for beta in (0.0, 0.7, 1.9):
            oracle = expm(1j * beta * mixer_op) @ (
                np.exp(1j * gamma * diag) * uniform_state(2)
            )
            psi = ansatz_state(H, QaoaParams((gamma,), (beta,)))
            assert np.allclose(psi, oracle, atol=1e-10)


@given(hamiltonians(), st.integers(0, 2**31))
def test_layers_preserve_norm(H, seed):
    rng = np.random.default_rng(seed)
    params = QaoaParams(
        tuple(rng.uniform(0, 2 * np.pi, 2)), tuple(rng.uniform(0, 2 * np.pi, 2))
    )
    psi = ansatz_state(H, params)
    assert np.isclose(np.linalg.norm(psi), 1.0, atol=1e-10)


def test_expectation_traceless_on_uniform_state():
    H = IsingHamiltonian(3, {frozenset({1}): 1.0, frozenset({2, 3}): -0.7})
    assert np.isclose(expectation(uniform_state(3), H), 0.0, atol=1e-12)


def test_expectation_identity_term():
    H = IsingHamiltonian(2, {frozenset(): 1.5})
    assert np.isclose(expectation(uniform_state(2), H), 1.5)


def test_expectation_on_basis_state():
    H = IsingHamiltonian(2, {frozenset({1}): 2.0, frozenset({1, 2}): -1.0})
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0  # |10>
    assert np.isclose(expectation(psi, H), H.diagonal()[2])


@given(hamiltonians(max_n=4), st.integers(0, 2**31))
def test_expectation_within_spectrum_bounds(H, seed):
    rng = np.random.default_rng(seed)
    params = QaoaParams(tuple(rng.uniform(0, 2 * np.pi, 1)), tuple(rng.uniform(0, 2 * np.pi, 1)))
    val = expectation(ansatz_state(H, params), H)
    diag = H.diagonal()
    assert diag.min() - 1e-9 <= val <= diag.max() + 1e-9


def test_optimize_flat_landscape():
    H = IsingHamiltonian(2, {frozenset(): 0.9})
    out = optimize(H, p=1, restarts=1, max_evals=20, seed=0)
    assert np.isclose(out.expectation, 0.9)


def test_optimize_single_qubit_against_grid():
    H = IsingHamiltonian(1, {frozenset({1}): 1.0})
    grid = np.linspace(0.0, 2 * np.pi, 65)
    grid_best = max(
        expectation(ansatz_state(H, QaoaParams((g,), (b,))), H)
        for g in grid
        for b in grid
    )
    out = optimize(H, p=1, restarts=6, max_evals=200, seed=3)
    assert np.isclose(grid_best, 1.0, atol=1e-3)  # known optimum for a single Z
    assert out.expectation >= grid_best - 1e-3


def test_optimize_more_restarts_never_hurt():
    H = IsingHamiltonian(3, {frozenset({1, 2}): 1.0, frozenset({3}): -0.6})
    small = optimize(H, p=1, restarts=1, max_evals=120, seed=7)
    big = optimize(H, p=1, restarts=10, max_evals=120, seed=7)
    assert big.expectation >= small.expectation - 1e-12


def test_optimize_warm_start_never_regresses():
    H = IsingHamiltonian(3, {frozenset({1, 2}): 1.0, frozenset({2, 3}): 0.5})
    shallow = optimize(H, p=1, restarts=4, max_evals=150, seed=11)
    padded = QaoaParams(shallow.params.gammas + (0.0,), shallow.params.betas + (0.0,))
    deep = optimize(H, p=2, restarts=4, max_evals=150, seed=11, init=padded)
    assert deep.expectation >= shallow.expectation - 1e-12


def test_optimize_validates_inputs():
    H = IsingHamiltonian(1, {frozenset({1}): 1.0})
    with pytest.raises(ValueError):
        optimize(H, p=0)
    with pytest.raises(ValueError):
        optimize(H, p=1, restarts=0)
    with pytest.raises(ValueError, match="depth"):
        optimize(H, p=2, restarts=1, init=QaoaParams((0.1,), (0.2,)))


def test_sampling_from_a_basis_state():
    psi = np.zeros(8, dtype=complex)
    psi[5] = 1.0
    drawn = sample_candidates(psi, 50, seed=0)
    assert drawn == [5] * 50
    assert all(type(z) is int for z in drawn)


def test_sampling_uniform_frequencies_within_5_sigma():
    counts = np.bincount(sample_candidates(uniform_state(2), 4096, seed=1), minlength=4)
    sigma = np.sqrt(4096 * 0.25 * 0.75)
    assert np.all(np.abs(counts - 1024) <= 5 * sigma)


def test_sampling_is_seed_deterministic():
    psi = ansatz_state(
        IsingHamiltonian(3, {frozenset({1}): 1.0}), QaoaParams((0.4,), (0.9,))
    )
    assert sample_candidates(psi, 64, seed=5) == sample_candidates(psi, 64, seed=5)


def test_decompose_single_site_term():
    H = IsingHamiltonian(2, {frozenset({1}): 0.75})
    assert decompose_evolution(H, 0.5) == [Gate.rz(1, -2 * 0.5 * 0.75)]


def test_decompose_pair_term():
    H = IsingHamiltonian(2, {frozenset({1, 2}): 1.0})
    assert decompose_evolution(H, 0.3) == [
        Gate.cx(1, 2),
        Gate.rz(2, -0.6),
        Gate.cx(1, 2),
    ]


def test_decompose_gate_counts_follow_support_size():
    H = IsingHamiltonian(5, {frozenset({1, 2, 4, 5}): -0.4})
    gates = decompose_evolution(H, 1.0)
    assert sum(g.name == "CX" for g in gates) == 6
    assert sum(g.name == "RZ" for g in gates) == 1


def test_decompose_identity_term_emits_nothing():
    assert decompose_evolution(IsingHamiltonian(2, {frozenset(): 3.0}), 1.0) == []


def test_simulate_empty_list_is_identity():
    psi = uniform_state(2)
    assert np.array_equal(simulate_gates(psi, []), psi)


def test_simulate_cnot_truth_table():
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0  # |10>
    out = simulate_gates(psi, [Gate.cx(1, 2)])
    assert np.isclose(out[3], 1.0)  # |11>


def test_simulate_rejects_bad_qubits():
    with pytest.raises(ValueError, match="outside"):
        simulate_gates(uniform_state(2), [Gate.rz(3, 0.1)])


def test_cx_requires_distinct_qubits():
    with pytest.raises(ValueError):
        Gate.cx(1, 1)


def _fidelity(a, b):
    return abs(np.vdot(a, b))


@settings(max_examples=40)
@given(hamiltonians(), st.floats(-3, 3))
def test_decomposition_matches_phase_layer(H, t):
    start = uniform_state(H.n)
    direct = apply_phase_layer(start, H, t)
    gated = simulate_gates(start, decompose_evolution(H, t))
    assert _fidelity(direct, gated) >= 1 - 1e-10


def test_full_ansatz_gate_list_matches_statevector():
    H = IsingHamiltonian(
        3, {frozenset(): 0.2, frozenset({1}): -0.5, frozenset({1, 3}): 0.9}
    )
    params = QaoaParams((0.7, 1.4), (0.3, 1.1))
    # phase layers as CNOT/RZ ladders, mixer layers as RX(-2*beta) on every qubit
    gates = []
    for gamma, beta in zip(params.gammas, params.betas):
        gates += decompose_evolution(H, gamma)
        gates += [Gate.rx(q, -2.0 * beta) for q in range(1, H.n + 1)]
    direct = ansatz_state(H, params)
    gated = simulate_gates(uniform_state(3), gates)
    assert _fidelity(direct, gated) >= 1 - 1e-10


def test_lockstep_nelder_mead_matches_scipy_when_a_shrink_runs_out():
    # on a flat landscape almost every iteration shrinks, so this budget
    # sweep stops inside shrinks of every length (2p = 4 angles)
    n = 3
    diag = np.full(1 << n, 0.9)

    kernel = _StateBuffers(4, n, diag)

    def objective(angles):
        return -_expectations(kernel, angles)

    shrink_sizes = set()
    for maxfev in range(1, 70):
        for x0 in ([0.3, 2.0, 0.0, 5.1], [4.0, 1.0, 2.5, 0.7]):
            x0 = np.array(x0)
            batches = []

            def recording(angles):
                batches.append(len(angles))
                return objective(angles)

            ((x, fun, nfev),) = _lockstep([_nelder_mead(x0, maxfev)], recording)
            ref = scipy_nelder_mead(objective, x0, maxfev)
            assert (x.tobytes(), fun, nfev) == (ref.x.tobytes(), ref.fun, ref.nfev)
            # after the initial simplex, one lane sends several points only in a shrink
            shrink_sizes.update(b for b in batches[1:] if b > 1)
    assert shrink_sizes == {2, 3, 4}
