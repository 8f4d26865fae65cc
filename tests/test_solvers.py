"""Support-detection backends: brute force vs the dense argmax, chain DP vs
brute force, and soundness/dominance of the sampled QAOA search."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    column_dot,
    complete_patterns,
    measure,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from isingpursuit.signal import SparseSignal
from isingpursuit.solvers import (
    ChainStructureError,
    SolverSpec,
    brute_force_solve,
    chain_dp_solve,
    qaoa_solve,
)

from oracles import dense_matrix
from strategies import measurement_sets


def test_brute_zero_residual_ties_to_zero():
    ms = nearest_neighbor_patterns(4)
    out = brute_force_solve(ms, np.zeros(len(ms)))
    assert (out.position, out.score) == (0, 0.0)


def test_brute_point_pattern():
    ms = MeasurementSet(3, (Pattern(((1, 1), (2, 0), (3, 1))),))
    out = brute_force_solve(ms, np.array([1.0]))
    assert (out.position, out.score) == (0b101, 1.0)


def test_brute_respects_qubit_cap():
    ms = MeasurementSet(21, (Pattern(((1, 0),)),))
    with pytest.raises(ValueError, match="cap"):
        brute_force_solve(ms, np.ones(1))


def test_brute_ties_across_signs_to_the_smallest_index():
    # dyadic entries, so A^T r is exact: -0.75 at 6 and 7, +0.75 at 8 and 9
    ms = nearest_neighbor_patterns(4)
    r = np.array([0.0, -0.5, 0.5, 0.0, 0.25, 0.0, 0.0, -0.25, 0.0, 0.0, 0.0, 0.0])
    dots = dense_matrix(ms).T @ r
    assert np.flatnonzero(np.abs(dots) == 0.75).tolist() == [6, 7, 8, 9]
    out = brute_force_solve(ms, r)
    assert (out.position, out.score) == (6, 0.75)


@pytest.mark.parametrize("ms", [
    pytest.param(nearest_neighbor_patterns(16), id="nn"),
    pytest.param(random_quadruplet_patterns(16, 16, seed=0), id="quad"),
])
def test_brute_makes_no_second_index_space_array(ms):
    # |A^T r| is taken in place: the peak is one 2**n float64 vector plus
    # small tables (the table kernel, random quadruplets) or a quarter-size
    # copy (the prefix stages, nearest neighbours), where a fresh
    # np.abs(dots) would double it
    r = np.random.default_rng(0).normal(size=len(ms))
    brute_force_solve(ms, r)  # the set's cached runs and masks, built once
    tracemalloc.start()
    try:
        brute_force_solve(ms, r)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (1 << 16) * 8


@settings(max_examples=60)
@given(measurement_sets(), st.integers(0, 2**31))
def test_brute_matches_dense_argmax(ms, seed):
    r = np.random.default_rng(seed).normal(size=len(ms))
    out = brute_force_solve(ms, r)
    dots = np.abs(dense_matrix(ms).T @ r)
    assert np.isclose(out.score, dots.max(), atol=1e-12)
    assert out.position == int(np.argmax(dots))


def test_chain_single_field_term():
    # (I+Z)/2 minus (I-Z)/2 leaves exactly Z_1
    ms = MeasurementSet(3, (Pattern(((1, 0),)), Pattern(((1, 1),))))
    out = chain_dp_solve(ms, np.array([1.0, -1.0]))
    assert out.position == 0  # all bit1=0 indices tie at +1; smallest wins
    assert out.score == 1.0


def test_chain_zero_residual():
    ms = nearest_neighbor_patterns(5)
    assert chain_dp_solve(ms, np.zeros(len(ms))).score == 0.0


def test_chain_rejects_nonadjacent_structure():
    ms = random_quadruplet_patterns(6, 1, seed=0)
    with pytest.raises(ChainStructureError):
        chain_dp_solve(ms, np.random.default_rng(0).normal(size=len(ms)))


def test_chain_handles_dominant_negative_extremum():
    ms = nearest_neighbor_patterns(4)
    sig = SparseSignal(4, ((9, 1.0),))
    r = -3.0 * measure(sig, ms)  # argmax of |h| sits at the minimum of h
    out = chain_dp_solve(ms, r)
    assert out.position == 9
    assert np.isclose(out.score, 9.0)


def test_qaoa_flat_objective_short_circuits():
    ms = MeasurementSet(3, (Pattern(()),))
    out = qaoa_solve(ms, np.array([0.8]), seed=0)
    assert (out.position, out.score) == (0, 0.8)
    assert out.diagnostics.get("flat") is True


@pytest.mark.parametrize("ms", [MeasurementSet(3, (Pattern(()),)),
                                random_quadruplet_patterns(10, 10, seed=0)], ids=["flat", "quad"])
def test_qaoa_solve_never_makes_the_terms_dict(ms, monkeypatch):
    # the flat test and the diagonal read the supports, masks and totals
    read = []
    monkeypatch.setattr(IsingHamiltonian, "terms", property(lambda H: read.append(H) or {}))
    r = np.random.default_rng(0).normal(size=len(ms))
    qaoa_solve(ms, r, SolverSpec("qaoa", 5, shots=64), seed=0)
    assert read == []


def test_qaoa_is_seed_deterministic():
    ms = nearest_neighbor_patterns(4)
    r = np.random.default_rng(3).normal(size=len(ms))
    spec = SolverSpec("qaoa", 2, restarts=2, max_evals=40, shots=128)
    a = qaoa_solve(ms, r, spec, 9)
    b = qaoa_solve(ms, r, spec, 9)
    assert (a.position, a.score) == (b.position, b.score)


@settings(max_examples=15)
@given(st.integers(0, 2**31))
def test_qaoa_score_is_sound_and_dominated(seed):
    ms = random_quadruplet_patterns(5, 2, seed=seed)
    r = np.random.default_rng(seed).normal(size=len(ms))
    spec = SolverSpec("qaoa", 2, restarts=1, max_evals=30, shots=64)
    out = qaoa_solve(ms, r, spec, seed)
    assert out.score == abs(column_dot(out.position, r, ms))
    assert out.score <= brute_force_solve(ms, r).score + 1e-12


def test_qaoa_finds_single_spike_under_full_joint_measurement():
    # all four bits fixed: the spike position is the unique argmax
    hits = 0
    for seed in range(20):
        ms = random_quadruplet_patterns(4, 1, seed=seed)
        sig = SparseSignal(4, ((11, 1.0),))
        y = measure(sig, ms)
        spec = SolverSpec("qaoa", 4, restarts=3, max_evals=100, shots=512)
        if qaoa_solve(ms, y, spec, seed).position == 11:
            hits += 1
    assert hits >= 18


def test_every_backend_reports_reproducible_scores():
    ms = nearest_neighbor_patterns(5)
    r = np.random.default_rng(8).normal(size=len(ms))
    for solve in (
        brute_force_solve,
        chain_dp_solve,
        lambda m, rr: qaoa_solve(m, rr, SolverSpec("qaoa", 2, restarts=1, max_evals=30, shots=64), 1),
    ):
        out = solve(ms, r)
        assert out.score == abs(column_dot(out.position, r, ms))


def test_brute_prefers_smallest_index_on_ties():
    # two disjoint point columns with equal weight
    ms = complete_patterns(3)
    r = np.zeros(8)
    r[2] = 1.0
    r[6] = 1.0
    assert brute_force_solve(ms, r).position == 2
