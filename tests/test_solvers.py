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
from isingpursuit.signal import SparseSignal, random_sparse_signal
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


# (n, pattern kind, param_count) and the outcome's repr: its position, its
# score and every diagnostic, bit for bit.  Each case draws its set, signal
# and samples from the seed 100 * n + param_count, on q = 3 quadruplets at
# n = 6 and q = n above, with 1,024 shots at n = 6 and 64 above.
PINNED_SOLVES = [
    ((6, "nn", 5),
     "SolverOutcome(position=13, score=4.262330854546038, "
     "diagnostics={'backend': 'qaoa', 'scale': 2.6465337676235774, "
     "'max_expectation': 1.348429984418536, 'max_evaluations': 5, "
     "'min_expectation': -0.186231687166505, 'min_evaluations': 5, 'candidates': 60})"),
    ((6, "nn", 9),
     "SolverOutcome(position=44, score=5.74305305881136, "
     "diagnostics={'backend': 'qaoa', 'scale': 3.918196178180378, "
     "'max_expectation': 1.3305440978776801, 'max_evaluations': 5, "
     "'min_expectation': -0.08057023386408867, 'min_evaluations': 5, "
     "'candidates': 59})"),
    ((6, "nn", 21),
     "SolverOutcome(position=33, score=3.5035632641528265, "
     "diagnostics={'backend': 'qaoa', 'scale': 2.213462794686099, "
     "'max_expectation': 1.5103680901419545, 'max_evaluations': 5, "
     "'min_expectation': -0.07673725126407252, 'min_evaluations': 5, "
     "'candidates': 48})"),
    ((6, "quad", 5),
     "SolverOutcome(position=13, score=2.0482811345035308, "
     "diagnostics={'backend': 'qaoa', 'scale': 1.8059115714651621, "
     "'max_expectation': 0.44807064875974284, 'max_evaluations': 5, "
     "'min_expectation': -0.050433436187741425, 'min_evaluations': 5, "
     "'candidates': 64})"),
    ((6, "quad", 9),
     "SolverOutcome(position=44, score=2.5098908301516403, "
     "diagnostics={'backend': 'qaoa', 'scale': 2.236162298056993, "
     "'max_expectation': 0.5278858599650436, 'max_evaluations': 5, "
     "'min_expectation': -0.03358895633774612, 'min_evaluations': 5, "
     "'candidates': 64})"),
    ((6, "quad", 21),
     "SolverOutcome(position=32, score=1.4075500904989848, "
     "diagnostics={'backend': 'qaoa', 'scale': 1.2140350200789758, "
     "'max_expectation': 0.8102520142260692, 'max_evaluations': 5, "
     "'min_expectation': -0.02691152865984539, 'min_evaluations': 5, "
     "'candidates': 64})"),
    ((10, "quad", 5),
     "SolverOutcome(position=981, score=10.641811483167041, "
     "diagnostics={'backend': 'qaoa', 'scale': 9.076145546319626, "
     "'max_expectation': 0.4997087440989526, 'max_evaluations': 5, "
     "'min_expectation': -0.05803209560351947, 'min_evaluations': 5, "
     "'candidates': 113})"),
    ((10, "quad", 9),
     "SolverOutcome(position=622, score=10.376852056475412, "
     "diagnostics={'backend': 'qaoa', 'scale': 9.224017808638173, "
     "'max_expectation': 0.5517209757054915, 'max_evaluations': 5, "
     "'min_expectation': -0.040015095955920746, 'min_evaluations': 5, "
     "'candidates': 97})"),
    ((10, "quad", 21),
     "SolverOutcome(position=176, score=9.776750138941924, "
     "diagnostics={'backend': 'qaoa', 'scale': 8.891557187468335, "
     "'max_expectation': 0.7837874367890454, 'max_evaluations': 5, "
     "'min_expectation': -0.022052339838607223, 'min_evaluations': 5, "
     "'candidates': 94})"),
    ((12, "quad", 5),
     "SolverOutcome(position=1283, score=10.389459139803188, "
     "diagnostics={'backend': 'qaoa', 'scale': 9.314359311021915, "
     "'max_expectation': 0.37122190307334346, 'max_evaluations': 5, "
     "'min_expectation': -0.045462164818617, 'min_evaluations': 5, 'candidates': 118})"),
    ((12, "quad", 9),
     "SolverOutcome(position=1569, score=6.531539024746312, "
     "diagnostics={'backend': 'qaoa', 'scale': 5.7321237028688365, "
     "'max_expectation': 0.5543158425498387, 'max_evaluations': 5, "
     "'min_expectation': -0.04462603784957937, 'min_evaluations': 5, "
     "'candidates': 119})"),
    ((12, "quad", 21),
     "SolverOutcome(position=1242, score=12.263263917892727, "
     "diagnostics={'backend': 'qaoa', 'scale': 11.027326418689668, "
     "'max_expectation': 0.7849610001731993, 'max_evaluations': 5, "
     "'min_expectation': -0.023973478738759373, 'min_evaluations': 5, "
     "'candidates': 89})"),
]


@pytest.mark.parametrize("case, pinned", PINNED_SOLVES,
                         ids=[f"{kind}-n{n}-params{params}" for (n, kind, params), _ in PINNED_SOLVES])
def test_seeded_qaoa_solve_outcomes_are_pinned(case, pinned):
    n, kind, params = case
    seed = 100 * n + params
    ms = nearest_neighbor_patterns(n) if kind == "nn" else \
        random_quadruplet_patterns(n, 3 if n == 6 else n, seed=seed)
    r = measure(random_sparse_signal(n, 3, seed=seed), ms)
    spec = SolverSpec("qaoa", params, shots=1024 if n == 6 else 64)
    assert repr(qaoa_solve(ms, r, spec, seed=seed)) == pinned
