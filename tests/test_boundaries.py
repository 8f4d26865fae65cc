"""Property tests for the checks where inputs enter the system: non-finite
marginals and spike values, the 63-bit width of the index masks, empty
solver budgets, and a solver choice whose column no pattern measures."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    column_norm_sq,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from isingpursuit.pursuit import DegenerateColumnError, PursuitConfig, matching_pursuit
from isingpursuit.signal import INDEX_BITS_CAP, SparseSignal, random_sparse_signal
from isingpursuit.solvers import BACKENDS, SolverOutcome, SolverSpec, brute_force_solve

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
BUDGETS = ("param_count", "restarts", "max_evals", "shots")


@given(st.integers(2, 8), st.data())
def test_non_finite_marginals_are_rejected(n, data):
    ms = nearest_neighbor_patterns(n)
    y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=len(ms), max_size=len(ms))))
    y[data.draw(st.integers(0, len(ms) - 1))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match="marginals must be finite"):
        matching_pursuit(y, ms, PursuitConfig(solver=brute_force_solve, max_iterations=4))


@given(st.integers(1, INDEX_BITS_CAP), st.data())
def test_non_finite_spike_values_are_rejected(n, data):
    positions = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4,
                                   unique=True))
    values = [data.draw(st.floats(0.1, 1.0)) for _ in positions]
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match="not finite"):
        SparseSignal(n, tuple(zip(positions, values)))


WIDTH_CHECKED = {
    "SparseSignal": lambda n: SparseSignal(n, ()),
    "random_sparse_signal": lambda n: random_sparse_signal(n, 1, seed=n),
    "MeasurementSet": lambda n: MeasurementSet(n, (Pattern(((n, 1),)),)),
    "nearest_neighbor_patterns": nearest_neighbor_patterns,
    "random_quadruplet_patterns": lambda n: random_quadruplet_patterns(n, 1, seed=n),
}


@pytest.mark.parametrize("build", WIDTH_CHECKED.values(), ids=WIDTH_CHECKED.keys())
@settings(max_examples=12)
@given(n=st.integers(INDEX_BITS_CAP - 3, INDEX_BITS_CAP + 40))
@example(n=INDEX_BITS_CAP)
@example(n=INDEX_BITS_CAP + 1)
def test_index_width_is_63_bits(build, n):
    if n <= INDEX_BITS_CAP:
        assert build(n).n == n
    else:
        with pytest.raises(ValueError, match=f"n={n} exceeds {INDEX_BITS_CAP}"):
            build(n)


@given(st.sampled_from(BUDGETS), st.integers(-2**31, 0), st.sampled_from(BACKENDS))
def test_empty_solver_budgets_are_rejected(budget, value, backend):
    with pytest.raises(ValueError, match=f"{budget} must be >= 1, got {value}"):
        SolverSpec(backend, **{budget: value})


@given(st.sampled_from(BUDGETS), st.integers(1, 2**31))
def test_positive_solver_budgets_are_kept(budget, value):
    assert getattr(SolverSpec("qaoa", **{budget: value}), budget) == value


@given(st.integers(-2**31, 0))
def test_optimize_rejects_an_empty_evaluation_budget(max_evals):
    H = IsingHamiltonian(2, {frozenset({1, 2}): 1.0})
    with pytest.raises(ValueError, match=f"max_evals must be >= 1, got {max_evals}"):
        qaoa.optimize(H, 1, restarts=1, max_evals=max_evals)


@given(st.integers(1, 8), st.data())
def test_a_solver_choice_no_pattern_measures_is_an_error(n, data):
    # every pattern fixes `bit` to 0, so no pattern measures an index with it set
    bit = data.draw(st.integers(1, n))
    patterns = []
    for _ in range(data.draw(st.integers(1, 6))):
        others = sorted(data.draw(st.sets(st.integers(1, n))) - {bit})
        values = data.draw(st.lists(st.integers(0, 1), min_size=len(others),
                                    max_size=len(others)))
        patterns.append(Pattern(((bit, 0),) + tuple(zip(others, values))))
    ms = MeasurementSet(n, tuple(patterns))
    z = data.draw(st.integers(0, (1 << n) - 1)) | 1 << (n - bit)
    assert column_norm_sq(z, ms) == 0
    cfg = PursuitConfig(solver=lambda ms_, r_: SolverOutcome(z, 1.0), max_iterations=3)
    with pytest.raises(DegenerateColumnError, match=f"solver chose index {z} matching no"):
        matching_pursuit(np.ones(len(ms)), ms, cfg)
