import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    complete_patterns,
    measure,
    nearest_neighbor_patterns,
)
from isingpursuit.pursuit import (
    AMPLITUDE_FLOOR,
    DegenerateColumnError,
    PursuitConfig,
    ReconstructionResult,
    Termination,
    matching_pursuit,
    recovery_success,
)
from isingpursuit.signal import SparseSignal, random_sparse_signal
from isingpursuit.solvers import SolverOutcome, brute_force_solve, chain_dp_solve


def brute_cfg(**kwargs):
    kwargs.setdefault("max_iterations", 8)
    return PursuitConfig(solver=brute_force_solve, **kwargs)


def test_config_validation():
    with pytest.raises(ValueError):
        PursuitConfig(solver=brute_force_solve, max_iterations=0)
    with pytest.raises(ValueError):
        PursuitConfig(solver=brute_force_solve, max_iterations=1, residual_tolerance=-1.0)
    # a nan tolerance used to pass, and the pursuit never stopped on it
    with pytest.raises(ValueError, match="^residual_tolerance must be >= 0, got nan$"):
        PursuitConfig(solver=brute_force_solve, max_iterations=1, residual_tolerance=float("nan"))


@pytest.mark.parametrize("tolerance", [True, np.True_, "1"], ids=["bool", "numpy-bool", "str"])
def test_config_rejects_a_tolerance_that_is_not_a_number(tolerance):
    # True used to be kept as a tolerance of 1, and "1" raised a TypeError
    with pytest.raises(ValueError, match="^residual_tolerance must be a number, got "):
        brute_cfg(residual_tolerance=tolerance)


@pytest.mark.parametrize("tolerance", [1, np.int64(1), np.float32(1.0), float("inf")],
                         ids=["int", "int64", "float32", "inf"])
def test_config_keeps_a_numeric_tolerance_as_a_float(tolerance):
    cfg = brute_cfg(residual_tolerance=tolerance)
    assert type(cfg.residual_tolerance) is float and cfg.residual_tolerance == float(tolerance)
    assert brute_cfg().residual_tolerance is None


def test_zero_marginals_terminate_immediately():
    ms = nearest_neighbor_patterns(4)
    result = matching_pursuit(np.zeros(len(ms)), ms, brute_cfg())
    assert result.termination == Termination.tolerance_met
    assert result.trace == ()
    assert result.recovered.spikes == ()


def test_single_spike_recovered_in_one_iteration():
    ms = nearest_neighbor_patterns(6)
    sig = SparseSignal(6, ((37, 0.8),))
    result = matching_pursuit(measure(sig, ms), ms, brute_cfg())
    assert result.trace[0].position == 37
    # a lone spike's column is deflated exactly: c = (n-1)*v / (n-1) = v
    assert np.isclose(result.trace[0].coefficient, 0.8, atol=1e-12)
    assert result.trace[-1].residual_norm <= 1e-10
    assert result.termination == Termination.tolerance_met


def test_two_spikes_over_six_bits_both_found():
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, 2, seed=21)
    result = matching_pursuit(measure(sig, ms), ms, brute_cfg())
    assert sig.positions() <= result.recovered.positions()
    assert recovery_success(sig, result)


def test_budget_is_respected_and_reported():
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, 3, seed=5)
    result = matching_pursuit(
        measure(sig, ms), ms, brute_cfg(max_iterations=2, residual_tolerance=0.0)
    )
    assert len(result.trace) == 2
    assert result.termination == Termination.max_iterations


def test_score_floor_termination():
    # two copies of one pattern with marginals +1 and -1: every column's
    # dot with the residual is 0, below MIN_SCORE, though the residual is not
    pattern = Pattern(((1, 0), (3, 1)))
    ms = MeasurementSet(4, (pattern, pattern))
    result = matching_pursuit(np.array([1.0, -1.0]), ms, brute_cfg())
    assert result.termination == Termination.score_floor
    assert result.recovered.spikes == ()


def test_degenerate_column_is_an_error():
    ms = MeasurementSet(3, (Pattern(((1, 0),)),))

    def bad_solver(ms_, r_):
        return SolverOutcome(position=0b100, score=1.0)  # bit1=1: matches nothing

    cfg = PursuitConfig(solver=bad_solver, max_iterations=3)
    with pytest.raises(DegenerateColumnError):
        matching_pursuit(np.array([1.0]), ms, cfg)


@settings(max_examples=40)
@given(st.integers(0, 2**31), st.integers(2, 4))
def test_residual_norms_never_increase(seed, s):
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, s, seed=seed)
    result = matching_pursuit(measure(sig, ms), ms, brute_cfg(max_iterations=6))
    norms = [t.residual_norm for t in result.trace]
    for prev, cur in zip(norms, norms[1:]):
        assert cur <= prev * (1 + 1e-10)


@settings(max_examples=40)
@given(st.integers(0, 2**31))
def test_recovered_plus_residual_explains_marginals(seed):
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, 3, seed=seed)
    y = measure(sig, ms)
    result = matching_pursuit(y, ms, brute_cfg(max_iterations=5, residual_tolerance=0.0))
    final_residual = y - measure(result.recovered, ms)
    assert np.isclose(
        np.linalg.norm(final_residual), result.trace[-1].residual_norm, atol=1e-10
    )


def test_reselection_accumulates_into_one_coefficient():
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, 2, seed=7)
    result = matching_pursuit(measure(sig, ms), ms, brute_cfg(residual_tolerance=0.0))
    sums: dict[int, float] = {}
    for t in result.trace:
        sums[t.position] = sums.get(t.position, 0.0) + t.coefficient
    assert len(result.trace) > len(sums)  # this seed does revisit a position
    assert result.coefficients() == {p: v for p, v in sums.items() if v != 0.0}


@given(st.integers(1, 5), st.integers(0, 2**31))
def test_exact_recovery_under_complete_measurements(s, seed):
    ms = complete_patterns(6)
    sig = random_sparse_signal(6, s, seed=seed)
    y = measure(sig, ms)
    result = matching_pursuit(y, ms, brute_cfg())
    assert recovery_success(sig, result)
    assert result.trace[-1].residual_norm <= 1e-8 * np.linalg.norm(y)


def test_chain_solver_plugs_in():
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, 2, seed=3)
    cfg = PursuitConfig(solver=chain_dp_solve, max_iterations=8)
    assert recovery_success(sig, matching_pursuit(measure(sig, ms), ms, cfg))


def test_result_json_shape():
    ms = nearest_neighbor_patterns(4)
    sig = SparseSignal(4, ((6, 0.4),))
    result = matching_pursuit(measure(sig, ms), ms, brute_cfg())
    data = result.to_dict()
    assert data["termination"] == "tolerance_met"
    assert data["recovered"]["spikes"] == [{"pos": 6, "val": pytest.approx(0.4)}]
    assert {"position", "score", "coefficient", "residual_norm"} == set(data["trace"][0])


def test_recovery_success_judges_positions_only():
    truth = SparseSignal(4, ((2, 0.5), (9, 0.7)))
    ms = complete_patterns(4)
    result = matching_pursuit(measure(truth, ms), ms, brute_cfg())
    assert recovery_success(truth, result)
    # a miss on any true position fails, extras are fine
    poorer = SparseSignal(4, ((2, 0.5), (9, 0.7), (11, 0.1)))
    assert recovery_success(truth, matching_pursuit(measure(poorer, ms), ms, brute_cfg()))
    other = SparseSignal(4, ((2, 0.5), (10, 0.7)))
    assert not recovery_success(truth, matching_pursuit(measure(other, ms), ms, brute_cfg()))


def test_recovery_success_applies_amplitude_floor():
    truth = SparseSignal(4, ((2, 0.5),))
    for weight in (AMPLITUDE_FLOOR, -AMPLITUDE_FLOOR):
        below = np.nextafter(weight, 0.0)
        judged = [recovery_success(truth, ReconstructionResult(
            SparseSignal(4, ((2, w),)), (), Termination.max_iterations)) for w in (weight, below)]
        assert judged == [True, False]


def test_recovery_success_rejects_mismatched_n():
    ms = complete_patterns(4)
    truth = SparseSignal(4, ((2, 0.5),))
    result = matching_pursuit(measure(truth, ms), ms, brute_cfg())
    with pytest.raises(ValueError):
        recovery_success(SparseSignal(5, ((2, 0.5),)), result)
