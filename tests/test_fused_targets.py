"""qaoa_solve's one ramp batch over H and -H against the two-call path in
`oracles`, bit for bit: position, score, diagnostics, both sampled states
and their samples.  Each target of a paired ramp, whose -H rows run on H's
diagonal with their gammas negated, is checked against a ramp on its own
diagonal, as built and normalised."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import MeasurementSet, Pattern, nearest_neighbor_patterns
from isingpursuit.qaoa import optimize
from isingpursuit.solvers import SolverSpec, qaoa_solve

from oracles import negated, qaoa_solve_two_calls
from strategies import DEPTH, hamiltonians, measurement_sets

# Dyadic residuals cancel exactly, so H's diagonal holds +0.0 entries where
# -H's negation would hold -0.0.
RESIDUALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def solve_cases(draw):
    ms = draw(measurement_sets())
    r = np.array(draw(st.lists(RESIDUALS, min_size=len(ms), max_size=len(ms))))
    spec = SolverSpec("qaoa", 2 * draw(st.integers(1, 4)), shots=draw(st.integers(1, 64)))
    return ms, r, spec, draw(st.integers(0, 2**32 - 1))


def recorded(solve, ms, r, spec, seed):
    """solve's outcome, with the bytes of every state it samples and every
    list of samples it draws, in call order."""
    states, samples = [], []
    sample_candidates = qaoa.sample_candidates

    def record_samples(state, *args, **kwargs):
        states.append(state.tobytes())
        samples.append(sample_candidates(state, *args, **kwargs))
        return samples[-1]

    with mock.patch.object(qaoa, "sample_candidates", record_samples):
        out = solve(ms, r, spec, seed)
    return out, states, samples


# H's diagonal is [1, 1, +0.0, +0.0]; -H's is [-1, -1, +0.0, +0.0].
SIGNED_ZERO_DIAGONAL = (MeasurementSet(2, (Pattern(((1, 0),)), Pattern(((2, 1),)))),
                np.array([1.0, -0.0]))
# Both values of bit 1 with equal residuals: H is the constant 0.75.
FLAT = (MeasurementSet(1, (Pattern(((1, 0),)), Pattern(((1, 1),)))), np.array([0.75, 0.75]))


@settings(max_examples=100 * DEPTH)
@given(solve_cases())
@example((*SIGNED_ZERO_DIAGONAL, SolverSpec("qaoa", 4, shots=8), 3))
@example((*FLAT, SolverSpec("qaoa", 2, shots=4), 0))
@example((nearest_neighbor_patterns(4), np.array([1.0, -1.0, 0.5, 0.0] * 3),
          SolverSpec("qaoa", 6, shots=16), 5))
def test_qaoa_solve_is_bitwise_the_two_call_path(case):
    ms, r, spec, seed = case
    out, states, samples = recorded(qaoa_solve, ms, r, spec, seed)
    ref, ref_states, ref_samples = recorded(qaoa_solve_two_calls, ms, r, spec, seed)
    assert (out.position, repr(out.score)) == (ref.position, repr(ref.score))
    # repr tells -0.0 from 0.0 and keeps the key order
    assert repr(out.diagnostics) == repr(ref.diagnostics)
    assert states == ref_states  # the -H state second
    assert samples == ref_samples
    assert set().union(*samples) == set().union(*ref_samples)


@settings(max_examples=50 * DEPTH)
@given(hamiltonians(max_n=8), st.integers(1, 6), st.booleans())
@example(IsingHamiltonian(2, {frozenset({1}): 1.0}), 2, False)
@example(build_hamiltonian(*SIGNED_ZERO_DIAGONAL), 2, False)
def test_each_target_of_a_paired_ramp_is_bitwise_a_ramp_on_its_own_diagonal(H, p, normalise):
    neg_H = negated(H)
    if normalise:
        (H, _), (neg_H, _) = H.normalized(), neg_H.normalized()
    paired = optimize(H, p, schedule="ramp")
    for got, target in ((paired.plus, H), (paired.minus, neg_H)):
        alone = optimize(target, p, schedule="ramp").plus
        assert repr(got) == repr(alone)
        assert alone.evaluations == len(qaoa.ramp_grid(p))


def test_qaoa_solve_makes_one_optimize_call_and_one_diagonal():
    ms = nearest_neighbor_patterns(4)
    r = np.linspace(-1.0, 1.0, len(ms))
    spec = SolverSpec("qaoa", 4, restarts=2, max_evals=30, shots=16)
    calls, evolved, diagonals = [], [], []
    real_optimize, real_ansatz_state = qaoa.optimize, qaoa.ansatz_state
    real_diagonal = IsingHamiltonian.diagonal

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real_optimize(*args, **kwargs)))
        return calls[-1][2]

    def ansatz_state(H, params):
        # an optimize call is listed only once it returns
        evolved.append((H, len(params), len(calls)))
        return real_ansatz_state(H, params)

    def diagonal(H):
        diagonals.append((H, real_diagonal(H)))
        return diagonals[-1][1]

    with mock.patch.object(qaoa, "optimize", spy), \
            mock.patch.object(qaoa, "ansatz_state", ansatz_state), \
            mock.patch.object(IsingHamiltonian, "diagonal", diagonal):
        out = qaoa_solve(ms, r, spec, 9)
    ((args, kwargs, paired),) = calls
    scaled = args[0]
    assert isinstance(scaled, IsingHamiltonian) and kwargs["p"] == spec.depth
    # one evolution of every ramp row, inside the optimize call; the solve
    # samples the states that call returns
    ((evolved_H, rows, finished),) = evolved
    assert evolved_H is scaled and rows == 2 * len(qaoa.ramp_grid(spec.depth)) and finished == 0
    assert paired.evaluations == (out.diagnostics["max_evaluations"]
                                  + out.diagnostics["min_evaluations"])
    # one raw diagonal, then the scaled one, made once and read by the ramp's
    # states and by its expectations
    (H, d), (by_states, scaled_d), (by_values, values_d) = diagonals
    assert H is not scaled and by_states is by_values is scaled and values_d is scaled_d
    s = out.diagnostics["scale"]
    assert s == np.abs(d - d.mean()).max() and s > 0.0
    assert scaled_d.tobytes() == (d / s).tobytes() and not scaled_d.flags.writeable


def test_qaoa_solve_reads_no_search_budget():
    # the ramp picks the angles, so restarts and max_evals change nothing
    ms, r = nearest_neighbor_patterns(4), np.linspace(-1.0, 1.0, 12)
    outs = [qaoa_solve(ms, r, SolverSpec("qaoa", 4, restarts, max_evals, 16), 9)
            for restarts, max_evals in ((1, 1), (10, 200), (3, 7))]
    assert len({repr(out) for out in outs}) == 1
    assert outs[0].diagnostics["max_evaluations"] == len(qaoa.ramp_grid(2))
