"""qaoa_solve's one lockstep run over H and -H against the two-call path in
`oracles`, bit for bit: position, score, diagnostics, both sampled states
and their samples.  A mirrored lane, which runs -H on H's diagonal with its
gammas negated, is also checked on its own, from starts whose gammas are
exactly zero."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from isingpursuit.qaoa import (
    QaoaParams,
    _expectations,
    _lockstep,
    _mirrored,
    _nelder_mead,
    optimize,
)
from isingpursuit.solvers import SolverSpec, qaoa_solve

from oracles import negated, qaoa_solve_two_calls
from test_qaoa import hamiltonians

# 1 under the default profile, 5 under --hypothesis-profile=ci.
DEPTH = settings.default.max_examples // 100

# Dyadic residuals cancel exactly, so H's diagonal holds +0.0 entries where
# -H's negation would hold -0.0.
RESIDUALS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25]),
    st.floats(-10.0, 10.0, allow_nan=False),
)


@st.composite
def measurement_sets(draw):
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("nn", "quad", "adhoc")))
    if kind == "nn" and n >= 2:
        return nearest_neighbor_patterns(n)
    if kind == "quad" and n >= 4:
        q = draw(st.integers(1, min(3, math.comb(n, 4))))
        return random_quadruplet_patterns(n, q, seed=draw(st.integers(0, 2**31)))
    patterns = []
    for _ in range(draw(st.integers(1, 8))):
        bits = draw(st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True))
        patterns.append(Pattern(tuple((b, draw(st.integers(0, 1))) for b in bits)))
    return MeasurementSet(n, tuple(patterns))


@st.composite
def solve_cases(draw):
    ms = draw(measurement_sets())
    r = np.array(draw(st.lists(RESIDUALS, min_size=len(ms), max_size=len(ms))))
    spec = SolverSpec(
        "qaoa",
        2 * draw(st.integers(1, 4)),
        restarts=draw(st.integers(1, 3)),
        max_evals=draw(st.integers(1, 60)),
        shots=draw(st.integers(1, 64)),
    )
    return ms, r, spec, draw(st.integers(0, 2**32 - 1))


def recorded(solve, ms, r, spec, seed):
    """solve's outcome, with the bytes of every ansatz state it makes and every
    list of samples it draws, in call order."""
    states, samples = [], []
    ansatz_state, sample_candidates = qaoa.ansatz_state, qaoa.sample_candidates

    def record_state(*args, **kwargs):
        state = ansatz_state(*args, **kwargs)
        states.append(state.tobytes())
        return state

    def record_samples(*args, **kwargs):
        drawn = sample_candidates(*args, **kwargs)
        samples.append(drawn)
        return drawn

    with mock.patch.object(qaoa, "ansatz_state", record_state), \
            mock.patch.object(qaoa, "sample_candidates", record_samples):
        out = solve(ms, r, spec, seed)
    return out, states, samples


# H's diagonal is [1, 1, +0.0, +0.0]; -H's is [-1, -1, +0.0, +0.0].
SIGNED_ZEROS = (MeasurementSet(2, (Pattern(((1, 0),)), Pattern(((2, 1),)))),
                np.array([1.0, -0.0]))
# Both values of bit 1 with equal residuals: H is the constant 0.75.
FLAT = (MeasurementSet(1, (Pattern(((1, 0),)), Pattern(((1, 1),)))), np.array([0.75, 0.75]))


@settings(max_examples=100 * DEPTH)
@given(solve_cases())
@example((*SIGNED_ZEROS, SolverSpec("qaoa", 4, restarts=2, max_evals=40, shots=8), 3))
@example((*FLAT, SolverSpec("qaoa", 2, restarts=1, max_evals=10, shots=4), 0))
@example((nearest_neighbor_patterns(4), np.array([1.0, -1.0, 0.5, 0.0] * 3),
          SolverSpec("qaoa", 6, restarts=3, max_evals=60, shots=16), 5))
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


ZERO_GAMMAS = (IsingHamiltonian(2, {frozenset({1}): 1.0}), 2, np.array([0.0, -0.0, 1.3, 0.4]), 50)
# At all-zero angles the state stays uniform and <H> = <Z_1> is exactly zero.
ALL_ZERO = (IsingHamiltonian(2, {frozenset({1}): 1.0}), 1, np.zeros(2), 3)


@settings(max_examples=100 * DEPTH)
@given(st.integers(1, 4).flatmap(lambda p: st.tuples(
    hamiltonians(max_n=8),
    st.just(p),
    st.lists(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 2 * np.pi)),
             min_size=2 * p, max_size=2 * p).map(np.array),
    st.integers(1, 60),
)))
@example(ZERO_GAMMAS)
@example(ALL_ZERO)
def test_mirrored_lane_is_bitwise_a_lane_on_negated_h(case):
    H, p, x0, max_evals = case
    diag, neg_diag = H.diagonal(), negated(H).diagonal()
    ((x, fun, nfev),) = _lockstep([_mirrored(_nelder_mead(x0, max_evals), p)],
                                  lambda angles: -_expectations(diag, H.n, angles))
    ((ref_x, ref_fun, ref_nfev),) = _lockstep([_nelder_mead(x0, max_evals)],
                                              lambda angles: -_expectations(neg_diag, H.n, angles))
    assert (x.tobytes(), repr(fun), nfev) == (ref_x.tobytes(), repr(ref_fun), ref_nfev)
    params = QaoaParams.from_vector(x)
    state = qaoa.ansatz_state(H, params.mirrored())
    assert state.tobytes() == qaoa.ansatz_state(negated(H), params).tobytes()


def test_qaoa_solve_makes_one_optimize_call_and_three_diagonals():
    ms = nearest_neighbor_patterns(4)
    r = np.linspace(-1.0, 1.0, len(ms))
    spec = SolverSpec("qaoa", 4, restarts=2, max_evals=30, shots=16)
    calls = []
    real_optimize = qaoa.optimize

    def spy(*args, **kwargs):
        calls.append((args, kwargs, real_optimize(*args, **kwargs)))
        return calls[-1][2]

    with mock.patch.object(qaoa, "optimize", spy), \
            mock.patch.object(IsingHamiltonian, "diagonal", autospec=True,
                              side_effect=IsingHamiltonian.diagonal) as diagonal:
        out = qaoa_solve(ms, r, spec, 9)
    ((args, kwargs, paired),) = calls
    assert isinstance(args[0], IsingHamiltonian) and kwargs["p"] == spec.depth
    assert paired.evaluations == (out.diagnostics["max_evaluations"]
                                  + out.diagnostics["min_evaluations"])
    assert diagonal.call_count == 3


def test_warm_start_alone_cannot_serve_negated_target():
    H = IsingHamiltonian(1, {frozenset({1}): 1.0})
    init = QaoaParams((0.1,), (0.2,))
    with pytest.raises(ValueError, match="-H needs at least one restart"):
        optimize(H, p=1, restarts=0, init=init, negated_seed=1)
    paired = optimize(H, p=1, restarts=1, max_evals=5, init=init, seed=0, negated_seed=1)
    assert paired.plus.evaluations == 1 + 5 + 5 and paired.minus.evaluations == 5
