"""matching_pursuit against `oracles.matching_pursuit_reference`, which takes
each step through column_norm_sq, column_dot, a second match vector and
np.linalg.norm: the same result, compared by repr, for brute force on
random, nearest-neighbour and quadruplet sets up to n = 10 and for the
chain solver on nearest-neighbour sets up to the index-width cap.  Random
sets carry incomplete value groups, whose columns overlap unevenly, so the
pursuit re-selects positions it has already taken."""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    column_dot,
    measure,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from isingpursuit.pursuit import PursuitConfig, matching_pursuit
from isingpursuit.signal import random_sparse_signal
from isingpursuit.solvers import brute_force_solve, chain_dp_solve

from oracles import matching_pursuit_reference
from strategies import DEPTH, SCALED_ENTRIES, TIED, pattern_lists

TOLERANCES = st.sampled_from([None, 0.0, 1e-3, 0.5])


def marginals(draw, ms: MeasurementSet) -> np.ndarray:
    """A sparse signal's marginals, or any finite vector with few distinct
    values or with values of every scale."""
    if draw(st.booleans()):
        sparsity = draw(st.integers(1, min(4, 1 << ms.n)))
        signal = random_sparse_signal(ms.n, sparsity, seed=draw(st.integers(0, 2**32)))
        return measure(signal, ms)
    entries = draw(st.sampled_from([SCALED_ENTRIES, TIED]))
    return np.array(draw(st.lists(entries, min_size=len(ms), max_size=len(ms))))


@st.composite
def brute_cases(draw):
    kind = draw(st.sampled_from(["random", "nn", "quad"]))
    if kind == "random":
        n = draw(st.integers(1, 10))
        ms = MeasurementSet(n, tuple(draw(pattern_lists(n))))
    elif kind == "nn":
        ms = nearest_neighbor_patterns(draw(st.integers(2, 10)))
    else:
        n = draw(st.integers(4, 10))
        q = draw(st.integers(1, min(math.comb(n, 4), 4)))
        ms = random_quadruplet_patterns(n, q, seed=draw(st.integers(0, 2**32)))
    return ms, marginals(draw, ms), draw(st.integers(1, 12)), draw(TOLERANCES)


@st.composite
def chain_cases(draw):
    ms = nearest_neighbor_patterns(draw(st.integers(2, 63)))
    return ms, marginals(draw, ms), draw(st.integers(1, 12)), draw(TOLERANCES)


def outcome(pursuit, solver, case) -> str:
    """repr of the result's dict, or of the error the pursuit raised."""
    ms, y, max_iterations, tol = case
    cfg = PursuitConfig(solver=solver, max_iterations=max_iterations, residual_tolerance=tol)
    try:
        return repr(pursuit(y, ms, cfg).to_dict())
    except Exception as exc:  # the reference must raise the same error
        return repr(exc)


# Two overlapping partial groups on bits (1, 2) and (2, 3): the first column
# taken leaves residual on the patterns it shares with others, so the pursuit
# comes back to it.
RESELECTING = (
    MeasurementSet(3, (Pattern(((1, 0), (2, 0))), Pattern(((1, 0), (2, 1))),
                       Pattern(((2, 0), (3, 0))), Pattern(((2, 0), (3, 1))),
                       Pattern(((2, 1), (3, 1))))),
    np.array([1.0, 0.25, 0.5, -0.75, 0.125]),
    12,
    None,
)


def test_the_reselecting_example_reselects():
    ms, y, max_iterations, _ = RESELECTING
    result = matching_pursuit(y, ms, PursuitConfig(brute_force_solve, max_iterations))
    positions = [step.position for step in result.trace]
    assert len(set(positions)) < len(positions)


@settings(max_examples=100 * DEPTH)
@given(brute_cases())
@example(RESELECTING)
# zero marginals stop before the first step
@example((nearest_neighbor_patterns(4), np.zeros(12), 4, None))
def test_brute_pursuit_matches_the_reference(case):
    assert (outcome(matching_pursuit, brute_force_solve, case)
            == outcome(matching_pursuit_reference, brute_force_solve, case))


@settings(max_examples=50 * DEPTH)
@given(chain_cases())
@example((nearest_neighbor_patterns(63), np.resize([0.5, -0.0, 0.0, -0.5], 248), 12, None))
def test_chain_pursuit_matches_the_reference(case):
    assert (outcome(matching_pursuit, chain_dp_solve, case)
            == outcome(matching_pursuit_reference, chain_dp_solve, case))


@settings(max_examples=50 * DEPTH)
@given(brute_cases())
def test_column_dot_is_the_sum_over_its_match_vector(case):
    # the pursuit sums r over the match vector with np.add.reduce, and the
    # reference through column_dot: both must be np.sum's sum
    ms, r, _, _ = case
    for z in range(1 << ms.n):
        expected = float(np.sum(r[ms.match_vector(z)]))
        assert repr(column_dot(z, r, ms)) == repr(expected)
