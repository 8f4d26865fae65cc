"""`qaoa.optimize`, whose `_lockstep` runs -H's lanes under a row sign
and whose Nelder-Mead step takes scipy's arrays in fewer numpy calls,
against scipy's Nelder-Mead run start by start: `oracles.scipy_optimize`
on H with `seed`, and on `oracles.negated(H)` with `negated_seed`.  The
outcomes, and every lane's (x, fun, nfev) beside scipy's run from the same
start, must have the same repr, which tells -0.0 from 0.0: every angle,
value and evaluation count, over one to seven lanes, budgets that truncate
the initial simplex, and warm starts with zero coordinates.  So a fault in
a lane that loses shows too.  A warm-started result is never worse than
the kernel's value at the warm start."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.qaoa import (
    OptimizeOutcome,
    PairedOutcome,
    QaoaParams,
    _expectations,
    _StateBuffers,
    optimize,
)

from oracles import negated, scipy_optimize
from strategies import DEPTH, hamiltonians

WARM_ANGLES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2 * np.pi, 2 * np.pi))


@st.composite
def flat_hamiltonians(draw):
    """A constant diagonal: every value ties, so most steps shrink."""
    n = draw(st.integers(1, 8))
    return IsingHamiltonian(n, {frozenset(): draw(st.sampled_from([0.0, -0.0, 0.9, -2.0]))})


@st.composite
def optimize_cases(draw):
    H = draw(st.one_of(hamiltonians(max_n=8), flat_hamiltonians()))
    p = draw(st.integers(1, 5))
    # budgets below 2p + 1 truncate the initial simplex
    max_evals = draw(st.integers(1, 90))
    init = None
    if draw(st.booleans()):
        x = draw(st.lists(WARM_ANGLES, min_size=2 * p, max_size=2 * p))
        init = QaoaParams(tuple(x[:p]), tuple(x[p:]))
    restarts = draw(st.integers(0 if init is not None else 1, 3))
    negated_seed = draw(st.none() | st.integers(0, 2**32 - 1)) if restarts else None
    return H, p, restarts, max_evals, draw(st.integers(0, 2**32 - 1)), init, negated_seed


FLAT = IsingHamiltonian(3, {frozenset(): 0.9})


@settings(max_examples=100 * DEPTH)
@given(optimize_cases())
@example((FLAT, 2, 2, 69, 0, QaoaParams((0.3, 2.0), (0.0, 5.1)), 7))
@example((FLAT, 2, 1, 4, 1, None, 2))
@example((IsingHamiltonian(2, {frozenset({1}): 1.0}), 2, 1, 50, 3,
          QaoaParams((0.0, -0.0), (1.3, 0.4)), 4))
@example((IsingHamiltonian(2, {frozenset({1}): 1.0}), 1, 0, 3, 5, QaoaParams((0.0,), (0.0,)), None))
# the p = 1 optimum behind a zero first gamma: the warm lane beats two random
# restarts, and its zero and negative coordinates take scipy's absolute and
# relative initial steps
@example((IsingHamiltonian(3, {frozenset({1, 2}): 1.0, frozenset({3}): -0.6}), 2, 2, 40, 0,
          QaoaParams((0.0, 3.93), (-0.4, 5.15)), None))
def test_optimize_is_bitwise_sequential_scipy_runs(case):
    H, p, restarts, max_evals, seed, init, negated_seed = case
    lanes, lockstep = [], qaoa._lockstep

    def recorded(*args):
        lanes.extend(lockstep(*args))
        return lanes

    with mock.patch.object(qaoa, "_lockstep", recorded):
        out = optimize(H, p, restarts, max_evals, seed, init, negated_seed=negated_seed)
    best, runs = scipy_optimize(H, p, restarts, max_evals, seed, init)
    ref = OptimizeOutcome(*best)
    if negated_seed is not None:
        best, neg_runs = scipy_optimize(negated(H), p, restarts, max_evals, negated_seed)
        ref, runs = PairedOutcome(ref, OptimizeOutcome(*best)), runs + neg_runs
    assert repr(out) == repr(ref)
    assert [repr((x.tolist(), fun, nfev)) for x, fun, nfev in lanes] == \
        [repr((x.tolist(), fun, nfev)) for x, fun, nfev in runs]
    if init is not None:  # the simplex's best vertex is never worse than its start
        start = _expectations(_StateBuffers(1, H.n, H.diagonal()), init.to_vector()[None])[0]
        assert (out if negated_seed is None else out.plus).expectation >= start
