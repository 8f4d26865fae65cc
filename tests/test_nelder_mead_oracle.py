"""`qaoa.optimize`, which runs scipy's Nelder-Mead on a one-row workspace,
against scipy's Nelder-Mead run start by start over a wider one
(`oracles.scipy_optimize`).  The outcome, and every start's (x, fun, nfev),
recorded by wrapping `scipy.optimize.minimize`, beside the reference's run
from the same start, must have the same repr, which tells -0.0 from 0.0:
every angle, value and evaluation count, over one to four starts, budgets
that truncate the initial simplex, and warm starts with zero coordinates.
So a fault in the start order, the objective, the options or a start that
loses shows too.  A warm-started result is never worse than the kernel's
value at the warm start."""

from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.qaoa import (
    OptimizeOutcome,
    QaoaParams,
    _expectations,
    _StateBuffers,
    optimize,
)

from oracles import scipy_optimize
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
    return H, p, restarts, max_evals, draw(st.integers(0, 2**32 - 1)), init


FLAT = IsingHamiltonian(3, {frozenset(): 0.9})


@settings(max_examples=100 * DEPTH)
@given(optimize_cases())
@example((FLAT, 2, 2, 69, 0, QaoaParams((0.3, 2.0), (0.0, 5.1))))
@example((FLAT, 2, 1, 4, 1, None))
@example((IsingHamiltonian(2, {frozenset({1}): 1.0}), 2, 1, 50, 3,
          QaoaParams((0.0, -0.0), (1.3, 0.4))))
@example((IsingHamiltonian(2, {frozenset({1}): 1.0}), 1, 0, 3, 5, QaoaParams((0.0,), (0.0,))))
# the p = 1 optimum behind a zero first gamma: the warm lane beats two random
# restarts, and its zero and negative coordinates take scipy's absolute and
# relative initial steps
@example((IsingHamiltonian(3, {frozenset({1, 2}): 1.0, frozenset({3}): -0.6}), 2, 2, 40, 0,
          QaoaParams((0.0, 3.93), (-0.4, 5.15))))
def test_optimize_is_bitwise_sequential_scipy_runs(case):
    H, p, restarts, max_evals, seed, init = case
    lanes = []

    def recorded(*args, **kwargs):
        res = minimize(*args, **kwargs)
        lanes.append((res.x, res.fun, res.nfev))
        return res

    with mock.patch("scipy.optimize.minimize", side_effect=recorded):
        out = optimize(H, p, restarts, max_evals, seed, init)
    best, runs = scipy_optimize(H, p, restarts, max_evals, seed, init)
    assert repr(out) == repr(OptimizeOutcome(*best))
    assert [repr((x.tolist(), fun, nfev)) for x, fun, nfev in lanes] == \
        [repr((x.tolist(), fun, nfev)) for x, fun, nfev in runs]
    if init is not None:  # the simplex's best vertex is never worse than its start
        start = _expectations(_StateBuffers(1, H.n, H.diagonal()), init.to_vector()[None])[0]
        assert out.expectation >= start
