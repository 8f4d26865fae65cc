"""`qaoa.optimize`'s search, scipy's Nelder-Mead run from each start in
turn on a one-row workspace.  Its outcomes on nine fixed cases are pinned
by repr, which tells -0.0 from 0.0: every angle, value and evaluation
count, over one to four starts, budgets that truncate the initial simplex,
flat diagonals and warm starts with zero coordinates.  Its wiring is
checked on the recorded `scipy.optimize.minimize` calls: the warm start
first, then the seeded draws, in order; the method and options; an
objective whose value at each start is bitwise minus the per-qubit
kernel's expectation; all starts' evaluations counted; and the first best
start kept.  A warm-started result is never worse than the objective's
value at the warm start."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import measure, nearest_neighbor_patterns, random_quadruplet_patterns
from isingpursuit.qaoa import QaoaParams, optimize
from isingpursuit.signal import random_sparse_signal

from oracles import evolve_per_qubit, expectations_per_row
from strategies import DEPTH, hamiltonians

WARM_ANGLES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2 * np.pi, 2 * np.pi))

FLAT = IsingHamiltonian(3, {frozenset(): 0.9})
FIELD = IsingHamiltonian(2, {frozenset({1}): 1.0})
# the p = 1 optimum behind a zero first gamma: the warm start beats two random
# restarts, and its zero and negative coordinates take scipy's absolute and
# relative initial steps
BEHIND_ZERO = (IsingHamiltonian(3, {frozenset({1, 2}): 1.0, frozenset({3}): -0.6}), 2, 2, 40, 0,
               QaoaParams((0.0, 3.93), (-0.4, 5.15)))


def _built(ms, n: int, s: int, seed: int) -> IsingHamiltonian:
    return build_hamiltonian(ms, measure(random_sparse_signal(n, s, seed=seed), ms))


# (H, p, restarts, max_evals, seed, init) and the outcome's repr
PINNED = [
    ((FLAT, 2, 2, 69, 0, QaoaParams((0.3, 2.0), (0.0, 5.1))),
     "OptimizeOutcome(params=QaoaParams(gammas=(5.109927617709579, 5.735012432197602), "
     "betas=(3.811604993109835, 4.798416545813291)), expectation=0.9000000000000015, "
     "evaluations=207)"),
    ((FLAT, 2, 1, 4, 1, None),
     "OptimizeOutcome(params=QaoaParams(gammas=(3.2158701122134374, 5.971939531762716), "
     "betas=(0.9510706385551372, 5.960540267916768)), expectation=0.9000000000000006, "
     "evaluations=4)"),
    ((IsingHamiltonian(2, {frozenset(): -0.0}), 1, 1, 2, 2, None),
     "OptimizeOutcome(params=QaoaParams(gammas=(1.6437575180951982,), "
     "betas=(1.8754751666228542,)), expectation=0.0, evaluations=2)"),
    ((FIELD, 2, 1, 50, 3, QaoaParams((0.0, -0.0), (1.3, 0.4))),
     "OptimizeOutcome(params=QaoaParams(gammas=(0.5796958282393043, 1.3622492708226905), "
     "betas=(4.705733316761824, 3.9166130029037394)), expectation=0.9999474097780601, "
     "evaluations=100)"),
    ((FIELD, 1, 0, 3, 5, QaoaParams((0.0,), (0.0,))),
     "OptimizeOutcome(params=QaoaParams(gammas=(0.0,), betas=(0.0,)), expectation=0.0, "
     "evaluations=3)"),
    (BEHIND_ZERO,
     "OptimizeOutcome(params=QaoaParams(gammas=(0.0008480257366022102, 3.923784839808175), "
     "betas=(-0.38825221517817654, 5.149836086695274)), expectation=1.4450614598100577, "
     "evaluations=120)"),
    ((IsingHamiltonian(4, {frozenset({1, 2}): 0.5, frozenset({2, 3, 4}): -1.25,
                           frozenset({4}): 0.75, frozenset(): 0.1}), 2, 3, 60, 7, None),
     "OptimizeOutcome(params=QaoaParams(gammas=(5.679215611375851, 2.5451231882370298), "
     "betas=(2.025448942107864, 1.9843699023321353)), expectation=1.361294018183704, "
     "evaluations=180)"),
    ((_built(random_quadruplet_patterns(6, 3, seed=6), 6, 3, 6).normalized()[0], 3, 2, 90, 11, None),
     "OptimizeOutcome(params=QaoaParams(gammas=(1.7862256221433217, 2.3021743719510956, "
     "-0.9607064828532108), betas=(0.18499019867990318, 1.846052754498431, "
     "4.799893883877676)), expectation=0.4785988806087041, evaluations=180)"),
    ((_built(nearest_neighbor_patterns(8), 8, 2, 8), 1, 3, 25, 5, QaoaParams((0.4,), (-0.0,))),
     "OptimizeOutcome(params=QaoaParams(gammas=(0.40980469676745634,), "
     "betas=(0.6925235942071617,)), expectation=3.3193035203263426, evaluations=100)"),
]


@pytest.mark.parametrize("case, pinned", PINNED, ids=[
    "flat-warm", "flat-truncated", "negative-zero-truncated", "field-warm-zeros", "warm-only",
    "behind-zero", "quad-n4", "quad-n6", "nn-n8-warm"])
def test_search_outcomes_are_pinned(case, pinned):
    assert repr(optimize(*case)) == pinned


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


@settings(max_examples=100 * DEPTH)
@given(optimize_cases())
@example(PINNED[0][0])
@example(PINNED[4][0])
@example(BEHIND_ZERO)
def test_the_search_runs_nelder_mead_from_each_start_in_turn(case):
    H, p, restarts, max_evals, seed, init = case
    calls = []

    def recorded(objective, x0, **kwargs):
        calls.append((objective, x0.copy(), kwargs, minimize(objective, x0, **kwargs)))
        return calls[-1][3]

    with mock.patch("scipy.optimize.minimize", side_effect=recorded):
        out = optimize(H, p, restarts, max_evals, seed, init)
    rng = np.random.default_rng(seed)
    starts = [] if init is None else [init.to_vector()]
    starts.extend(rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts))
    assert [x0.tobytes() for _, x0, _, _ in calls] == [x.tobytes() for x in starts]
    options = {"maxfev": max_evals, "xatol": qaoa.XATOL, "fatol": qaoa.FATOL}
    assert all(kwargs == {"method": "Nelder-Mead", "options": options} for _, _, kwargs, _ in calls)
    diag = H.diagonal()
    with np.errstate(all="ignore"):
        for objective, x0, _, _ in calls:
            value = expectations_per_row(evolve_per_qubit(diag, H.n, x0[None]), diag)[0]
            assert (-objective(x0)).tobytes() == value.tobytes()
    values = [-float(res.fun) for _, _, _, res in calls]
    best = values.index(max(values))  # the first best; no value is NaN here
    assert repr(out) == repr(qaoa.OptimizeOutcome(
        QaoaParams.from_vector(calls[best][3].x), values[best],
        sum(res.nfev for _, _, _, res in calls)))
    if init is not None:  # the simplex's best vertex is never worse than its start
        assert out.expectation >= -calls[0][0](init.to_vector())
