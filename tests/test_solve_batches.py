"""The work a QAOA solve does once, against what it did per call, bit for
bit: the pooled candidates rescored in one pass (`measurement.column_dots`
and `solvers._rescore`) against one `column_dot` call per candidate, on
sets whose indices match from none to over 128 patterns, where numpy's
pairwise sum changes shape; and each row of a batched `ansatz_state`
against the single-params call.  The diagonal a Hamiltonian keeps is
checked in `test_table_kernel.py`."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.measurement import MeasurementSet, Pattern, column_dot, column_dots
from isingpursuit.qaoa import QaoaParams, ansatz_state
from isingpursuit.solvers import _rescore

from oracles import rescore_per_candidate
from strategies import (
    ANGLES,
    DEPTH,
    SCALED_ENTRIES,
    TIED,
    hamiltonians,
    measurement_sets,
    overwrite,
    wide_values,
)


def graded_set() -> MeasurementSet:
    """On 4 bits, indices with bit 1 at 0 match 141 to 152 patterns and
    the others 0 to 14: counts below 8, from 8 to 128, and above 128."""
    patterns = ([Pattern(((1, 0),))] * 141 + [Pattern(((2, 0),))] * 10
                + [Pattern(((3, 0), (1, 1)))] * 3 + [Pattern(((4, 0),))])
    return MeasurementSet(4, tuple(patterns))


@st.composite
def rescoring_cases(draw):
    """A set of 1 to 300 patterns, each fixing 0 to 3 of n bits, or a set
    from `measurement_sets`; residuals of every scale with signed zeros, or
    from a few tied values; and sorted distinct candidates."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        patterns = []
        for _ in range(draw(st.integers(1, 300))):
            bits = rng.permutation(np.arange(1, n + 1))[:rng.integers(0, min(n, 3) + 1)]
            patterns.append(Pattern(tuple((int(b), int(rng.integers(0, 2))) for b in bits)))
        ms = MeasurementSet(n, tuple(patterns))
    else:
        ms = draw(measurement_sets())
    if draw(st.booleans()):
        r = wide_values(rng, len(ms))
        overwrite(draw, r, SCALED_ENTRIES)
    else:
        r = np.array(draw(st.lists(TIED, min_size=len(ms), max_size=len(ms))))
    candidates = np.unique(rng.integers(0, 1 << ms.n, size=draw(st.integers(1, 64))))
    return ms, r, candidates


def assert_rescored_per_candidate(ms, r, candidates):
    dots = column_dots(candidates, r, ms)
    expected = np.array([column_dot(z, r, ms) for z in candidates.tolist()])
    assert dots.tobytes() == expected.tobytes()
    assert (repr(_rescore(candidates.tolist(), r, ms))
            == repr(rescore_per_candidate(candidates.tolist(), r, ms)))


@settings(max_examples=100 * DEPTH)
@given(rescoring_cases())
@example((graded_set(), np.linspace(-1.0, 1.0, 155), np.arange(16)))
@example((graded_set(), np.array([0.5, -0.5] * 77 + [-0.0]), np.arange(16)))
def test_one_rescoring_pass_is_bitwise_one_column_dot_per_candidate(case):
    assert_rescored_per_candidate(*case)


def test_graded_set_reaches_every_shape_of_the_pairwise_sum():
    ms = graded_set()
    counts = {int(ms.match_vector(z).sum()) for z in range(16)}
    assert min(counts) == 0 and any(8 <= c <= 128 for c in counts) and max(counts) > 128
    rng = np.random.default_rng(0)
    for r in (wide_values(rng, len(ms)), np.full(len(ms), -0.0), np.ones(len(ms))):
        assert_rescored_per_candidate(ms, r, np.arange(16))


# Index 0 matches both patterns and sums inf + -inf; index 1 matches the first.
NAN_SET = MeasurementSet(1, (Pattern(()), Pattern(((1, 0),))))


@pytest.mark.parametrize("candidates, expected", [([0, 1], (1, np.inf)), ([0], (-1, -1.0))])
def test_nan_scores_never_win(candidates, expected):
    r = np.array([np.inf, -np.inf])
    with np.errstate(invalid="ignore"):
        assert _rescore(candidates, r, NAN_SET) == expected
        assert rescore_per_candidate(candidates, r, NAN_SET) == expected


@st.composite
def params_batches(draw):
    """1 to 4 sets of angles of one depth, with signed zeros and extremes."""
    p = draw(st.integers(1, 4))
    layer = st.lists(ANGLES, min_size=p, max_size=p).map(tuple)
    return [QaoaParams(draw(layer), draw(layer)) for _ in range(draw(st.integers(1, 4)))]


@settings(max_examples=100 * DEPTH)
@given(hamiltonians(max_n=8), params_batches())
def test_each_row_of_a_batched_ansatz_state_is_bitwise_the_single_call(H, batch):
    with np.errstate(all="ignore"):
        states = ansatz_state(H, batch)
        assert states.shape == (len(batch), 1 << H.n)
        for row, params in zip(states, batch):
            assert row.tobytes() == ansatz_state(H, params).tobytes()


@pytest.mark.parametrize("batch", [
    [], [QaoaParams((0.1,), (0.2,)), QaoaParams((0.1, 0.3), (0.2, 0.4))],
])
def test_a_batch_needs_params_of_one_depth(batch):
    H = IsingHamiltonian(2, {frozenset({1}): 1.0})
    with pytest.raises(ValueError, match="one or more QaoaParams of one depth"):
        ansatz_state(H, batch)
