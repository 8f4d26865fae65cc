"""chain_dp_solve against the numpy-array form of the chain dynamic program
in `oracles`: the same position, score and diagnostics, compared by repr,
on nearest-neighbour sets of every size up to the index-width cap."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.measurement import nearest_neighbor_patterns
from isingpursuit.solvers import chain_dp_solve

from oracles import chain_dp_solve_arrays
from test_table_kernel import DEPTH, ENTRIES

# Few distinct values, many of them equal or zero: fields and couplings
# that tie, so the DP's tie rule decides the position.
TIED = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
RESIDUAL_ENTRIES = st.sampled_from([ENTRIES, TIED, st.one_of(ENTRIES, TIED)])


@st.composite
def chain_cases(draw):
    ms = nearest_neighbor_patterns(draw(st.integers(2, 63)))
    entries = draw(RESIDUAL_ENTRIES)
    r = draw(st.lists(entries, min_size=len(ms), max_size=len(ms)))
    return ms, np.array(r)


def fingerprint(out) -> str:
    """repr of the outcome, with numpy scalars as the floats they hold."""
    plain = {k: v if isinstance(v, str) else float(v) for k, v in out.diagnostics.items()}
    return repr((out.position, float(out.score), plain))


@settings(max_examples=100 * DEPTH)
@given(chain_cases())
@example((nearest_neighbor_patterns(5), np.zeros(16)))
@example((nearest_neighbor_patterns(4), np.array([1.0, 0.0, 0.0, 1.0] * 3)))
def test_chain_dp_matches_the_array_oracle(case):
    ms, r = case
    assert fingerprint(chain_dp_solve(ms, r)) == fingerprint(chain_dp_solve_arrays(ms, r))
