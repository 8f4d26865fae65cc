"""The table kernel's three callers against their reference forms in
`oracles`, bit for bit: A^T r by runs of patterns, H's diagonal by sign
tables, and build_hamiltonian by ordered accumulation over the set's
expansion plan."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    _add_table,
    all_column_dots,
    nearest_neighbor_patterns,
)

from oracles import all_column_dots_masked, build_hamiltonian_itertools, diagonal_per_term

# 1 under the default profile, 5 under --hypothesis-profile=ci.
DEPTH = settings.default.max_examples // 100

ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-60, 20)),
)


def bits_of(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def pattern_lists(draw, n):
    """Blocks of patterns on a few shared position sets: whole groups in
    binary order, and partial groups with repeated values and unsorted
    constraint tuples.  Blocks on one position set may interleave."""
    position_sets = draw(st.lists(
        st.lists(st.integers(1, n), unique=True, max_size=min(n, 5)), min_size=2, max_size=3,
    ))
    patterns = []
    for _ in range(draw(st.integers(2, 8))):
        positions = draw(st.sampled_from(position_sets))
        k = len(positions)
        if draw(st.booleans()):
            values = range(1 << k)
            positions = sorted(positions)
        else:
            values = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1, max_size=1 << k))
        for v in values:
            fixed = [(b, (v >> (k - 1 - i)) & 1) for i, b in enumerate(positions)]
            patterns.append(Pattern(tuple(draw(st.permutations(fixed)))))
    return patterns


@st.composite
def measurement_cases(draw):
    n = draw(st.integers(1, 12))
    patterns = draw(pattern_lists(n))
    r = draw(st.lists(ENTRIES, min_size=len(patterns), max_size=len(patterns)))
    return MeasurementSet(n, tuple(patterns)), np.array(r)


# An index matching the second, third and fourth patterns sums them in that
# order; merging the two runs on bit 1 would add the fourth first.
INTERLEAVED = (
    MeasurementSet(3, (Pattern(((1, 0),)), Pattern(((2, 0),)), Pattern(((3, 0),)),
                       Pattern(((1, 1),)))),
    np.array([0.5, 1.0, 1e-16, -1.0]),
)


@settings(max_examples=300 * DEPTH)
@given(measurement_cases())
@example(INTERLEAVED)
def test_all_column_dots_is_bitwise_the_masked_passes(case):
    ms, r = case
    assert np.array_equal(bits_of(all_column_dots(r, ms)), bits_of(all_column_dots_masked(r, ms)))


@settings(max_examples=200 * DEPTH)
@given(st.integers(1, 16).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), unique=True, max_size=n).map(sorted),
)), st.integers(0, 2**31))
def test_add_table_is_bitwise_a_gathered_add(n_bits, seed):
    n, bits = n_bits
    rng = np.random.default_rng(seed)
    table = rng.normal(size=1 << len(bits)) * rng.choice([0.0, -0.0, 1.0, 1e-12], size=1 << len(bits))
    # the callers' accumulators start at +0.0 and so never hold -0.0
    acc = np.where(rng.random(1 << n) < 0.5, rng.normal(size=1 << n), 0.0)
    zs = np.arange(1 << n)
    v = np.zeros(1 << n, dtype=np.int64)
    for bit in bits:
        v = 2 * v + ((zs >> (n - bit)) & 1)
    expected = acc + table[v]
    _add_table(acc, n, tuple(bits), table)
    assert np.array_equal(bits_of(acc), bits_of(expected))


@st.composite
def hamiltonians(draw):
    n = draw(st.integers(1, 12))
    supports = draw(st.lists(
        st.frozensets(st.integers(1, n), max_size=min(n, 6)), max_size=12, unique=True,
    ))
    return IsingHamiltonian(n, {s: draw(ENTRIES) for s in supports})


@settings(max_examples=200 * DEPTH)
@given(hamiltonians())
def test_diagonal_is_bitwise_the_per_term_products(H):
    assert np.array_equal(bits_of(H.diagonal()), bits_of(diagonal_per_term(H)))


# The widest plan blocks: up to 248 entries on the empty support, whose sum
# a pairwise order would round differently.
WIDE_CHAINS = [
    (nearest_neighbor_patterns(n),
     np.resize([0.1, 0.0, -1 / 3, 1e-17, -0.0, 2.7, 0.7], 4 * (n - 1)))
    for n in (48, 63)
]

# The zero first pattern names {2} before {1}; the dict loop skips it, so
# its keys start with the second pattern's {1} and {3}.
LATE_START = (
    MeasurementSet(3, (Pattern(((2, 0),)), Pattern(((1, 0), (3, 1))), Pattern(((2, 1),)))),
    np.array([0.0, 0.5, 0.25]),
)

# r_i / 2**k underflows to +-0.0, yet the loop does not skip such a pattern:
# the first one fixes the key order, {2} before {1}, though only the second
# adds nonzero values.
SUBNORMAL = (
    MeasurementSet(2, (Pattern(((2, 0), (1, 0))), Pattern(((1, 1), (2, 0))),
                       Pattern(((2, 1),)))),
    np.array([5e-324, 1.0, -5e-324]),
)


@settings(max_examples=200 * DEPTH)
@given(measurement_cases())
@example(INTERLEAVED)
@example(WIDE_CHAINS[0])
@example(WIDE_CHAINS[1])
@example(LATE_START)
@example(SUBNORMAL)
def test_build_hamiltonian_is_term_for_term_the_itertools_expansion(case):
    ms, r = case
    H, oracle = build_hamiltonian(ms, r), build_hamiltonian_itertools(ms, r)
    assert list(H.terms) == list(oracle.terms)
    assert np.array_equal(bits_of(list(H.terms.values())), bits_of(list(oracle.terms.values())))
    if ms.n <= 16:  # the wide chains have no 2**n diagonal to compare
        assert np.array_equal(bits_of(H.diagonal()), bits_of(diagonal_per_term(H)))
