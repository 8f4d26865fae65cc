"""The table kernel's callers against their reference forms in `oracles`,
bit for bit: A^T r by runs of patterns, H's diagonal by sign tables, and
build_hamiltonian by the Walsh-Hadamard transform of each run's table,
summed in the builder's order."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import COEFF_PRUNE_TOL, IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    _add_table,
    all_column_dots,
    complete_patterns,
    nearest_neighbor_patterns,
)

from oracles import (
    all_column_dots_masked,
    build_hamiltonian_itertools,
    build_hamiltonian_walsh,
    diagonal_per_term,
)

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
    binary order on up to 5 positions, and on up to 8 positions partial
    groups, single patterns among them, with repeated values and unsorted
    constraint tuples.  Blocks on one position set may interleave."""
    position_sets = draw(st.lists(
        st.lists(st.integers(1, n), unique=True, max_size=min(n, 8)), min_size=2, max_size=3,
    ))
    patterns = []
    for _ in range(draw(st.integers(2, 8))):
        positions = draw(st.sampled_from(position_sets))
        k = len(positions)
        if k <= 5 and draw(st.booleans()):
            values = range(1 << k)
            positions = sorted(positions)
        else:
            values = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                                   max_size=min(1 << k, 8)))
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


# The longest sums: up to 248 entries on the empty support, whose sum a
# pairwise order would round differently.
WIDE_CHAINS = [
    (nearest_neighbor_patterns(n),
     np.resize([0.1, 0.0, -1 / 3, 1e-17, -0.0, 2.7, 0.7], 4 * (n - 1)))
    for n in (48, 63)
]

# One 32-entry table of mixed magnitudes: a blocked or pairwise sum over its
# values rounds 26 of the 32 transform entries differently.
WIDE_TABLE = (
    complete_patterns(5),
    np.resize([0.1, -1 / 3, 1e8, 2.7, -1e-8, 0.7, 1e3], 32),
)

# The zero first pattern names {2} before the second names {1} and {3}, so
# {2} leads the keys after the empty support: key order is the set's,
# whatever r holds.
LATE_START = (
    MeasurementSet(3, (Pattern(((2, 0),)), Pattern(((1, 0), (3, 1))), Pattern(((2, 1),)))),
    np.array([0.0, 0.5, 0.25]),
)

# r_i / 2**k underflows to +-0.0 in the first and last patterns.  The run of
# the first two names {2} before {1}, in the order of its table bits, so {2}
# leads the keys after the empty support, though only the second pattern adds
# nonzero values.
SUBNORMAL = (
    MeasurementSet(2, (Pattern(((2, 0), (1, 0))), Pattern(((1, 1), (2, 0))),
                       Pattern(((2, 1),)))),
    np.array([5e-324, 1.0, -5e-324]),
)

# The two orders put the empty support's total on either side of the pruning
# threshold: summed pattern by pattern, the two twenties cancel first and
# leave 1.5e-15; summed run by run, the second run's -20 + 1.5e-15 rounds to
# -20 and the total to 0.0.
THRESHOLD = (
    MeasurementSet(2, (Pattern(((1, 0),)), Pattern(((2, 0),)), Pattern(((2, 1),)))),
    np.array([40.0, -40.0, 3e-15]),
)

# Both coefficients are about 2.6e-13, while the sums pass through 500: the
# orders differ by 2.4e-14, a tenth of the largest coefficient, but well
# within 1e-12 of the sum of the addends' magnitudes.
CANCELLING = (
    MeasurementSet(1, (Pattern(((1, 0),)), Pattern(((1, 0),)), Pattern(((1, 1),)))),
    np.array([1e3, -1e3, 5.2e-13]),
)

# Four runs on bit 1; the second and fourth hold two patterns, the first and
# third one.  Summed run by run, 20 + 1.5e-15 rounds to 20 before the -20
# comes in and the empty support's total is 0.0; summed with the one-pattern
# runs first, the twenties cancel and 1.5e-15 is kept.
RUN_ORDER = (
    MeasurementSet(1, (Pattern(((1, 0),)), Pattern(((1, 0),)), Pattern(((1, 1),)),
                       Pattern(((1, 0),)), Pattern(((1, 0),)), Pattern(((1, 1),)))),
    np.array([40.0, 3e-15, 0.0, -40.0, 0.0, 0.0]),
)

# One run whose values come as 3, 0, 1: summed in set order, -10 + 10 cancels
# before 3e-15 comes in; summed in value order, 10 + 3e-15 rounds up to the
# next double first.
PATTERN_ORDER = (
    MeasurementSet(2, (Pattern(((1, 1), (2, 1))), Pattern(((1, 0), (2, 0))),
                       Pattern(((1, 0), (2, 1))))),
    np.array([-40.0, 40.0, 1.2e-14]),
)

# One pattern fixing 14 bits: its transform is 2**14 entries, one row of
# signs, as cheap as expanding the pattern's subsets.
WIDE_PATTERN = (
    MeasurementSet(18, (Pattern(tuple((b, b % 2) for b in range(1, 15))),)),
    np.array([0.3]),
)

# Relative to the largest sum of addend magnitudes, sum_i |r_i| / 2**k_i:
# either order rounds a support's total by at most (m - 1) * 2**-53 times the
# sum of its m addends' magnitudes, and no case here has a thousand addends
# on one support.
ORDER_TOL = 1e-12


@settings(max_examples=200 * DEPTH)
@given(measurement_cases(), st.integers(0, 2**32 - 1))
@example(INTERLEAVED, 0)
@example(WIDE_CHAINS[0], 1)
@example(WIDE_CHAINS[1], 2)
@example(WIDE_TABLE, 7)
@example(LATE_START, 3)
@example(SUBNORMAL, 4)
@example(THRESHOLD, 5)
@example(CANCELLING, 6)
@example(WIDE_PATTERN, 8)
@example(RUN_ORDER, 9)
@example(PATTERN_ORDER, 10)
def test_build_hamiltonian_is_bitwise_the_walsh_oracle_and_the_itertools_sum_up_to_order(
    case, seed
):
    ms, r = case
    # one transform row per pattern: m * 2**k products for a run of m patterns
    rows = [rows for _, rows, _ in ms._transform_plan[2]]
    assert sum(a.size for a in rows) == sum(1 << len(p.constraints) for p in ms.patterns)
    H, oracle = build_hamiltonian(ms, r), build_hamiltonian_walsh(ms, r)
    assert list(H.terms) == list(oracle.terms)
    assert np.array_equal(bits_of(list(H.terms.values())), bits_of(list(oracle.terms.values())))
    if ms.n <= 16:  # the wide chains have no 2**n diagonal to compare
        assert np.array_equal(bits_of(H.diagonal()), bits_of(diagonal_per_term(H)))

    # The pattern-by-pattern sum: the same supports and coefficients up to
    # summation order, a key differing only where one order's total lies
    # within that rounding of the pruning threshold.
    itertools_terms = build_hamiltonian_itertools(ms, r).terms
    tol = ORDER_TOL * sum(abs(float(ri)) / 2**len(p.constraints) for p, ri in zip(ms.patterns, r))
    both = H.terms.keys() & itertools_terms.keys()
    for support in H.terms.keys() | itertools_terms.keys():
        ours, theirs = H.terms.get(support, 0.0), itertools_terms.get(support, 0.0)
        assert abs(ours - theirs) <= tol
        if support not in both:
            assert max(abs(ours), abs(theirs)) < COEFF_PRUNE_TOL + tol
    # On multiples of 1/16 of at most 2**20 every partial sum is exact, so
    # the orders agree bit for bit.
    dyadic = np.round(np.clip(r, -2**20, 2**20) * 16) / 16
    ours = build_hamiltonian(ms, dyadic).terms
    theirs = build_hamiltonian_itertools(ms, dyadic).terms
    assert ours.keys() == theirs.keys()
    assert all(bits_of(ours[s]) == bits_of(theirs[s]) for s in ours)

    # Key order is the set's: zeroing entries of r keeps the order of the
    # supports that both builds keep.
    zeroed = np.where(np.random.default_rng(seed).random(len(r)) < 0.5, 0.0, r)
    kept = build_hamiltonian(ms, zeroed).terms
    assert [s for s in kept if s in H.terms] == [s for s in H.terms if s in kept]
