"""The table kernel and the transforms against their reference forms in
`oracles`, bit for bit: A^T r by runs of patterns or by the prefix stages
of a sliding-window set (the memoised nearest-neighbour sets are its
width-2 draws), H's diagonal by the Walsh-Hadamard transform of its
placed totals, kept read-only on random and built Hamiltonians, and
build_hamiltonian by the Walsh-Hadamard transform of each run's table,
summed in the builder's order."""

import numpy as np
import pytest
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
    random_quadruplet_patterns,
)
from isingpursuit.signal import DENSE_VECTOR_CAP

from oracles import (
    all_column_dots_masked,
    build_hamiltonian_itertools,
    build_hamiltonian_walsh,
    diagonal_per_term,
    diagonal_walsh,
    plan_masks_and_slots,
    value_assignment_group,
)
from strategies import (
    DEPTH,
    SCALED_ENTRIES,
    built_hamiltonians,
    pattern_lists,
    wide_hamiltonians,
)


def bits_of(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=float).view(np.int64)


@st.composite
def measurement_cases(draw):
    n = draw(st.integers(1, 12))
    patterns = draw(pattern_lists(n))
    r = draw(st.lists(SCALED_ENTRIES, min_size=len(patterns), max_size=len(patterns)))
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


def window_groups(n: int, k: int) -> list[tuple[Pattern, ...]]:
    """The value-assignment groups on bits (1..k), (2..k+1), ..., (n-k+1..n)."""
    return [value_assignment_group(tuple(range(first, first + k))) for first in range(1, n - k + 2)]


def joined(n: int, groups: list[tuple[Pattern, ...]]) -> MeasurementSet:
    return MeasurementSet(n, tuple(p for group in groups for p in group))


def entries_for(draw, ms: MeasurementSet) -> np.ndarray:
    return np.array(draw(st.lists(SCALED_ENTRIES, min_size=len(ms), max_size=len(ms))))


def window_set(n: int, k: int) -> MeasurementSet:
    """The window set of width k on n bits; for k = 2 the memoised
    nearest-neighbour set, which holds exactly those groups."""
    return nearest_neighbor_patterns(n) if k == 2 else joined(n, window_groups(n, k))


@st.composite
def window_cases(draw):
    k = draw(st.integers(1, 4))
    ms = window_set(draw(st.integers(k, 16)), k)
    return ms, k, entries_for(draw, ms)


def window_example(n: int, k: int) -> tuple[MeasurementSet, int, np.ndarray]:
    """Signed zeros, a subnormal and addends below one ulp of their neighbours."""
    ms = window_set(n, k)
    return ms, k, np.resize([-0.0, 1e-17, 0.5, -1e-17, 0.0, 5e-324, -0.5, 2.5, -0.0], len(ms))


@settings(max_examples=120 * DEPTH)
@given(window_cases())
@example(window_example(16, 1))
@example(window_example(16, 4))
@example(window_example(3, 3))
@example(window_example(2, 2))
@example(window_example(16, 2))
def test_window_sets_take_the_prefix_stages_bitwise(case):
    ms, k, r = case
    assert ms._window_width == k
    assert np.array_equal(bits_of(all_column_dots(r, ms)), bits_of(all_column_dots_masked(r, ms)))


@st.composite
def near_window_cases(draw):
    """A window set with one run dropped, two runs swapped, a run repeated,
    or one pattern missing from a group: each goes through the table kernel."""
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, 12))
    groups = window_groups(n, k)
    i = draw(st.integers(0, len(groups) - 1))
    change = draw(st.sampled_from(["drop", "swap", "repeat", "missing"]))
    if change == "drop":
        del groups[i]
    elif change == "swap":
        j = draw(st.integers(0, len(groups) - 1).filter(lambda j: j != i))
        groups[i], groups[j] = groups[j], groups[i]
    elif change == "repeat":
        groups.insert(draw(st.integers(0, len(groups))), groups[i])
    else:
        missing = draw(st.integers(0, len(groups[i]) - 1))
        groups[i] = groups[i][:missing] + groups[i][missing + 1:]
    ms = joined(n, groups)
    return ms, entries_for(draw, ms)


@settings(max_examples=60 * DEPTH)
@given(near_window_cases())
def test_near_window_sets_keep_the_table_kernel_bitwise(case):
    ms, r = case
    assert ms._window_width is None
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


# A -0.0 coefficient placed in the +0.0 vector meets +0.0 in every stage,
# and -0.0 - +0.0 is -0.0: the constant's -0.0 survives at index 1.  The
# per-term sum starts at +0.0 and never leaves -0.0; the QAOA workspace keeps
# its levels apart by bit pattern, so either zero evolves as itself.
NEGATIVE_ZERO = IsingHamiltonian(1, {frozenset(): -0.0})


@settings(max_examples=200 * DEPTH)
@given(st.one_of(wide_hamiltonians(SCALED_ENTRIES), built_hamiltonians()))
@example(NEGATIVE_ZERO)
def test_diagonal_is_bitwise_the_walsh_oracle_and_the_per_term_sum_to_rounding(H):
    diag = H.diagonal()
    assert H.diagonal() is diag  # kept on the Hamiltonian, and read-only
    assert np.array_equal(bits_of(diag), bits_of(diagonal_walsh(H)))
    with pytest.raises(ValueError, match="read-only"):
        diag[0] = 1.0
    # Each entry is a depth-n tree over the signed totals, the per-term sum a
    # chain of T - 1 adds: to first order they differ by at most
    # (n + T - 1) * eps / 2 * sum |c|, and the tolerance is over twice that.
    coeffs = list(H.terms.values())
    tol = (H.n + len(coeffs)) * np.finfo(float).eps * sum(map(abs, coeffs))
    assert np.all(np.abs(diag - diagonal_per_term(H)) <= tol)
    if H is NEGATIVE_ZERO:
        assert bits_of(diag).tolist() == bits_of([0.0, -0.0]).tolist()


def test_a_built_diagonal_at_the_dense_cap_matches_all_column_dots():
    # the largest transform: 20 stages of 2**19 adds, against the table kernel
    ms = random_quadruplet_patterns(DENSE_VECTOR_CAP, 20, seed=20)
    r = np.random.default_rng(20).normal(size=len(ms))
    dots = all_column_dots(r, ms)
    deviation = np.abs(build_hamiltonian(ms, r).diagonal() - dots) / np.maximum(np.abs(dots), 1.0)
    assert deviation.max() <= 1e-12  # criterion 1's tolerance


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
    # the plan names each support by its mask, and the chain slots read the masks
    assert (ms._transform_plan[0].tolist(), ms._chain_slots.tolist()) == plan_masks_and_slots(ms)
    H, oracle = build_hamiltonian(ms, r), build_hamiltonian_walsh(ms, r)
    assert list(H.terms) == list(oracle.terms)
    assert np.array_equal(bits_of(list(H.terms.values())), bits_of(list(oracle.terms.values())))
    # terms is made on the first read above; a second read gives the same items
    items = repr(list(oracle.terms.items()))
    assert repr(list(H.terms.items())) == items
    if ms.n <= 16:  # the wide chains have no 2**n diagonal to compare
        assert np.array_equal(bits_of(H.diagonal()), bits_of(diagonal_walsh(H)))

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
