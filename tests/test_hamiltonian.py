"""Pauli-Z assembly checked by hand expansions, hand values of
`H.diagonal()`, `H.normalized()`'s division by the diagonal's spread, and
each support mask turned into its qubits and back.
The identity H.diagonal()[z] == column_dot(z, r, ms), to rounding, is
acceptance criterion 1; `test_table_kernel` holds the diagonal bit for bit
to a sign product per term."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    _mask_bits,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)

from oracles import negated
from strategies import hamiltonians, measurement_sets


def test_single_bit_one_pattern_expansion():
    ms = MeasurementSet(3, (Pattern(((1, 1),)),))
    H = build_hamiltonian(ms, np.array([1.0]))
    assert H.terms == {frozenset(): 0.5, frozenset({1}): -0.5}


def test_pair_zero_zero_expansion():
    ms = MeasurementSet(3, (Pattern(((1, 0), (2, 0))),))
    H = build_hamiltonian(ms, np.array([1.0]))
    assert H.terms == {
        frozenset(): 0.25,
        frozenset({1}): 0.25,
        frozenset({2}): 0.25,
        frozenset({1, 2}): 0.25,
    }


def test_zero_residual_builds_empty_map():
    H = build_hamiltonian(nearest_neighbor_patterns(4), np.zeros(12))
    assert H.terms == {}


def test_build_checks_shape():
    with pytest.raises(ValueError, match="length"):
        build_hamiltonian(nearest_neighbor_patterns(4), np.ones(3))


def test_evaluate_identity_term():
    H = IsingHamiltonian(3, {frozenset(): 2.5})
    assert H.diagonal().tolist() == [2.5] * 8


def test_evaluate_z_eigenvalues():
    H = IsingHamiltonian(3, {frozenset({1}): 1.0})
    assert H.diagonal()[0b011] == 1.0
    assert H.diagonal()[0b100] == -1.0


def test_rejects_qubits_outside_range():
    with pytest.raises(ValueError, match="outside"):
        IsingHamiltonian(2, {frozenset({3}): 1.0})


def test_rejects_qubit_zero():
    with pytest.raises(ValueError, match="outside"):
        IsingHamiltonian(2, {frozenset({0}): 1.0})


@given(st.integers(1, 63).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
@example((63, 1 << 62))  # qubit 1 at the index-width cap
@example((63, (1 << 63) - 1))
@example((1, 0))
def test_a_mask_turns_into_its_support_and_back(case):
    n, mask = case
    qubits = [b for b in range(1, n + 1) if mask >> (n - b) & 1]
    support = frozenset(_mask_bits(n, mask))
    # inserted in ascending order, so its repr is the ascending one
    assert repr(support) == repr(frozenset(qubits))
    H = IsingHamiltonian(n, {support: 1.0})
    assert H._masks.tolist() == [mask] and H.max_support_size() == len(qubits)


@settings(max_examples=60)
@given(measurement_sets(), st.integers(0, 2**31))
def test_built_supports_pass_the_range_check(ms, seed):
    # build_hamiltonian skips the check: the set bounded its bits already
    H = build_hamiltonian(ms, np.random.default_rng(seed).normal(size=len(ms)))
    assert IsingHamiltonian(H.n, H.terms) == H


def test_a_built_hamiltonian_makes_its_terms_when_first_read():
    ms = random_quadruplet_patterns(6, 2, seed=3)
    built = build_hamiltonian(ms, np.random.default_rng(3).normal(size=len(ms)))
    # a dict-made Hamiltonian takes the same path, and its integers come back as floats
    from_dict = IsingHamiltonian(3, {frozenset({1, 3}): 0.5, frozenset(): -2})
    for H in (built, from_dict):
        assert "terms" not in vars(H)
        items = list(H.terms.items())
        assert vars(H)["terms"] is H.terms
        assert len(H.terms) == len(items) == int(np.count_nonzero(H._keep))
        assert repr(IsingHamiltonian(H.n, dict(items))) == repr(H)
    assert repr(from_dict.terms) == repr({frozenset({1, 3}): 0.5, frozenset(): -2.0})


def test_a_hamiltonian_keeps_its_terms_when_the_given_dict_changes():
    # the dict used to be kept as given: changed after diagonal(), H.terms
    # read the new coefficient while the kept diagonal held the old one
    terms = {frozenset({1}): 1.0}
    H = IsingHamiltonian(1, terms)
    assert H.diagonal().tolist() == [1.0, -1.0]
    terms[frozenset({1})] = 2.0
    assert H.terms == {frozenset({1}): 1.0}
    assert H == IsingHamiltonian(1, {frozenset({1}): 1.0})
    assert H.diagonal().tolist() == [1.0, -1.0]


def test_negated_flips_every_entry():
    H = IsingHamiltonian(3, {frozenset({1, 2}): 0.5, frozenset(): -1.0})
    assert np.allclose(negated(H).diagonal(), -H.diagonal())


# Built from normal residuals: the residuals of every scale that
# `built_hamiltonians` draws can put the mean far above the spread, where the
# kept spread is 1 only to the rounding of the mean.
BUILT_HAMILTONIANS = st.builds(
    lambda ms, seed: build_hamiltonian(ms, np.random.default_rng(seed).normal(size=len(ms))),
    measurement_sets(max_n=6), st.integers(0, 2**31),
)


@given(st.one_of(hamiltonians(max_n=6), BUILT_HAMILTONIANS))
@example(IsingHamiltonian(2, {frozenset(): -0.5}))  # flat: the spread is zero
def test_normalized_divides_the_diagonal_by_its_spread(H):
    d = H.diagonal()
    spread = np.abs(d - d.mean()).max()
    scaled, scale = H.normalized()
    assert scale == (spread if spread > 0.0 else 1.0)
    # normalized() makes no dict: the quotient's terms are made when first read
    assert "terms" not in vars(scaled)
    assert repr(scaled.terms) == repr({s: c / scale for s, c in H.terms.items()})
    kept = scaled.diagonal()
    assert kept.tobytes() == (d / scale).tobytes()
    assert scaled.diagonal() is kept and not kept.flags.writeable
    assert scaled == IsingHamiltonian(H.n, {s: c / scale for s, c in H.terms.items()})
    if spread > 0.0:
        assert np.abs(kept - kept.mean()).max() == pytest.approx(1.0)
    # -H has the same spread, so its mirrored lanes run on the same scale
    neg_scaled, neg_scale = negated(H).normalized()
    assert neg_scale == scale
    assert neg_scaled.diagonal().tobytes() == (negated(H).diagonal() / scale).tobytes()


# Diagonal entries at every scale up to the float maximum, signed zeros
# and subnormals among them, so that sums near the top overflow.
TOP_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.floats(-1.0, 1.0),
)


# n >= 1: IsingHamiltonian refuses a bit count of 0
@given(st.integers(1, 6).flatmap(lambda n: st.lists(TOP_ENTRIES, min_size=1 << n,
                                                     max_size=1 << n)))
@example([1.7e308, 1.5e308])  # finite, but the sum overflows
@example([1.7e308, 1.7e308, 1.7e308, 1.5e308])  # the sum of d / 2 still overflows
@example([1.7e308, -1.7e308, 5e-324, 1.0])  # the large entries cancel in the sum
@example([0.0, 1.7976931348623157e308, 1.7976931348623157e308, -1.7976931348623157e308])
def test_normalized_spread_is_finite_for_every_finite_diagonal(entries):
    d = np.array(entries)
    H = IsingHamiltonian(len(d).bit_length() - 1)
    H._diagonal = d  # as if made from terms
    with np.errstate(over="ignore", invalid="ignore"):
        spread = float(np.abs(d - d.mean()).max())
    scaled, scale = H.normalized()
    if math.isfinite(spread) and spread > 0.0:
        assert repr(scale) == repr(spread)  # bit for bit the plain formula
    elif np.all(d == d[0]):
        assert scale == 1.0
    else:  # the plain formula overflowed: the spread of d / 2**(n + 2) cannot
        small = d / 2.0 ** (H.n + 2)
        spread = float(np.abs(small - small.mean()).max()) * 2.0 ** (H.n + 2)
        if math.isfinite(spread):
            assert scale == pytest.approx(spread)
            kept = scaled.diagonal()
            assert kept.tobytes() == (d / scale).tobytes() and np.isfinite(kept).all()
            assert np.abs(kept - kept.mean()).max() == pytest.approx(1.0)
        else:  # the spread itself passes the float range
            assert scale == 1.0


def test_normalized_hand_values():
    # d = [1.75, 1.75, -1.25, -1.25] has mean 0.25 and spread 1.5
    scaled, scale = IsingHamiltonian(2, {frozenset({1}): 1.5, frozenset(): 0.25}).normalized()
    assert scale == 1.5
    assert np.allclose(scaled.diagonal(), [7 / 6, 7 / 6, -5 / 6, -5 / 6])


def test_nearest_neighbor_sets_build_chains():
    ms = nearest_neighbor_patterns(6)
    H = build_hamiltonian(ms, np.random.default_rng(1).normal(size=len(ms)))
    for support in H.terms:
        assert len(support) <= 2
        if len(support) == 2:
            i, j = sorted(support)
            assert j == i + 1


def test_quadruplet_sets_build_four_body_terms():
    ms = random_quadruplet_patterns(7, 2, seed=2)
    H = build_hamiltonian(ms, np.random.default_rng(2).normal(size=len(ms)))
    assert H.max_support_size() == 4
    nonlocal_pairs = [
        s for s in H.terms if len(s) == 2 and max(s) - min(s) > 1
    ]
    assert nonlocal_pairs


def test_merging_is_additive():
    # build_hamiltonian is linear in the pattern list: joining two sets
    # adds their diagonals
    a = nearest_neighbor_patterns(5)
    b = random_quadruplet_patterns(5, 1, seed=4)
    ra = np.random.default_rng(5).normal(size=len(a))
    rb = np.random.default_rng(6).normal(size=len(b))
    joint = MeasurementSet(5, a.patterns + b.patterns)
    H_joint = build_hamiltonian(joint, np.concatenate([ra, rb]))
    diag_sum = build_hamiltonian(a, ra).diagonal() + build_hamiltonian(b, rb).diagonal()
    assert np.allclose(H_joint.diagonal(), diag_sum, atol=1e-12)


def test_complete_group_with_equal_weights_collapses_to_identity():
    # the four (i,j) value assignments partition the space, so equal
    # residual entries sum to a multiple of I and everything else cancels
    ms = nearest_neighbor_patterns(4)
    H = build_hamiltonian(ms, np.full(len(ms), 0.25))
    assert set(H.terms) == {frozenset()}
