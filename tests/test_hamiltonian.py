"""Pauli-Z assembly checked by hand expansions and the diagonal identity
evaluate(build(ms, r), z) == column_dot(z, r, ms) for all z."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)

from oracles import negated
from strategies import measurement_sets


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
    assert all(H.evaluate(z) == 2.5 for z in range(8))


def test_evaluate_z_eigenvalues():
    H = IsingHamiltonian(3, {frozenset({1}): 1.0})
    assert H.evaluate(0b011) == 1.0
    assert H.evaluate(0b100) == -1.0


def test_rejects_qubits_outside_range():
    with pytest.raises(ValueError, match="outside"):
        IsingHamiltonian(2, {frozenset({3}): 1.0})


def test_rejects_qubit_zero():
    with pytest.raises(ValueError, match="outside"):
        IsingHamiltonian(2, {frozenset({0}): 1.0})


@settings(max_examples=60)
@given(measurement_sets(), st.integers(0, 2**31))
def test_built_supports_pass_the_range_check(ms, seed):
    # build_hamiltonian skips the check: the set bounded its bits already
    H = build_hamiltonian(ms, np.random.default_rng(seed).normal(size=len(ms)))
    assert IsingHamiltonian(H.n, H.terms) == H


def test_a_built_hamiltonian_makes_its_terms_when_first_read():
    ms = random_quadruplet_patterns(6, 2, seed=3)
    H = build_hamiltonian(ms, np.random.default_rng(3).normal(size=len(ms)))
    assert "terms" not in vars(H)
    items = list(H.terms.items())
    assert vars(H)["terms"] is H.terms
    assert len(H.terms) == len(items) == int(np.count_nonzero(H._keep))
    assert repr(IsingHamiltonian(H.n, dict(items))) == repr(H)


def test_diagonal_agrees_with_evaluate():
    H = IsingHamiltonian(4, {frozenset(): 0.3, frozenset({2, 4}): -1.2, frozenset({1}): 0.7})
    assert np.allclose(H.diagonal(), [H.evaluate(z) for z in range(16)])


def test_negated_flips_every_entry():
    H = IsingHamiltonian(3, {frozenset({1, 2}): 0.5, frozenset(): -1.0})
    assert np.allclose(negated(H).diagonal(), -H.diagonal())


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


def test_dump_is_sorted_and_readable():
    H = IsingHamiltonian(
        3, {frozenset({1, 2}): 0.25, frozenset(): 0.5, frozenset({2}): -0.125}
    )
    assert H.dump().splitlines() == [
        "+0.5",
        "-0.125  Z_2",
        "+0.25  Z_1 Z_2",
    ]
