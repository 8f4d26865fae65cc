"""Pattern generators and the implicit measurement matrix, checked against a
dense 0/1 materialization of A wherever n is small enough to afford one."""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    all_column_dots,
    column_dot,
    column_norm_sq,
    complete_patterns,
    measure,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
    value_assignment_group,
)
from isingpursuit.signal import SparseSignal, random_sparse_signal

from oracles import dense_matrix, dense_vector, pattern_matches


def test_mask_want():
    p = Pattern(((1, 1), (3, 0)))
    assert p.mask_want(4) == (0b1010, 0b1000)


def test_pattern_rejects_duplicate_bits():
    with pytest.raises(ValueError, match="distinct"):
        Pattern(((2, 0), (2, 1)))


def test_pattern_rejects_bad_values():
    with pytest.raises(ValueError):
        Pattern(((1, 2),))
    with pytest.raises(ValueError, match="1-based"):
        Pattern(((0, 1),))


def test_empty_pattern_matches_everything():
    p = Pattern(())
    assert all(pattern_matches(p, z, 3) for z in range(8))


def test_pattern_matches_msb_convention():
    # bit 3 of 001000 (n=6) is set
    p = Pattern(((3, 1),))
    assert pattern_matches(p, 0b001000, 6)
    assert not pattern_matches(p, 0b000100, 6)


def test_all_bits_fixed_is_a_point_mass():
    p = Pattern(((1, 1), (2, 0), (3, 1)))
    hits = [z for z in range(8) if pattern_matches(p, z, 3)]
    assert hits == [0b101]


def test_measurement_set_needs_patterns():
    with pytest.raises(ValueError, match="at least one"):
        MeasurementSet(3, ())


def test_measurement_set_bounds_bits():
    with pytest.raises(ValueError, match="outside"):
        MeasurementSet(3, (Pattern(((4, 0),)),))


def test_measurement_set_caps_n_at_the_int64_masks():
    with pytest.raises(ValueError, match="63"):
        MeasurementSet(64, (Pattern(((1, 0),)),))
    # n = 63 still fits: bit 1 is 2**62, below the int64 sign bit
    ms = MeasurementSet(63, (Pattern(((1, 1),)), Pattern(((63, 1),))))
    assert list(measure(SparseSignal(63, ((2**63 - 1, 1.0),)), ms)) == [1.0, 1.0]


def test_value_assignment_group_orders_binary():
    group = value_assignment_group((1, 2))
    assert [tuple(v for _, v in p.constraints) for p in group] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.integers(1, n), unique=True, max_size=min(n, 5))))
def test_value_assignment_group_patterns_pass_the_check_they_skip(positions):
    group = value_assignment_group(tuple(positions))
    assert len(set(group)) == 1 << len(positions)
    for p in group:
        assert Pattern(p.constraints) == p


@pytest.mark.parametrize("positions", [(2, 2), (0, 1), (3, -1)])
def test_value_assignment_group_checks_its_positions(positions):
    with pytest.raises(ValueError, match="distinct|1-based"):
        value_assignment_group(positions)


def test_nearest_neighbor_census():
    assert len(nearest_neighbor_patterns(6)) == 20
    assert len(nearest_neighbor_patterns(2)) == 4


def test_nearest_neighbor_n2_is_the_single_pair():
    ms = nearest_neighbor_patterns(2)
    assert [p.constraints for p in ms.patterns] == [
        ((1, 0), (2, 0)), ((1, 0), (2, 1)), ((1, 1), (2, 0)), ((1, 1), (2, 1)),
    ]


def test_nearest_neighbor_rejects_n1():
    with pytest.raises(ValueError):
        nearest_neighbor_patterns(1)


def test_nearest_neighbor_sets_are_built_once_per_n():
    ms = nearest_neighbor_patterns(7)
    assert nearest_neighbor_patterns(7) is ms
    assert nearest_neighbor_patterns(8) is not ms
    groups = (value_assignment_group((i, i + 1)) for i in range(1, 7))
    assert ms == MeasurementSet(7, sum(groups, ()))


def test_every_index_matches_one_pattern_per_pair():
    ms = nearest_neighbor_patterns(5)
    for z in range(32):
        assert column_norm_sq(z, ms) == 4


def test_quadruplet_census_and_distinctness():
    ms = random_quadruplet_patterns(6, 2, seed=5)
    assert len(ms) == 32
    quads = {tuple(b for b, _ in ms.patterns[i].constraints) for i in range(0, 32, 16)}
    assert len(quads) == 2


def test_quadruplet_column_norm_is_q():
    ms = random_quadruplet_patterns(6, 3, seed=9)
    for z in range(64):
        assert column_norm_sq(z, ms) == 3


def test_quadruplets_on_four_bits_form_the_identity():
    ms = random_quadruplet_patterns(4, 1, seed=0)
    for z in range(16):
        assert column_norm_sq(z, ms) == 1


def test_quadruplet_determinism():
    assert random_quadruplet_patterns(8, 4, seed=3) == random_quadruplet_patterns(
        8, 4, seed=3
    )


# Drawn by the list path before its unreachable rejection branch was deleted.
@pytest.mark.parametrize("n, q, seed, quads", [
    (6, 3, 7, [(2, 3, 5, 6), (1, 3, 5, 6), (2, 3, 4, 5)]),
    (10, 5, 123, [(1, 2, 4, 9), (2, 5, 6, 10), (1, 2, 3, 7), (4, 6, 9, 10), (3, 4, 5, 7)]),
    (16, 16, 1, [(6, 7, 9, 16), (1, 5, 8, 15), (2, 4, 8, 11), (2, 3, 7, 16),
                 (8, 10, 11, 15), (11, 13, 14, 15), (5, 6, 13, 14), (6, 7, 8, 9),
                 (1, 2, 9, 10), (2, 9, 10, 16), (2, 3, 5, 6), (2, 8, 10, 13),
                 (3, 4, 8, 14), (3, 5, 10, 16), (1, 13, 14, 15), (6, 10, 11, 14)]),
    (63, 3, 2024, [(16, 18, 30, 50), (2, 14, 35, 61), (5, 8, 12, 48)]),
])
def test_quadruplet_seeded_picks_are_pinned(n, q, seed, quads):
    groups = tuple(p for quad in quads for p in value_assignment_group(quad))
    assert random_quadruplet_patterns(n, q, seed=seed) == MeasurementSet(n, groups)


@pytest.mark.parametrize("n", [64, 71, 72])
def test_quadruplets_check_the_mask_cap_before_enumerating(n):
    with mock.patch.object(itertools, "combinations", side_effect=AssertionError("enumerated")):
        with pytest.raises(ValueError, match="exceeds 63"):
            random_quadruplet_patterns(n, 1, seed=0)


def test_quadruplet_errors():
    with pytest.raises(ValueError):
        random_quadruplet_patterns(3, 1)
    with pytest.raises(ValueError):
        random_quadruplet_patterns(6, 0)
    with pytest.raises(ValueError, match="distinct"):
        random_quadruplet_patterns(5, math.comb(5, 4) + 1)


def test_complete_patterns_identity_measurement():
    ms = complete_patterns(3)
    assert len(ms) == 8
    sig = SparseSignal(3, ((5, 0.7), (2, -0.3)))
    assert np.allclose(measure(sig, ms), dense_vector(sig))


def test_complete_patterns_cap():
    with pytest.raises(ValueError, match="cap"):
        complete_patterns(11)


def test_measure_single_spike_examples():
    sig = SparseSignal(6, ((0, 1.0),))
    hit = MeasurementSet(6, (Pattern(((1, 0), (2, 0))),))
    miss = MeasurementSet(6, (Pattern(((1, 1), (2, 0))),))
    assert measure(sig, hit)[0] == 1.0
    assert measure(sig, miss)[0] == 0.0


def test_measure_rejects_mismatched_n():
    with pytest.raises(ValueError, match="n="):
        measure(SparseSignal(4, ((0, 1.0),)), nearest_neighbor_patterns(5))


def test_column_dot_checks_length():
    with pytest.raises(ValueError, match="length"):
        column_dot(0, np.ones(3), nearest_neighbor_patterns(3))


def test_column_dot_all_ones_residual():
    ms = nearest_neighbor_patterns(6)
    r = np.ones(len(ms))
    for z in (0, 17, 63):
        assert column_dot(z, r, ms) == 5.0


def test_dense_matrix_cap():
    with pytest.raises(ValueError, match="cap"):
        dense_matrix(MeasurementSet(11, (Pattern(((1, 0),)),)))


@st.composite
def measurement_sets(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    kind = draw(st.sampled_from(("nn", "quad", "adhoc")))
    if kind == "nn":
        return nearest_neighbor_patterns(n)
    if kind == "quad" and n >= 4:
        q = draw(st.integers(1, min(3, math.comb(n, 4))))
        return random_quadruplet_patterns(n, q, seed=draw(st.integers(0, 2**31)))
    m = draw(st.integers(1, 8))
    patterns = []
    for _ in range(m):
        k = draw(st.integers(0, n))
        bits = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
        vals = draw(st.lists(st.integers(0, 1), min_size=k, max_size=k))
        patterns.append(Pattern(tuple(zip(bits, vals))))
    return MeasurementSet(n, tuple(patterns))


@given(measurement_sets(max_n=10))
def test_built_patterns_pass_the_check_they_skip(ms):
    assert all(Pattern(p.constraints) == p for p in ms.patterns)


@settings(max_examples=60)
@given(measurement_sets(), st.integers(0, 2**31))
def test_measure_matches_dense_product(ms, seed):
    sig = random_sparse_signal(ms.n, min(3, 1 << ms.n), seed=seed)
    assert np.allclose(measure(sig, ms), dense_matrix(ms) @ dense_vector(sig), atol=1e-12)


@settings(max_examples=60)
@given(measurement_sets(), st.integers(0, 2**31))
def test_column_ops_match_dense_matrix(ms, seed):
    rng = np.random.default_rng(seed)
    r = rng.normal(size=len(ms))
    A = dense_matrix(ms)
    dots = all_column_dots(r, ms)
    assert np.allclose(dots, A.T @ r, atol=1e-12)
    for z in rng.integers(0, 1 << ms.n, size=4):
        z = int(z)
        assert np.isclose(column_dot(z, r, ms), A[:, z] @ r, atol=1e-12)
        assert column_norm_sq(z, ms) == int(A[:, z].sum())


@given(st.integers(2, 7), st.integers(0, 2**31))
def test_value_groups_cover_every_spike_once(n, seed):
    ms = nearest_neighbor_patterns(n)
    sig = random_sparse_signal(n, 2, seed=seed)
    y = measure(sig, ms)
    total = sum(v for _, v in sig.spikes)
    for start in range(0, len(ms), 4):
        assert np.isclose(y[start : start + 4].sum(), total)


@given(st.integers(0, 2**31))
def test_nonnegative_signals_give_nonnegative_dots(seed):
    ms = nearest_neighbor_patterns(6)
    sig = random_sparse_signal(6, 3, seed=seed)
    assert all_column_dots(measure(sig, ms), ms).min() >= 0.0


@given(measurement_sets(max_n=6))
def test_pattern_json_round_trip(ms):
    assert MeasurementSet.from_json(ms.to_json()) == ms
