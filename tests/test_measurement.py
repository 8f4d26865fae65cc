"""Pattern generators and the implicit measurement matrix, checked against a
dense 0/1 materialization of A wherever n is small enough to afford one, and
every set's masks, wants, table runs, transform plan and chain slots against
their per-pattern derivation in `oracles`, byte for byte."""

import inspect
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.measurement import (
    DENSE_MATRIX_CAP,
    MeasurementSet,
    Pattern,
    _bit_masks,
    all_column_dots,
    column_dot,
    column_dots,
    complete_patterns,
    measure,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from isingpursuit.signal import SparseSignal, random_sparse_signal

from oracles import (column_norm_sq, dense_matrix, dense_vector, masks_wants, pattern_matches,
                     plan_masks_and_slots, table_runs, transform_plan, value_assignment_group)
from strategies import measurement_sets


def test_mask_want():
    assert int(_bit_masks(4, [1, 3])) == 0b1010
    assert int(_bit_masks(4, [1, 3], [True, False])) == 0b1000
    ms = MeasurementSet(4, (Pattern(((1, 1), (3, 0))), Pattern(())))
    assert (ms._masks.tolist(), ms._wants.tolist()) == ([0b1010, 0], [0b1000, 0])
    # at the int64 width, bit 1 is 2**62 and all 63 bits stay below the sign bit
    assert int(_bit_masks(63, [1])) == 1 << 62
    assert int(_bit_masks(63, range(1, 64))) == 2**63 - 1


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
    # n = 63 fits: bit 1 is 2**62, below the int64 sign bit
    ms = MeasurementSet(63, (Pattern(((1, 1),)), Pattern(((63, 1),))))
    assert list(measure(SparseSignal(63, ((2**63 - 1, 1.0),)), ms)) == [1.0, 1.0]


def test_value_assignment_group_orders_binary():
    group = value_assignment_group((1, 2))
    assert [tuple(v for _, v in p.constraints) for p in group] == [
        (0, 0), (0, 1), (1, 0), (1, 1),
    ]


@given(st.integers(1, 10).flatmap(
    lambda n: st.lists(st.integers(1, n), unique=True, max_size=min(n, 5))))
def test_value_assignment_group_fixes_its_positions_to_every_value_once(positions):
    group = value_assignment_group(tuple(positions))
    assert len(set(group)) == 1 << len(positions)
    assert {tuple(b for b, _ in p.constraints) for p in group} == {tuple(positions)}


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


def test_nearest_neighbor_sets_come_from_a_plain_function_built_once_per_n():
    # a plain function, not an lru_cache wrapper, so that tracers can wrap it
    assert inspect.isfunction(nearest_neighbor_patterns)
    assert not hasattr(nearest_neighbor_patterns, "cache_info")
    ms = nearest_neighbor_patterns(7)
    groups = (value_assignment_group((i, i + 1)) for i in range(1, 7))
    assert ms == MeasurementSet(7, sum(groups, ()))
    with mock.patch.object(MeasurementSet, "_groups", side_effect=AssertionError("built again")):
        assert nearest_neighbor_patterns(7) is ms
    assert nearest_neighbor_patterns(8) is not ms


@pytest.mark.parametrize("n", [64, 20000])
def test_nearest_neighbors_check_the_mask_cap_before_building(n):
    # the cap used to be checked only by MeasurementSet, after all 4(n-1) patterns
    with mock.patch.object(MeasurementSet, "_groups", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match="exceeds 63"):
            nearest_neighbor_patterns(n)


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


def test_signals_patterns_and_sets_built_from_lists_keep_tuples():
    # built from lists, these could not be hashed and compared unequal to
    # their tuple twins, and a set cached its masks over its caller's list
    spikes, constraints = [[3, 0.5], [12, -1.0]], [[1, 1], [3, 0]]
    signal, pattern = SparseSignal(4, spikes), Pattern(constraints)
    patterns = [pattern, Pattern(((2, 0),))]
    ms = MeasurementSet(4, patterns)
    y = measure(signal, ms)
    spikes[0][1] = 9.0
    spikes.append([0, 2.0])
    constraints.append([4, 1])
    patterns.append(Pattern(((4, 1),)))
    twins = (SparseSignal(4, ((3, 0.5), (12, -1.0))), Pattern(((1, 1), (3, 0))),
             MeasurementSet(4, (Pattern(((1, 1), (3, 0))), Pattern(((2, 0),)))))
    for value, twin in zip((signal, pattern, ms), twins):
        assert value == twin and hash(value) == hash(twin)
    assert y.tolist() == [-1.0, 0.5]
    assert measure(signal, ms).tobytes() == measure(twins[0], twins[2]).tobytes() == y.tobytes()


@pytest.mark.parametrize("integer, number", [
    (np.int64, np.float64), (np.uint8, np.float32), (np.int16, np.int32), (np.float64, np.float16),
])
def test_signals_and_sets_built_from_numpy_scalars_round_trip_through_json(integer, number):
    # SparseSignal(4, ((np.int64(2), 1.0),)).to_json() used to raise TypeError,
    # and so did a set holding a value-assignment group on numpy positions
    signal = SparseSignal(integer(6), ((integer(3), number(2)), (integer(40), number(-3))))
    pattern = Pattern(((integer(2), integer(1)), (integer(3), integer(0))))
    ms = MeasurementSet(integer(6), (pattern,))
    again = SparseSignal.from_json(signal.to_json())
    assert again == signal == SparseSignal(6, ((3, 2.0), (40, -3.0)))
    twin = MeasurementSet(6, (Pattern(((2, 1), (3, 0))),))
    assert MeasurementSet.from_json(ms.to_json()) == ms == twin
    group = MeasurementSet(integer(6), value_assignment_group((integer(1), integer(4))))
    assert MeasurementSet.from_json(group.to_json()) == group
    assert {type(b) for p in group.patterns for b, _ in p.constraints} == {int}
    for record in (signal, again):
        assert {type(record.n), *(type(p) for p, _ in record.spikes)} == {int}
        assert [type(v) for _, v in record.spikes] == [float, float]
    assert {type(ms.n), *(type(x) for c in ms.patterns[0].constraints for x in c)} == {int}
    assert measure(signal, ms).tobytes() == measure(again, ms).tobytes()


def test_measure_rejects_mismatched_n():
    with pytest.raises(ValueError, match="n="):
        measure(SparseSignal(4, ((0, 1.0),)), nearest_neighbor_patterns(5))


def test_column_dot_checks_length():
    with pytest.raises(ValueError, match="length"):
        column_dot(0, np.ones(3), nearest_neighbor_patterns(3))


# Each reads the index z of an n = 3 set, over a residual r.
INDEX_READERS = {
    "column_dot": lambda z, r, ms: column_dot(z, r, ms),
    "column_dots": lambda z, r, ms: column_dots([2, z], r, ms),
    "match_vector": lambda z, r, ms: ms.match_vector(z),
}


@pytest.mark.parametrize("read", INDEX_READERS.values(), ids=INDEX_READERS.keys())
@pytest.mark.parametrize("z", [8, 11, -5, 2**70, True, np.True_, 2.7, "3", None])
def test_column_indices_must_be_integers_in_range(read, z):
    # at n = 3, column_dot(11, ...) and column_dot(-5, ...) returned index 3's
    # dot, True read as index 1, and column_dots([2.7, 11], ...) gave indices 2 and 3
    ms = nearest_neighbor_patterns(3)
    with pytest.raises(ValueError, match="^index (must be an integer|-?[0-9]+ outside)"):
        read(z, np.arange(len(ms), dtype=float), ms)


@given(measurement_sets(max_n=10), st.data())
def test_column_dots_read_in_range_indices_as_column_dot_does(ms, data):
    zs = data.draw(st.lists(st.integers(0, (1 << ms.n) - 1), max_size=20))
    typed = [data.draw(st.sampled_from([int, np.int64, np.uint16, float, np.float64]))(z)
             for z in zs]
    r = np.array(data.draw(st.lists(st.floats(-1e6, 1e6), min_size=len(ms), max_size=len(ms))))
    expected = np.array([column_dot(z, r, ms) for z in zs], dtype=float)
    assert column_dots(typed, r, ms).tobytes() == column_dots(zs, r, ms).tobytes()
    assert column_dots(zs, r, ms).tobytes() == expected.tobytes()
    assert [column_dot(z, r, ms) for z in typed] == expected.tolist()


def test_column_dot_all_ones_residual():
    ms = nearest_neighbor_patterns(6)
    r = np.ones(len(ms))
    for z in (0, 17, 63):
        assert column_dot(z, r, ms) == 5.0


def test_dense_matrix_cap():
    with pytest.raises(ValueError, match="cap"):
        dense_matrix(MeasurementSet(11, (Pattern(((1, 0),)),)))


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


def test_a_set_read_from_a_file_names_a_missing_field_or_a_wrong_type():
    # these raised KeyError('val') and "string indices must be integers"
    with pytest.raises(ValueError, match="^constraint has no field 'val'$"):
        MeasurementSet.from_dict({"n": 6, "patterns": [[{"bit": 1}]]})
    with pytest.raises(ValueError, match="^patterns must be a JSON list, got str$"):
        MeasurementSet.from_dict({"n": 6, "patterns": "ab"})
    with pytest.raises(ValueError, match="^pattern set has no field 'n'$"):
        MeasurementSet.from_dict({"patterns": [[]]})
    with pytest.raises(ValueError, match="^pattern must be a JSON list, got int$"):
        MeasurementSet.from_dict({"n": 6, "patterns": [3]})
    with pytest.raises(ValueError, match="^constraint must be a JSON object, got list$"):
        MeasurementSet.from_dict({"n": 6, "patterns": [[[1, 0]]]})
    with pytest.raises(ValueError, match="^pattern set must be a JSON object, got list$"):
        MeasurementSet.from_json("[]")


def fingerprint(value):
    """value with every array as its dtype, shape and bytes, so that two
    fingerprints are equal iff the values are byte-equal."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(map(fingerprint, value))
    return value


def nn_case(n):
    """The nearest-neighbour set and the oracle's groups for it."""
    return nearest_neighbor_patterns(n), sum((value_assignment_group((i, i + 1))
                                              for i in range(1, n)), ())


def quad_case(n, q, seed):
    """A quadruplet set and the oracle's groups, on quadruplets drawn as the
    generator documents its draw."""
    combos = list(itertools.combinations(range(1, n + 1), 4))
    picks = np.random.default_rng(seed).choice(len(combos), size=q, replace=False)
    groups = sum((value_assignment_group(combos[i]) for i in picks), ())
    return random_quadruplet_patterns(n, q, seed=seed), groups


@st.composite
def generated_sets(draw):
    """A generated set at n = 2..16 or 63, and the oracle's groups for it."""
    n = draw(st.sampled_from([*range(2, 17), 63]))
    kind = draw(st.sampled_from(("nn", "quad", "complete")))
    if kind == "quad" and n >= 4:
        return quad_case(n, draw(st.integers(1, min(16, math.comb(n, 4)))),
                         draw(st.integers(0, 2**31)))
    if kind == "complete" and n <= DENSE_MATRIX_CAP:
        return complete_patterns(n), value_assignment_group(range(1, n + 1))
    return nn_case(n)


@given(st.one_of(measurement_sets(max_n=10).map(lambda ms: (ms, ms.patterns)), generated_sets()))
@example(nn_case(63))
@example(quad_case(63, 62, 0))
@example((complete_patterns(1), value_assignment_group((1,))))
def test_a_set_is_byte_equal_to_the_per_pattern_oracle(case):
    ms, patterns = case
    oracle = MeasurementSet(ms.n, patterns)  # the oracles read its n and patterns alone
    assert fingerprint((ms._masks, ms._wants)) == fingerprint(masks_wants(oracle))
    assert fingerprint(ms._table_runs) == fingerprint(table_runs(oracle))
    assert fingerprint(ms._transform_plan) == fingerprint(transform_plan(oracle))
    slots = np.array(plan_masks_and_slots(oracle)[1], dtype=np.intp)
    assert fingerprint(ms._chain_slots) == fingerprint(slots)
    assert ms.patterns == patterns
    assert ms.to_json() == oracle.to_json()
