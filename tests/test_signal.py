import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isingpursuit.signal import SparseSignal, random_sparse_signal

from oracles import bit_at, dense_vector, from_dense


def test_bit_at_is_msb_first():
    z = 0b1010
    assert [bit_at(z, j, 4) for j in (1, 2, 3, 4)] == [1, 0, 1, 0]


def test_rejects_duplicate_positions():
    with pytest.raises(ValueError, match="distinct"):
        SparseSignal(n=3, spikes=((5, 1.0), (5, 2.0)))


def test_rejects_zero_value():
    with pytest.raises(ValueError, match="zero"):
        SparseSignal(n=3, spikes=((5, 0.0),))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_rejects_non_finite_value(bad):
    with pytest.raises(ValueError, match="finite"):
        SparseSignal(n=3, spikes=((5, bad),))


def test_rejects_position_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        SparseSignal(n=3, spikes=((8, 1.0),))


def test_caps_n_at_the_int64_index_width():
    with pytest.raises(ValueError, match="exceeds 63"):
        SparseSignal(n=64, spikes=())
    with pytest.raises(ValueError, match="exceeds 63"):
        random_sparse_signal(64, 1, seed=0)
    # n = 63 still draws: positions stay below 2**63
    assert random_sparse_signal(63, 2, seed=0).n == 63


def test_rejects_nonpositive_n():
    with pytest.raises(ValueError):
        SparseSignal(n=0, spikes=())


def test_dense_places_values():
    assert np.array_equal(dense_vector(SparseSignal(2, ((3, 0.5),))), [0.0, 0.0, 0.0, 0.5])
    assert np.array_equal(dense_vector(SparseSignal(1, ())), [0.0, 0.0])


def test_dense_refuses_huge_n():
    sig = SparseSignal(n=21, spikes=((0, 1.0),))
    with pytest.raises(ValueError, match="cap"):
        dense_vector(sig)


def test_sparsity_and_positions():
    sig = SparseSignal(3, ((1, 0.5), (6, -2.0)))
    assert len(sig.spikes) == 2
    assert sig.positions() == {1, 6}


@st.composite
def signals(draw):
    n = draw(st.integers(1, 8))
    d = 1 << n
    s = draw(st.integers(0, min(d, 6)))
    positions = draw(
        st.lists(st.integers(0, d - 1), min_size=s, max_size=s, unique=True)
    )
    values = draw(
        st.lists(
            st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
            min_size=s,
            max_size=s,
        )
    )
    return SparseSignal(n, tuple(zip(positions, values)))


@given(signals())
def test_json_round_trip(sig):
    assert SparseSignal.from_json(sig.to_json()) == sig


@given(signals())
def test_dense_round_trip(sig):
    assert from_dense(dense_vector(sig), sig.n).positions() == sig.positions()


def test_from_dense_length_check():
    with pytest.raises(ValueError, match="length"):
        from_dense(np.zeros(3), 2)


def test_generator_is_seed_deterministic():
    a = random_sparse_signal(6, 3, seed=11)
    b = random_sparse_signal(6, 3, seed=11)
    assert a == b
    assert a != random_sparse_signal(6, 3, seed=12)


@given(st.integers(1, 8), st.data())
def test_generator_count_and_value_bounds(n, data):
    s = data.draw(st.integers(1, min(1 << n, 5)))
    seed = data.draw(st.integers(0, 2**31))
    sig = random_sparse_signal(n, s, seed=seed)
    assert len(sig.spikes) == s
    assert len(sig.positions()) == s
    for _, val in sig.spikes:
        assert 0.1 <= val <= 1.0


def test_generator_rejects_bad_sparsity():
    with pytest.raises(ValueError):
        random_sparse_signal(3, 0)
    with pytest.raises(ValueError):
        random_sparse_signal(3, 9)


def test_generator_can_fill_the_whole_space():
    sig = random_sparse_signal(2, 4, seed=0)
    assert sig.positions() == {0, 1, 2, 3}
