"""One reused kernel workspace against the per-qubit kernel in `oracles`,
bit for bit: `_evolve` and `_expectations` through a sequence of row
counts on one `_StateBuffers`, as an `optimize` run drives it.  Also: one
`optimize` call builds exactly one workspace, sized to its widest round;
and a state that `ansatz_state` returned is never written over.
And the phase step's table of distinct diagonal values against the
per-entry exp in `oracles`, on diagonals with few, all or one distinct
value.  And a mixer sweep, and a whole batch, that make no numpy
iterator buffer."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.qaoa import (
    Gate,
    QaoaParams,
    _evolve,
    _expectations,
    _StateBuffers,
    ansatz_state,
    apply_phase_layer,
    optimize,
    simulate_gates,
)

from oracles import (
    apply_mixer_layer,
    evolve_per_qubit,
    expectations_per_qubit,
    phase_rows,
)
from strategies import (
    ANGLES,
    DEPTH,
    EXTREME_ENTRIES,
    SIGNED_ZEROS,
    overwrite,
    states,
    wide_values,
)


@st.composite
def workspace_runs(draw):
    """A diagonal, the workspace's row count and a sequence of angle batches,
    some of them wider than the workspace."""
    n, p = draw(st.integers(1, 10)), draw(st.integers(1, 11))
    widths = draw(st.lists(st.integers(1, 28), min_size=1, max_size=6))
    K = draw(st.integers(1, max(widths)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    diag = wide_values(rng, 1 << n)
    overwrite(draw, diag, EXTREME_ENTRIES)
    batches = []
    for width in widths:
        angles = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, size=(width, 2 * p))
        overwrite(draw, angles, ANGLES)
        batches.append(angles)
    return diag, n, K, batches


def fixed_run(n: int, p: int, widths, seed: int, K: int | None = None):
    rng = np.random.default_rng(seed)
    batches = [rng.uniform(0.0, 2.0 * np.pi, size=(w, 2 * p)) for w in widths]
    return rng.normal(size=1 << n), n, K or max(widths), batches


# Signed zeros on the diagonal and in the angles.
ZEROS = (np.array([0.0, -0.0, -0.0, 0.0, 5e-324, -0.0, 1.0, -1.0]), 3, 3,
         [np.array([[0.0, -0.0, -1.5, 0.0], [-0.0, 0.0, 0.0, -0.0], [-2.0, -0.0, -0.0, -3.0]]),
          np.array([[-0.0, -0.0, -0.0, -0.0]])])


@settings(max_examples=100 * DEPTH)
@given(workspace_runs())
@example(fixed_run(10, 3, [28, 4, 1, 9, 4], 0))
@example(fixed_run(6, 11, [28, 4, 1, 9, 4], 1, K=9))
@example(fixed_run(1, 1, [1, 3, 2], 2))
@example(ZEROS)
def test_one_workspace_through_many_row_counts_is_bitwise_the_per_qubit_kernel(run):
    diag, n, K, batches = run
    kernel = _StateBuffers(K, n, diag)
    with np.errstate(all="ignore"):
        for angles in batches:
            if len(angles) <= K:
                expected = evolve_per_qubit(diag, n, angles)
                assert _evolve(kernel, angles).tobytes() == expected.tobytes()
            values = expectations_per_qubit(diag, n, angles)
            assert _expectations(kernel, angles).tobytes() == values.tobytes()


@st.composite
def level_runs(draw):
    """A diagonal of one of three kinds: entries from a pool of 2 to 8
    values that holds +0.0 and -0.0, all entries distinct, or one value.
    Then the workspace's row count, angle batches of varying widths and a
    state with signed zeros for a single phase step."""
    n, p = draw(st.integers(1, 10)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["pool", "distinct", "single"]))
    if kind == "pool":
        pool = np.array([0.0, -0.0] + draw(st.lists(EXTREME_ENTRIES, max_size=6)))
        diag = pool[rng.integers(0, len(pool), size=1 << n)]
    elif kind == "distinct":
        diag = np.unique(wide_values(rng, 1 << n))
        assume(len(diag) == 1 << n)
        rng.shuffle(diag)
    else:
        diag = np.full(1 << n, draw(EXTREME_ENTRIES))
    widths = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    batches = []
    for width in widths:
        angles = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, size=(width, 2 * p))
        overwrite(draw, angles, ANGLES)
        batches.append(angles)
    return diag, n, draw(st.integers(1, max(widths))), batches, draw(states(n)), draw(ANGLES)


@settings(max_examples=100 * DEPTH)
@given(level_runs())
@example((np.array([0.0, -0.0, -0.0, 0.0]), 2, 2, [np.array([[-1.5, 0.5], [0.75, -0.0]])],
          SIGNED_ZEROS, -0.75))
def test_phase_over_distinct_levels_is_bitwise_the_per_entry_exp(run):
    diag, n, K, batches, psi, gamma = run
    kernel = _StateBuffers(K, n, diag)
    assert len(kernel.levels) == len(set(diag.view(np.int64).tolist()))
    with np.errstate(all="ignore"):
        for angles in batches:
            if len(angles) <= K:
                expected = evolve_per_qubit(diag, n, angles)
                assert _evolve(kernel, angles).tobytes() == expected.tobytes()
            values = expectations_per_qubit(diag, n, angles)
            assert _expectations(kernel, angles).tobytes() == values.tobytes()
        single = _StateBuffers(1, n, diag)
        phased = single.at.phase(psi[None], 1j * np.array([[gamma]]))
        expected = phase_rows(psi[None], diag, np.array([gamma]))
        assert phased.tobytes() == expected.tobytes()


def test_signed_zeros_are_two_levels():
    kernel = _StateBuffers(1, 2, np.array([0.0, -0.0, 0.0, -0.0]))
    assert len(kernel.levels) == 2
    assert sorted(np.signbit(kernel.levels.real).tolist()) == [False, True]
    assert np.signbit(kernel.levels.real[kernel.level_of]).tolist() == [False, True, False, True]


def quad_hamiltonian() -> IsingHamiltonian:
    return IsingHamiltonian(4, {frozenset({1, 2}): 0.5, frozenset({2, 3, 4}): -1.25,
                                frozenset({4}): 0.75, frozenset(): 0.1})


def test_optimize_builds_one_workspace_for_its_widest_round():
    H = quad_hamiltonian()
    with mock.patch.object(qaoa, "_StateBuffers", wraps=_StateBuffers) as built:
        paired = optimize(H, p=2, restarts=2, max_evals=30, seed=0, negated_seed=1)
    assert paired.evaluations == 4 * 30
    # 2 starts on H and 2 on -H, each with a 2p + 1 point initial simplex
    assert [c.args[:2] for c in built.call_args_list] == [(4 * 5, 4)]


def test_optimize_workspace_is_capped_by_the_batch_budget():
    H = quad_hamiltonian()
    with mock.patch.object(qaoa, "_StateBuffers", wraps=_StateBuffers) as built, \
            mock.patch.object(qaoa, "_BATCH_BYTES", 3 << (H.n + 4)):
        capped = optimize(H, p=2, restarts=2, max_evals=30, seed=0, negated_seed=1)
    assert [c.args[:2] for c in built.call_args_list] == [(3, 4)]
    # batches split across the 3 rows give the same bits
    paired = optimize(H, p=2, restarts=2, max_evals=30, seed=0, negated_seed=1)
    assert repr(capped) == repr(paired)


def test_ansatz_state_is_not_written_over_by_later_calls():
    H = quad_hamiltonian()
    params = QaoaParams((0.3, 1.1), (0.7, 2.0))
    state = ansatz_state(H, params)
    before = state.tobytes()
    ansatz_state(H, QaoaParams((2.0, 0.1), (0.4, 0.9)))
    optimize(H, p=2, restarts=2, max_evals=20, seed=3, negated_seed=4)
    apply_mixer_layer(state.copy(), 0.5)
    apply_phase_layer(state.copy(), H, 0.5)
    simulate_gates(state.copy(), [Gate.rx(1, 0.3), Gate.cx(1, 2), Gate.rx(2, 0.3)])
    assert state.tobytes() == before
    assert ansatz_state(H, params).tobytes() == before


def test_a_mixer_sweep_allocates_no_iterator_buffer():
    """Every ufunc and `take` of the sweep writes through `out` on operands
    numpy need not buffer: a reversed operand, or `take`'s default mode,
    makes numpy take a 132 KB buffer here on each call."""
    kernel = _StateBuffers(8, 10, np.random.default_rng(0).normal(size=1 << 10))
    c, js = qaoa._mixer_factors(np.linspace(0.1, 0.8, 8)[:, None])
    kernel.at.mix(c, js)  # first use of each view and ufunc loop
    tracemalloc.start()
    try:
        kernel.at.mix(c, js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_a_kernel_batch_allocates_only_its_set_up():
    """A whole `_expectations` batch on a warmed workspace makes only the
    angle set-up's small arrays: the level table as an outer product of
    i*gamma and the levels, or the first layer's multiply by a broadcast
    (1, 2**n) start, would make numpy take an iterator buffer of up to
    256 KiB."""
    rng = np.random.default_rng(0)
    kernel = _StateBuffers(8, 10, rng.normal(size=1 << 10))
    batches = [rng.uniform(-2.0 * np.pi, 4.0 * np.pi, size=(rows, 6)) for rows in (8, 4)]
    for angles in batches:
        _expectations(kernel, angles)  # first use of each row count's views
    for angles in batches:
        tracemalloc.start()
        try:
            _expectations(kernel, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, (len(angles), peak)
