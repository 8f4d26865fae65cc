"""One reused kernel workspace against the per-qubit kernel in `oracles`,
bit for bit: `_evolve` and `_expectations` through a sequence of row
counts on one `_StateBuffers`, as an `optimize` run drives it, on
diagonals that are wide, hold a few values with signed zeros among them,
hold all distinct values or hold one value; and the single phase step,
whose table of distinct diagonal values must give the per-entry exp.
Also: each workspace keeps at most the rows the batch budget allows, and
`optimize` and `ansatz_state` each build exactly one; a state that
`ansatz_state` returned is never written over.  And a mixer sweep, and a
whole batch, that make no numpy iterator buffer."""

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
    expectations_per_row,
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
    """A diagonal of one of four kinds: wide, with extreme entries; from a
    pool of 2 to 8 values that holds +0.0 and -0.0; all entries distinct;
    or one value.  Then the workspace's row count and up to four angle
    batches, some of them wider than the workspace, or at n = 11 and 12 one
    batch as wide as it; and a state with extreme entries and a gamma for a
    single phase step."""
    n, p = draw(st.integers(1, 12)), draw(st.integers(1, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["wide", "pool", "distinct", "single"]))
    if kind == "wide":
        diag = wide_values(rng, 1 << n)
        overwrite(draw, diag, EXTREME_ENTRIES)
    elif kind == "pool":
        pool = np.array([0.0, -0.0] + draw(st.lists(EXTREME_ENTRIES, max_size=6)))
        diag = pool[rng.integers(0, len(pool), size=1 << n)]
    elif kind == "distinct":
        diag = np.unique(wide_values(rng, 1 << n))
        assume(len(diag) == 1 << n)
        rng.shuffle(diag)
    else:
        diag = np.full(1 << n, draw(EXTREME_ENTRIES))
    if n <= 10:
        widths = draw(st.lists(st.integers(1, 28), min_size=1, max_size=4))
        K = draw(st.integers(1, max(widths)))
    else:  # past 256 KiB from 8 rows at n = 11, and the oracle stays cheap
        K = draw(st.integers(1, 8))
        widths = [K]
    batches = []
    for width in widths:
        angles = rng.uniform(-2.0 * np.pi, 4.0 * np.pi, size=(width, 2 * p))
        overwrite(draw, angles, ANGLES)
        batches.append(angles)
    return diag, n, K, batches, draw(states(n)), draw(ANGLES)


def fixed_run(diag: np.ndarray, batches, K: int | None = None):
    """A run over fixed batches, as wide as the widest unless K is given,
    with signed zeros as the single phase step's state."""
    n = len(diag).bit_length() - 1
    return diag, n, K or max(map(len, batches)), batches, np.resize(SIGNED_ZEROS, 1 << n), -0.75


def seeded_run(n: int, p: int, widths, seed: int, K: int | None = None):
    rng = np.random.default_rng(seed)
    diag = rng.normal(size=1 << n)
    return fixed_run(diag, [rng.uniform(0.0, 2.0 * np.pi, size=(w, 2 * p)) for w in widths], K)


# At n = 10, 20 rows of complex128 pass numpy's 256 KiB temporary-reuse
# threshold, where `psi * np.exp(...)` would swap its operands; its first
# row alone, in a one-row workspace, stays below it.
THRESHOLD = seeded_run(10, 3, [20], 0)
ONE_ROW = seeded_run(10, 3, [1], 0)
# Signed zeros on the diagonal and in the angles.
ZEROS = fixed_run(np.array([0.0, -0.0, -0.0, 0.0, 5e-324, -0.0, 1.0, -1.0]),
                  [np.array([[0.0, -0.0, -1.5, 0.0], [-0.0, 0.0, 0.0, -0.0], [-2.0, -0.0, -0.0, -3.0]]),
                   np.array([[-0.0, -0.0, -0.0, -0.0]])])
# The same at n = 10, p = 3 and 4 rows: zero, signed-zero and negative
# gammas (first three columns) and betas, over a diagonal holding signed zeros.
ZEROS_N10 = fixed_run(np.where(np.arange(1 << 10) % 5, np.random.default_rng(4).normal(size=1024), -0.0),
                      [np.array([[0.0, -0.0, -1.5, -0.0, 0.0, -2.5],
                                 [-0.75, 0.0, -0.0, 0.0, -0.0, -1.0],
                                 [-0.0, -3.0, 2.0, -0.5, 1.25, 0.0],
                                 [1.0, -2.0, -0.0, -0.0, -0.75, 0.5]])])


@settings(max_examples=300 * DEPTH)
@given(workspace_runs())
@example(seeded_run(10, 3, [28, 4, 1, 9, 4], 0))
@example(seeded_run(6, 11, [28, 4, 1, 9, 4], 1, K=9))
@example(seeded_run(1, 1, [1, 3, 2], 2))
@example(seeded_run(1, 1, [1], 2))
@example(seeded_run(12, 11, [24], 1))
@example(seeded_run(14, 2, [2], 3))  # n = 14: past the drawn n <= 12 and every QAOA bench workload
@example(THRESHOLD)
@example(ONE_ROW)
@example(ZEROS)
@example(ZEROS_N10)
@example(fixed_run(np.array([0.0, -0.0, -0.0, 0.0]), [np.array([[-1.5, 0.5], [0.75, -0.0]])]))
def test_one_workspace_through_many_row_counts_is_bitwise_the_per_qubit_kernel(run):
    diag, n, K, batches, psi, gamma = run
    kernel = _StateBuffers(K, n, diag)
    assert len(kernel.level_rows[0]) == len(set(diag.view(np.int64).tolist()))
    with np.errstate(all="ignore"):
        for angles in batches:
            expected = evolve_per_qubit(diag, n, angles)
            if len(angles) <= K:
                assert _evolve(kernel, angles).tobytes() == expected.tobytes()
            values = expectations_per_row(expected, diag)
            assert _expectations(kernel, angles).tobytes() == values.tobytes()
        phased = _StateBuffers(1, n, diag)._views(1).phase(psi[None], 1j * np.array([[gamma]]))
        assert phased.tobytes() == phase_rows(psi[None], diag, np.array([gamma])).tobytes()


def test_signed_zeros_are_two_levels():
    kernel = _StateBuffers(1, 2, np.array([0.0, -0.0, 0.0, -0.0]))
    levels = kernel.level_rows[0]
    assert len(levels) == 2
    assert sorted(np.signbit(levels.real).tolist()) == [False, True]
    assert np.signbit(levels.real[kernel.level_of]).tolist() == [False, True, False, True]


def quad_hamiltonian() -> IsingHamiltonian:
    return IsingHamiltonian(4, {frozenset({1, 2}): 0.5, frozenset({2, 3, 4}): -1.25,
                                frozenset({4}): 0.75, frozenset(): 0.1})


def recording_workspaces(kernels: list):
    """Patch `_StateBuffers` to append every workspace it builds to kernels."""
    def build(*args):
        kernels.append(_StateBuffers(*args))
        return kernels[-1]
    return mock.patch.object(qaoa, "_StateBuffers", side_effect=build)


def test_optimize_builds_one_workspace_for_its_widest_round():
    H = quad_hamiltonian()
    with mock.patch.object(qaoa, "_StateBuffers", wraps=_StateBuffers) as built:
        paired = optimize(H, p=2, restarts=2, max_evals=30, seed=0, negated_seed=1)
    assert paired.evaluations == 4 * 30
    # 2 starts on H and 2 on -H, each with a 2p + 1 point initial simplex
    assert [c.args[:2] for c in built.call_args_list] == [(4 * 5, 4)]


def test_optimize_workspace_is_capped_by_the_batch_budget():
    H = quad_hamiltonian()
    kernels = []
    with recording_workspaces(kernels), mock.patch.object(qaoa, "_BATCH_BYTES", 3 << (H.n + 4)):
        capped = optimize(H, p=2, restarts=2, max_evals=30, seed=0, negated_seed=1)
    assert [len(kernel.bufs[0]) for kernel in kernels] == [3]
    # batches split across the 3 rows give the same bits
    paired = optimize(H, p=2, restarts=2, max_evals=30, seed=0, negated_seed=1)
    assert repr(capped) == repr(paired)


def test_ansatz_state_evolves_within_the_batch_budget():
    H = quad_hamiltonian()
    batch = [QaoaParams((0.1 * k, 1.1), (0.7, -0.2 * k)) for k in range(7)]
    kernels = []
    with recording_workspaces(kernels), mock.patch.object(qaoa, "_BATCH_BYTES", 3 << (H.n + 4)):
        states = ansatz_state(H, batch)
    assert [len(kernel.bufs[0]) for kernel in kernels] == [3]
    assert not any(np.shares_memory(states, a) for a in kernels[0].bufs + kernels[0].factors)
    for row, params in zip(states, batch, strict=True):
        assert row.tobytes() == ansatz_state(H, params).tobytes()


def test_ansatz_state_is_not_written_over_by_later_calls():
    H = quad_hamiltonian()
    batch = [QaoaParams((0.3, 1.1), (0.7, 2.0)), QaoaParams((2.0, 0.1), (0.4, 0.9))]
    state, states = ansatz_state(H, batch[0]), ansatz_state(H, batch)
    before = state.tobytes(), states.tobytes()
    ansatz_state(H, batch[1])
    ansatz_state(H, batch[::-1])
    again = ansatz_state(H, batch[0])
    optimize(H, p=2, restarts=2, max_evals=20, seed=3, negated_seed=4)
    apply_mixer_layer(state.copy(), 0.5)
    apply_phase_layer(state.copy(), H, 0.5)
    apply_phase_layer(states[0].copy(), H, 0.5)
    simulate_gates(state.copy(), [Gate.rx(1, 0.3), Gate.cx(1, 2), Gate.rx(2, 0.3)])
    assert (state.tobytes(), states.tobytes()) == before
    assert again.tobytes() == before[0]


def test_a_mixer_sweep_allocates_no_iterator_buffer():
    """Every ufunc and `take` of the sweep writes through `out` on operands
    numpy need not buffer: a reversed operand, or `take`'s default mode,
    makes numpy take a 132 KB buffer here on each call."""
    kernel = _StateBuffers(8, 10, np.random.default_rng(0).normal(size=1 << 10))
    # normalised states in buffer 0, where every sweep starts; at even n the
    # sweep ends there too, so the second sweep also reads written rows
    rng = np.random.default_rng(1)
    states = rng.normal(size=(8, 1 << 10)) + 1j * rng.normal(size=(8, 1 << 10))
    kernel.bufs[0][...] = states / np.linalg.norm(states, axis=1, keepdims=True)
    c, js = qaoa._mixer_factors(np.linspace(0.1, 0.8, 8)[:, None])
    mix = kernel._views(8).mix
    mix(c, js)  # first use of each view and ufunc loop
    tracemalloc.start()
    try:
        mix(c, js)
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
