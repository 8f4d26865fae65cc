"""One reused kernel workspace against the per-qubit kernel in `oracles`,
bit for bit: `_evolve` through a sequence of row counts on one
`_StateBuffers`, on diagonals that are wide, hold a few values with signed
zeros among them, hold all distinct values or hold one value, and the
expectation formula `_energies` on every batch, as the ramp evaluates its
rows, and on a batch's first row alone in a one-row workspace, as the
search evaluates each point; and the single phase step, whose table of
distinct diagonal values must give the per-entry exp.  Also: each workspace keeps the most rows the batch budget
allows, the search builds one of one row, `ansatz_state` one, a QAOA solve
one, in which it evolves each ramp row once, and the reference
`apply_phase_layer` none; a ramp `optimize` and a QAOA solve at n = 10 give
the same outcomes with the ramp's rows split into batches as in one batch;
a state that `ansatz_state` returned is never written over.  And a mixer
sweep, and a whole batch, that make no numpy iterator buffer, and a QAOA
solve at n = 14 whose traced peak is the arrays it holds."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import measure, random_quadruplet_patterns
from isingpursuit.qaoa import (
    Gate,
    QaoaParams,
    _energies,
    _evolve,
    _StateBuffers,
    ansatz_state,
    apply_phase_layer,
    optimize,
    simulate_gates,
)
from isingpursuit.signal import random_sparse_signal
from isingpursuit.solvers import SolverSpec, qaoa_solve

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
    batch as wide as the rows asked for; and a state with extreme entries
    and a gamma for a single phase step."""
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
    else:  # past the 2 rows kept at n = 11 and the 1 at n = 12; a cheap oracle
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
# threshold, where `psi * np.exp(...)` would swap its operands, and run in
# batches of the 4 rows the workspace keeps; its first row alone, in a
# one-row workspace, stays below it.  One row reaches it from n = 14.
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
@example(seeded_run(11, 2, [2, 3], 3))  # the widest n at which the workspace keeps 2 rows
@example(seeded_run(14, 2, [1, 2], 3))  # n = 14: past the drawn n <= 12 and every QAOA bench workload
@example(THRESHOLD)
@example(ONE_ROW)
@example(ZEROS)
@example(ZEROS_N10)
@example(fixed_run(np.array([0.0, -0.0, -0.0, 0.0]), [np.array([[-1.5, 0.5], [0.75, -0.0]])]))
def test_one_workspace_through_many_row_counts_is_bitwise_the_per_qubit_kernel(run):
    diag, n, K, batches, psi, gamma = run
    kernel = _StateBuffers(K, n, diag)
    K = len(kernel.bufs[0])
    assert len(kernel.level_rows[0]) == len(set(diag.view(np.int64).tolist()))
    one_row = _StateBuffers(1, n, diag)  # the search's workspace
    with np.errstate(all="ignore"):
        for angles in batches:
            expected = evolve_per_qubit(diag, n, angles)
            # in batches of the workspace's rows, each copied out before the
            # next overwrites it, as `ansatz_state` runs them
            got = np.vstack([_evolve(kernel, angles[lo:lo + K]).copy()
                             for lo in range(0, len(angles), K)])
            if len(angles) <= K:
                assert got.tobytes() == expected.tobytes()
            values = expectations_per_row(expected, diag)
            assert _energies(got, diag).tobytes() == values.tobytes()
            # the first row alone, as the search evaluates each point
            assert _energies(_evolve(one_row, angles[:1]), diag).tobytes() == values[:1].tobytes()
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


def test_the_search_builds_one_workspace_of_one_row():
    H = quad_hamiltonian()
    with mock.patch.object(qaoa, "_StateBuffers", wraps=_StateBuffers) as built:
        out = optimize(H, p=2, restarts=2, max_evals=30, seed=0)
    assert out.evaluations == 2 * 30
    # the starts run one after another, and scipy evaluates one point at a time
    assert [c.args[:2] for c in built.call_args_list] == [(1, 4)]


@pytest.mark.parametrize("n", [6, 10])
def test_a_qaoa_solve_builds_one_workspace_and_evolves_each_ramp_row_once(n):
    """At n = 6 the ramp's 10 rows run as one batch; at n = 10 the workspace
    keeps 4 rows, so they run in batches of 4, 4 and 2.  Sampling evolves
    no row again."""
    ms = random_quadruplet_patterns(n, n, seed=n)
    r = measure(random_sparse_signal(n, 3, seed=n), ms)
    spec = SolverSpec("qaoa", 5, shots=64)
    widths = []

    def evolve(kernel, angles):
        widths.append(len(angles))
        return _evolve(kernel, angles)

    with mock.patch.object(qaoa, "_StateBuffers", wraps=_StateBuffers) as built, \
            mock.patch.object(qaoa, "_evolve", side_effect=evolve):
        qaoa_solve(ms, r, spec, seed=n)
    assert built.call_count == 1
    assert sum(widths) == 2 * len(qaoa.ramp_grid(spec.depth))
    assert len(widths) == (1 if n == 6 else 3)


def test_the_phase_layer_reference_builds_no_workspace():
    H = quad_hamiltonian()
    state = ansatz_state(H, QaoaParams((0.3,), (0.7,)))
    with mock.patch.object(qaoa, "_StateBuffers", wraps=_StateBuffers) as built:
        apply_phase_layer(state, H, 0.5)
    assert built.call_count == 0


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


def test_every_workspace_keeps_the_most_rows_within_the_batch_budget():
    for n in range(1, 17):
        K = len(_StateBuffers(50, n, np.zeros(1 << n)).bufs[0])
        assert K == 1 or K * 16 * 2**n <= qaoa._BATCH_BYTES, n
        assert K == 50 or (K + 1) * 16 * 2**n > qaoa._BATCH_BYTES, n


@pytest.mark.parametrize("p", [3, 5])
def test_split_ramp_batches_give_the_one_batch_outcomes(p):
    """At n = 10 on 10 quadruplets, a ramp `optimize` and a QAOA solve give
    the same outcomes with the ramp's 10 rows in one batch, under a 4 MiB
    budget, as in the batches the budget splits them into."""
    ms = random_quadruplet_patterns(10, 10, seed=p)
    r = measure(random_sparse_signal(10, 3, seed=p), ms)
    H, _ = build_hamiltonian(ms, r).normalized()
    runs, widths = [], []
    for budget in (1 << 22, qaoa._BATCH_BYTES):
        kernels = []
        with recording_workspaces(kernels), mock.patch.object(qaoa, "_BATCH_BYTES", budget):
            runs.append((repr(optimize(H, p, schedule="ramp")),
                         repr(qaoa_solve(ms, r, SolverSpec("qaoa", 2 * p, shots=64), seed=p))))
        widths.append(len(kernels[0].bufs[0]))
    assert widths[0] == 10 > widths[1]
    assert runs[0] == runs[1]


def test_ansatz_state_is_not_written_over_by_later_calls():
    H = quad_hamiltonian()
    batch = [QaoaParams((0.3, 1.1), (0.7, 2.0)), QaoaParams((2.0, 0.1), (0.4, 0.9))]
    state, states = ansatz_state(H, batch[0]), ansatz_state(H, batch)
    before = state.tobytes(), states.tobytes()
    ansatz_state(H, batch[1])
    ansatz_state(H, batch[::-1])
    again = ansatz_state(H, batch[0])
    optimize(H, p=2, restarts=2, max_evals=20, seed=3)
    optimize(H, p=2, schedule="ramp")
    apply_mixer_layer(state.copy(), 0.5)
    apply_phase_layer(state.copy(), H, 0.5)
    apply_phase_layer(states[0].copy(), H, 0.5)
    simulate_gates(state.copy(), [Gate.rx(1, 0.3), Gate.cx(1, 2), Gate.rx(2, 0.3)])
    assert (state.tobytes(), states.tobytes()) == before
    assert again.tobytes() == before[0]


def test_a_mixer_sweep_allocates_no_iterator_buffer():
    """Every ufunc and `take` of the sweep writes through `out` on operands
    numpy need not buffer: a reversed operand, or `take`'s default mode,
    makes numpy take a 66 KB buffer here on each call."""
    # 4 rows: as many as the workspace keeps at n = 10
    kernel = _StateBuffers(4, 10, np.random.default_rng(0).normal(size=1 << 10))
    # normalised states in buffer 0, where every sweep starts; at even n the
    # sweep ends there too, so the second sweep also reads written rows
    rng = np.random.default_rng(1)
    states = rng.normal(size=(4, 1 << 10)) + 1j * rng.normal(size=(4, 1 << 10))
    kernel.bufs[0][...] = states / np.linalg.norm(states, axis=1, keepdims=True)
    c, js = qaoa._mixer_factors(np.linspace(0.1, 0.8, 4)[:, None])
    mix = kernel._views(4).mix
    mix(c, js)  # first use of each view and ufunc loop
    tracemalloc.start()
    try:
        mix(c, js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024


def test_a_kernel_batch_allocates_only_its_set_up():
    """A whole `_evolve` batch on a warmed workspace makes only the angle
    set-up's small arrays: the level table as an outer product of i*gamma
    and the levels, or the first layer's multiply by a broadcast (1, 2**n)
    start, would make numpy allocate up to 198 KB here."""
    rng = np.random.default_rng(0)
    kernel = _StateBuffers(4, 10, rng.normal(size=1 << 10))  # the most rows kept at n = 10
    batches = [rng.uniform(-2.0 * np.pi, 4.0 * np.pi, size=(rows, 6)) for rows in (4, 2, 1)]
    for angles in batches:
        _evolve(kernel, angles)  # first use of each row count's views
    for angles in batches:
        tracemalloc.start()
        try:
            _evolve(kernel, angles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4096, (len(angles), peak)


def test_a_qaoa_solve_at_n14_holds_its_ramp_states_one_workspace_and_two_samples():
    """The traced peak of one solve at n = 14, bounded by what it holds per
    index-space entry: the ramp's 10 states, a one-row workspace (two state
    buffers, the temporary and two factor rows, the int64 level index, and
    at most one complex level per entry), the two sampled rows and H's raw
    and normalised diagonals.  Squaring |amp| into a second float array, as
    `np.square(np.abs(states))` does, passes it (`np.abs(states) ** 2`
    does not here: numpy reuses a temporary of 256 KiB or more)."""
    n = 14
    ms = random_quadruplet_patterns(n, n, seed=n)
    r = measure(random_sparse_signal(n, 3, seed=n), ms)
    spec = SolverSpec("qaoa", 5, shots=64)
    qaoa_solve(ms, r, spec, seed=1)  # the set's cached plan, made on first use
    tracemalloc.start()
    try:
        qaoa_solve(ms, r, spec, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    amp, real = 16, 8  # bytes of a complex128 and of a float64 or int64
    states = 2 * len(qaoa.ramp_grid(spec.depth)) * amp
    workspace = 5 * amp + real + amp
    assert peak <= (states + workspace + 2 * amp + 2 * real) << n, peak
