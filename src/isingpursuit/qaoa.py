"""Statevector engine for QAOA over diagonal Hamiltonians.

The ansatz alternates exact diagonal phase evolution exp(i*gamma*H) with a
mixer layer applying exp(i*beta*X) on every qubit, starting from the uniform
superposition.  Because H is diagonal there is no Trotter error: the phase
layer multiplies each amplitude by exp(i*gamma*h(z)) directly.  A gate-level
decomposition (CNOT ladder + RZ per Z string) and a gate simulator exist
for verification, not for the hot path.

One kernel evolves every state.  `_evolve` takes a (K, 2p) array of angle
rows and returns the (K, 2**n) array of ansatz states, so a layer costs the
same few numpy calls for K rows as for one.  Its steps live in a workspace,
`_StateBuffers`: two ping-pong state buffers, one temporary, two factor
rows, and the diagonal's distinct values as complex levels, kept tiled in
one row per state row, with an int64 index from each entry to its level.
A workspace keeps as many rows as it is asked for, up to the `_BATCH_BYTES`
budget, and every batch evolves in the first rows of it.  `optimize` makes
one per run, asked for its widest round.  `ansatz_state` makes one per
call, asked for a row for each set of angles it is given, so a QAOA solve
evolves its two sampled states as one batch (up to n = 17) over the
diagonal its `optimize` run made (the Hamiltonian keeps it); it copies each
batch into the array it returns, so no later call writes over a state it
returned.  `apply_phase_layer` makes one with K = 1.  A layer's phase step
is one exp per row and level, in a (rows, levels) table made by one
same-shape product of the layer's i*gamma, filled across a factor row,
with the level rows; then one gather of the table into full rows and one
phase multiply into buffer 0.  Its mixer is two factor-row fills and three
ufunc calls per qubit, in a sweep that starts at buffer 0.  The workspace
binds both steps once per row count, with their views, levels and factor
rows, so `_evolve`'s layer loop makes two calls per layer and no lookups.
Every step writes its result through `out` into the workspace, so no
result array is made inside the loop, and numpy buffers none of its
operands: each has its result's type and shape, or is a 0-d value, as the
first layer's uniform amplitude is.  Writing cos(beta) and i*sin(beta)
across whole rows lets both products of a mixer step run on same-shape
contiguous operands, numpy's cheapest call; a two-entry `take` then swaps
the halves of each qubit's pairs from the temporary into the spent source,
so the add is contiguous too.  `out`, reused memory, angles and levels
repeated along rows, partners gathered into place and phases gathered from
the level table change where a result lands, not how it is rounded: equal
diagonal bits give equal phase products and exps, and every amplitude
meets the same operands, in the same order, as with an exp per entry,
fresh arrays and broadcast factors.  So each row comes out bitwise equal to
evolving it alone, which pins two details: the phase multiply's operand
order and a 1-D dot per row for the expectation.

`optimize` runs its restarts in lockstep.  Each start is a generator that
replays scipy's Nelder-Mead step for step, in fewer numpy calls, and yields
the points it needs next: its whole initial simplex, one reflection,
expansion or contraction, or all points of a shrink.  Every round, the
points of all live starts go through the kernel as one batch.  Each start
returns exactly the x, value and evaluation count that scipy's minimize
returns for it, while the package itself does not depend on scipy.

Asked for the top of -H as well, `optimize` runs -H's starts as mirrored
lanes of the same batches, over H's diagonal: exp(i*gamma*(-h)) =
exp(i*(-gamma)*h), so `_lockstep` negates their rows' gammas by a
row sign and maps each value v = -<H> to -<-H> as -(0.0 - -v).  Every value
is bit for bit the one -H's own diagonal gives.  IEEE products and sums
commute with negation, so each phase angle (-gamma)*h(z) equals
gamma*(-h(z)); the amplitudes then differ at most in the sign of an exact
zero, which |amp|**2 drops; and each row's dot with -h is its negated dot
with h, except that an exact zero sum is +0.0 both ways, as 0.0 - <H> gives.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .hamiltonian import IsingHamiltonian
from .signal import _check_dense_size


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer angles; depth p = len(gammas) = len(betas), 2p free parameters."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if len(self.gammas) != len(self.betas):
            raise ValueError("gammas and betas must have equal length")
        if len(self.gammas) < 1:
            raise ValueError("depth must be >= 1")

    @property
    def p(self) -> int:
        return len(self.gammas)

    @classmethod
    def from_vector(cls, x: np.ndarray) -> "QaoaParams":
        p = len(x) // 2
        return cls(tuple(float(v) for v in x[:p]), tuple(float(v) for v in x[p:]))

    def to_vector(self) -> np.ndarray:
        return np.array(self.gammas + self.betas)

    def mirrored(self) -> "QaoaParams":
        """The gammas negated: these angles on H give the state these give on -H."""
        return QaoaParams(tuple(-g for g in self.gammas), self.betas)


@dataclass(frozen=True)
class Gate:
    """CX(control, target), RZ(qubit, angle) or RX(qubit, angle); 1-based qubits.

    RZ(theta) = diag(exp(-i*theta/2), exp(+i*theta/2));
    RX(theta) = exp(-i*theta*X/2).
    """

    name: str
    qubits: tuple[int, ...]
    angle: float | None = None

    @classmethod
    def cx(cls, control: int, target: int) -> "Gate":
        if control == target:
            raise ValueError("CX control and target must differ")
        return cls("CX", (control, target))

    @classmethod
    def rz(cls, qubit: int, angle: float) -> "Gate":
        return cls("RZ", (qubit,), float(angle))

    @classmethod
    def rx(cls, qubit: int, angle: float) -> "Gate":
        return cls("RX", (qubit,), float(angle))


def num_qubits(state: np.ndarray) -> int:
    if state.ndim != 1:
        raise ValueError(f"state of shape {state.shape} is not one-dimensional")
    size = state.shape[0]
    if size & (size - 1) or not size:
        raise ValueError(f"state of shape {state.shape}: length {size} is not a power of two")
    return size.bit_length() - 1


def uniform_state(n: int) -> np.ndarray:
    """The uniform superposition: every amplitude 2**(-n/2)."""
    _check_dense_size(n)
    return np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)


# Rows per batch of every workspace, capped so that each of its five (K, 2**n)
# complex arrays (two state buffers, the temporary and two factor rows) and
# its (K, levels) level rows stay within 4 MiB.  So a workspace holds at most
# 24 MiB + 8 * 2**n bytes up to n = 18, with the level index, and 104 * 2**n
# bytes from n = 19, where one row passes 4 MiB and K = 1.  Building it peaks
# higher, by np.unique's temporaries: 32.3 MiB at n = 18 over 2**18 distinct
# values, against 26 MiB kept (tracemalloc).
_BATCH_BYTES = 1 << 22

_Views = namedtuple("_Views", "phase mix probs")
_SWAP = np.array([1, 0])  # a qubit's two halves, exchanged by `take`


class _StateBuffers:
    """The evolve kernel's workspace for one diagonal: two ping-pong
    (K, 2**n) complex state buffers, one temporary and two factor rows; and
    the diagonal's distinct values by bit pattern as complex levels, kept
    tiled in one row per state row in the (K, levels) `level_rows`, with
    `level_of`, the int64 index of each entry's level.

    Asked for `rows` rows, it keeps K = min(rows, _BATCH_BYTES >> (n + 4))
    of them, and at least one.  `optimize` makes one workspace per run, as
    wide as its widest round, and `ansatz_state` one per call, a row for
    each set of angles it is given; both evolve in batches of at most K
    rows.  `apply_phase_layer` makes one with K = 1.  A batch of `rows` rows
    works in `[:rows]` views.  `_views` binds them once per row count, with
    the levels and factor rows, into that batch's phase step, mixer sweep
    and |amp|**2 view, and keeps the three in `by_rows`.  The phase step
    writes buffer 0, so every mixer sweep starts there; each step returns
    the view that holds the state.

    A mixer step on qubit q (MSB-first) applies [[c, js], [js, c]] with c
    and js written across every entry of the factor rows, so both products
    run on same-shape contiguous operands: `c * src` into the other buffer
    and `js * src` into the temporary.  Seen as (-1, 2, 2**(n-q)), axis 1
    is the qubit's bit, and `take` with the index [1, 0] along it copies
    the temporary's contiguous halves, exchanged, into the source, which
    the step no longer reads; mode "clip" keeps numpy from buffering that
    `out`.  One contiguous add of the source into the other buffer then
    gives every amplitude c * psi[j] + js * psi[1-j], the same operands in
    the same order as with factors broadcast from (K, 1, 1, 1).
    """

    def __init__(self, rows: int, n: int, diag: np.ndarray):
        K = min(rows, max(1, _BATCH_BYTES >> (n + 4)))
        self.start = np.array(complex(2.0 ** (-n / 2)))  # 0-d: the uniform amplitude
        self.bufs = [np.empty((K, 1 << n), dtype=complex) for _ in range(3)]
        self.factors = [np.empty((K, 1 << n), dtype=complex) for _ in range(2)]
        self.n, self.diag, self.by_rows = n, diag, {}
        # the distinct entries by bit pattern, so +0.0 and -0.0 stay apart
        bits, self.level_of = np.unique(diag.view(np.int64), return_inverse=True)
        self.level_rows = np.tile(bits.view(float).astype(complex), (K, 1))

    def _views(self, rows: int) -> _Views:
        """The phase step and mixer sweep of a batch of `rows` rows, and the
        view that `_expectations` squares into, built on first use."""
        if rows not in self.by_rows:
            self.by_rows[rows] = self._bind(rows)
        return self.by_rows[rows]

    def _bind(self, rows: int) -> _Views:
        """A batch's steps as closures over its `[:rows]` views, the levels
        and the factor rows.  They pass `out` by position, which numpy
        parses faster than the keyword, and run the same calls."""
        multiply, add, exp = np.multiply, np.add, np.exp
        level_rows, level_of = self.level_rows[:rows], self.level_of
        flat = [a[:rows] for a in self.bufs]
        phased, temp, mixed = flat[0], flat[2], flat[self.n % 2]
        table, jrows = (f.reshape(-1)[:level_rows.size].reshape(rows, -1) for f in self.factors)
        take = table.take
        fc, fjs = (f[:rows] for f in self.factors)
        sweep = []
        for q in range(1, self.n + 1):
            # source, destination, then two (-1, 2, 2**(n-q)) views, bit as axis 1
            src, dst = flat[(q - 1) % 2], flat[q % 2]
            halves, spent = (a.reshape(-1, 2, 1 << (self.n - q)) for a in (temp, src))
            sweep.append((src, dst, halves.take, spent))

        def phase(psi: np.ndarray, jg: np.ndarray) -> np.ndarray:
            """Row k of psi (any buffer, or the 0-d start) times exp(jg[k] *
            diag) into buffer 0.

            The exp runs once per row and level, in a (rows, levels) table
            in the first factor row, which the mixer only writes afterwards:
            jg, filled across the same shape in the second factor row, times
            the level rows, jg first as in the outer product jg * levels.
            `take` then gathers the table into the temporary.  Equal diagonal
            bits give equal products and exps, so each entry gets the bits
            an exp per entry gives.

            The operand order is pinned: the FMA complex multiply rounds
            psi * ph and ph * psi differently, and numpy's expression form
            `psi * np.exp(...)` swaps them once the exp temporary reaches
            256 KiB.
            """
            jrows[...] = jg
            multiply(jrows, level_rows, table)
            exp(table, table)
            # axis 1, and mode "clip", which never clips here: the default
            # mode would buffer `out`
            take(level_of, 1, temp, "clip")
            return multiply(psi, temp, phased)

        def mix(c, js) -> np.ndarray:
            """Apply [[c, js], [js, c]] (js = i*s) on every qubit in turn,
            from buffer 0; c and js are scalars or (rows, 1)."""
            fc[...] = c
            fjs[...] = js
            for src, dst, swap, spent in sweep:
                multiply(fc, src, dst)
                multiply(fjs, src, temp)
                swap(_SWAP, 1, spent, "clip")
                add(dst, src, dst)
            return mixed

        probs = self.bufs[2].reshape(-1).view(float)[:rows << self.n].reshape(rows, -1)
        return _Views(phase, mix, probs)


def _mixer_factors(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(beta) as complex and i*sin(beta), entry by entry: exp(i*beta*X)
    on one qubit is [[c, js], [js, c]].  sin(beta) is cast to complex first,
    exactly, so that the product runs on operands of one type, which numpy
    need not buffer, and gives the bits of 1j * sin(beta)."""
    return np.cos(betas).astype(complex), 1j * np.sin(betas).astype(complex)


def apply_phase_layer(state: np.ndarray, H: IsingHamiltonian, gamma: float) -> np.ndarray:
    """amplitude_z *= exp(i * gamma * h(z)); exact, norm preserving."""
    if num_qubits(state) != H.n:
        raise ValueError(f"state has {num_qubits(state)} qubits but H has {H.n}")
    kernel = _StateBuffers(1, H.n, H.diagonal())
    return kernel._views(1).phase(state[None], 1j * np.array([[gamma]]))[0]


def _evolve(kernel: _StateBuffers, angles: np.ndarray) -> np.ndarray:
    """Ansatz states for a (rows, 2p) array of angle rows [gammas, betas],
    at most the workspace's K: the workspace's (rows, 2**n) state view,
    which the next batch overwrites.

    The set-up takes i*gamma, cos(beta) as complex and i*sin(beta) for all p
    layers at once, each product on angles cast to complex first, as
    `_mixer_factors` does, and the batch's phase step and mixer sweep, bound
    once for its row count.  Each layer then runs the two, all through `out`.
    Every amplitude meets the same operands, in the same order, as with an
    exp per entry, a fresh array per step and broadcast factors, so each
    row is bitwise the state that evolving it alone gives (the oracle tests
    check this).
    """
    p = angles.shape[1] // 2
    jg = 1j * angles[:, :p].T[:, :, None].astype(complex)  # (p, rows, 1)
    c, js = _mixer_factors(angles[:, p:].T[:, :, None])  # (p, rows, 1)
    phase, mix, _ = kernel._views(len(angles))
    psi = kernel.start  # the first phase layer broadcasts it to every entry
    for layer_jg, layer_c, layer_js in zip(jg, c, js):
        phase(psi, layer_jg)
        psi = mix(layer_c, layer_js)
    return psi


def _expectations(kernel: _StateBuffers, angles: np.ndarray) -> np.ndarray:
    """<h> for each row of angles, in batches of up to the workspace's K
    rows, through |amp|**2 in the temporary.  np.vecdot runs a 1-D dot on
    each contiguous row: a matrix-vector product would sum in another order."""
    K = len(kernel.bufs[0])
    out = np.empty(len(angles))
    for lo in range(0, len(angles), K):
        batch = angles[lo:lo + K]
        probs = kernel._views(len(batch)).probs
        np.abs(_evolve(kernel, batch), out=probs)
        np.square(probs, out=probs)  # what `** 2` runs
        np.vecdot(probs, kernel.diag, out=out[lo:lo + K])
    return out


def ansatz_state(H: IsingHamiltonian, params: QaoaParams | Sequence[QaoaParams]) -> np.ndarray:
    """Uniform start, then alternating phase and mixer layers: the 1-D state
    for one QaoaParams.

    A sequence of QaoaParams of one depth evolves on one workspace, over
    one diagonal and one level table, in batches of up to its K rows, and
    gives a (len(params), 2**n) array whose row k is bitwise ansatz_state(H,
    params[k]).  Each batch is copied out of the workspace into that fresh
    array, so no later call writes over a state it returned.
    """
    rows = [params] if isinstance(params, QaoaParams) else list(params)
    if len({row.p for row in rows}) != 1:
        raise ValueError("ansatz_state needs one or more QaoaParams of one depth")
    angles = np.array([row.to_vector() for row in rows])
    kernel = _StateBuffers(len(rows), H.n, H.diagonal())
    K = len(kernel.bufs[0])
    states = np.empty((len(rows), 1 << H.n), dtype=complex)
    for lo in range(0, len(rows), K):
        states[lo:lo + K] = _evolve(kernel, angles[lo:lo + K])
    return states[0] if isinstance(params, QaoaParams) else states


@dataclass(frozen=True)
class OptimizeOutcome:
    """Best parameters found, the expectation they achieve, and the eval count."""

    params: QaoaParams
    expectation: float
    evaluations: int


@dataclass(frozen=True)
class PairedOutcome:
    """One lockstep run over H and -H: each target's best, with `minus`
    in -H's own angles and expectation."""

    plus: OptimizeOutcome
    minus: OptimizeOutcome

    @property
    def evaluations(self) -> int:
        """Evaluations over both targets."""
        return self.plus.evaluations + self.minus.evaluations


# Nelder-Mead stopping tolerances on the simplex spread in x and in f.
XATOL = 1e-4
FATOL = 1e-7
# Default random starts, and default evaluation budget per start.
RESTARTS = 10
MAX_EVALS = 200


def _nelder_mead(x0: np.ndarray, maxfev: int):
    """Nelder-Mead minimisation from x0, step for step as scipy.optimize.minimize
    runs it with method="Nelder-Mead" and options maxfev, xatol=XATOL and
    fatol=FATOL (no bounds, adaptive=False; checked against scipy 1.17).

    A generator: it yields an (m, N) array of points, is sent their m values,
    and returns (x, fun, nfev).  The initial simplex and a shrink yield all
    their points at once.  The budget cuts exactly where scipy's does: the
    initial simplex keeps inf for vertices past maxfev; an expansion or
    contraction that finds no budget left drops the reflected point; and a
    shrink that runs out moves the next vertex but keeps its old value.

    Fewer numpy calls give scipy's bits: one spread |sim[-1, 0] - sim[0, 0]|
    above XATOL (or NaN) fails the convergence test before the full test
    would; the reflection drops the exact copy rho * sim[-1] (rho = 1); and
    array methods replace np.max, np.argsort, np.take and np.add.reduce:
    the same ufunc loops and copies with less dispatch (fancy indexing by
    the sort order costs about three times `take` on the (N + 1, N) simplex).
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        sim[k + 1] = x0
        sim[k + 1, k] = (1 + nonzdelt) * x0[k] if x0[k] != 0 else zdelt
    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = min(N + 1, maxfev)
    fsim[:nfev] = yield sim[:nfev]
    # scipy sorts twice here; argsort need not be stable, so keep both
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind)

    while nfev < maxfev:
        if (abs(sim[-1, 0] - sim[0, 0]) <= XATOL
                and np.abs(sim[1:] - sim[0]).max() <= XATOL
                and np.abs(fsim[0] - fsim[1:]).max() <= FATOL):
            break
        xbar = sim[:-1].sum(0) / N
        xr = (1 + rho) * xbar - sim[-1]
        (fxr,) = yield xr[None]
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            if nfev < maxfev:
                (fxe,) = yield xe[None]
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:  # outside contraction
                xc = (1 + psi * rho) * xbar - psi * rho * sim[-1]
                (fxc,) = yield xc[None]
                nfev += 1
                doshrink = not fxc <= fxr
                if not doshrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:  # inside contraction
                xcc = (1 - psi) * xbar + psi * sim[-1]
                (fxcc,) = yield xcc[None]
                nfev += 1
                doshrink = not fxcc < fsim[-1]
                if not doshrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if doshrink:
                m = min(N, maxfev - nfev)
                moved = min(N, m + 1)
                sim[1:moved + 1] = sim[0] + sigma * (sim[1:moved + 1] - sim[0])
                if m > 0:
                    fsim[1:m + 1] = yield sim[1:m + 1]
                    nfev += m
        ind = fsim.argsort()
        sim, fsim = sim.take(ind, 0), fsim.take(ind)
    return sim[0], fsim.min(), nfev


def _lockstep(lanes: list, objective, mirrored: int = 0) -> list:
    """Run generator lanes to completion together.  Each round, the points
    every live lane is waiting on go to `objective` as one (m, N) array, and
    each lane is sent its own slice of the m values.  Returns the lanes'
    return values in order.  The last `mirrored` lanes run over -H (see the
    module docstring): their rows, last in the batch, are multiplied in
    place by the row sign [-1] * p + [1] * p, and their values v go back as
    -(0.0 - -v)."""
    results: list = [None] * len(lanes)
    pending: dict = {}
    first_mirrored, sign = len(lanes) - mirrored, None

    def advance(i, values):
        try:
            pending[i] = lanes[i].send(values)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(lanes)):
        advance(i, None)
    while pending:
        live = list(pending.items())
        batch = np.concatenate([points for _, points in live])
        split = sum(len(points) for i, points in live if i < first_mirrored)
        if split < len(batch):
            sign = np.repeat([-1.0, 1.0], batch.shape[1] // 2) if sign is None else sign
            batch[split:] *= sign
        values = objective(batch)
        tail = values[split:]
        np.negative(tail, tail)
        np.subtract(0.0, tail, tail)
        np.negative(tail, tail)
        values, lo = values.tolist(), 0
        for i, points in live:
            advance(i, values[lo:lo + len(points)])
            lo += len(points)
    return results


def _best(outcomes: list) -> OptimizeOutcome:
    """The first start with the highest expectation, and all starts' evaluations."""
    best_x, best_val, evaluations = None, -np.inf, 0
    for x, fun, nfev in outcomes:
        evaluations += nfev
        if -fun > best_val:
            best_val, best_x = -float(fun), x
    if best_x is None:  # only a diagonal holding inf, -inf or NaN gets here
        raise ValueError("no start reached an expectation that is not NaN: "
                         "the Hamiltonian's diagonal is not finite")
    return OptimizeOutcome(QaoaParams.from_vector(best_x), best_val, evaluations)


def optimize(
    H: IsingHamiltonian,
    p: int,
    restarts: int = RESTARTS,
    max_evals: int = MAX_EVALS,
    seed=None,
    init: QaoaParams | None = None,
    *,
    negated_seed=None,
) -> OptimizeOutcome | PairedOutcome:
    """Maximize <h> in ansatz_state(H, .) over 2p angles.

    Derivative-free simplex search (Nelder-Mead, at most max_evals
    evaluations per start) from `restarts` uniform random starts in
    [0, 2*pi)**(2p), all run in lockstep; an optional warm start runs as
    the first lane.  Nelder-Mead evaluates its start first and its best
    vertex never gets worse, so a warm-started result never falls below the
    warm start's value (on an exact tie it may be another vertex).
    Deterministic for a fixed seed and best-effort; raises ValueError only
    for a depth or an evaluation budget below 1, for no start at all, for a
    warm start of another depth, for `negated_seed` with no restarts, or
    when no start reaches an expectation that is not NaN, which takes a
    diagonal that is not finite.

    With `negated_seed`, -H is maximized as well, from `restarts` starts
    drawn from that seed, and a PairedOutcome is returned.  -H's starts run
    as mirrored lanes of the same batches over H's diagonal, and each
    target's result is bitwise the one a separate call on H or on -H
    with its seed returns.  The warm start applies to H only.
    """
    if p < 1:
        raise ValueError(f"depth must be >= 1, got {p}")
    if restarts < 1 and init is None:
        raise ValueError("need at least one restart or a warm start")
    if restarts < 1 and negated_seed is not None:
        raise ValueError("-H needs at least one restart: the warm start applies to H only")
    if max_evals < 1:
        raise ValueError(f"max_evals must be >= 1, got {max_evals}")
    rng = np.random.default_rng(seed)
    starts = []
    if init is not None:
        if init.p != p:
            raise ValueError(f"warm start has depth {init.p}, expected {p}")
        starts.append(init.to_vector())
    starts.extend(rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts))
    neg_starts = []
    if negated_seed is not None:
        neg_rng = np.random.default_rng(negated_seed)
        neg_starts = [neg_rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts)]
    lanes = [_nelder_mead(x0, max_evals) for x0 in starts + neg_starts]

    # as wide as the widest round, every lane's initial simplex
    kernel = _StateBuffers(len(lanes) * min(2 * p + 1, max_evals), H.n, H.diagonal())

    def objective(angles: np.ndarray) -> np.ndarray:
        return -_expectations(kernel, angles)

    outcomes = _lockstep(lanes, objective, len(neg_starts))
    plus, minus = outcomes[:len(starts)], outcomes[len(starts):]
    if negated_seed is None:
        return _best(plus)
    return PairedOutcome(_best(plus), _best(minus))


def sample_candidates(state: np.ndarray, shots: int, seed=None) -> list[int]:
    """shots i.i.d. basis-index draws from |amp_z|^2."""
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(len(probs), size=shots, p=probs).tolist()


def decompose_evolution(H: IsingHamiltonian, t: float) -> list[Gate]:
    """Gate list for exp(i*t*H): per Z string of size k, a CNOT parity ladder,
    one RZ(-2*t*coeff) on the last support qubit, and the reversed ladder,
    i.e. 2(k-1) CNOTs and 1 RZ.  Identity terms are a global phase and emit
    no gates.
    """
    gates: list[Gate] = []
    for support in sorted(H.terms, key=lambda s: (len(s), sorted(s))):
        if not support:
            continue
        coeff = H.terms[support]
        qs = sorted(support)
        for a, b in zip(qs, qs[1:]):
            gates.append(Gate.cx(a, b))
        gates.append(Gate.rz(qs[-1], -2.0 * t * coeff))
        for a, b in reversed(list(zip(qs, qs[1:]))):
            gates.append(Gate.cx(a, b))
    return gates


def simulate_gates(state: np.ndarray, gates: list[Gate]) -> np.ndarray:
    """Apply a gate list by exact 1- and 2-qubit updates, each through a view
    of a complex copy of state; RX meets the mixer step's operands in order."""
    n = num_qubits(state)
    psi = state.astype(complex)
    for g in gates:
        for q in g.qubits:
            if not 1 <= q <= n:
                raise ValueError(f"gate {g.name} touches qubit {q} outside [1, {n}]")
        # the gate's qubits as the leading axes
        view = np.moveaxis(psi.reshape((2,) * n), [q - 1 for q in g.qubits],
                           range(len(g.qubits)))
        if g.name == "CX":
            view[1] = view[1, ::-1].copy()
        elif g.name == "RZ":
            view[0] *= np.exp(-0.5j * g.angle)
            view[1] *= np.exp(+0.5j * g.angle)
        elif g.name == "RX":
            view[...] = np.cos(g.angle / 2) * view + 1j * -np.sin(g.angle / 2) * view[::-1]
        else:
            raise ValueError(f"unknown gate {g.name!r}")
    return psi
