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
budget, and every batch evolves in the first rows of it.  `ansatz_state`
makes one per call, a row for each set of angles it is given, and copies
each batch into the array it returns, so no later call writes over a state
it returned; the search makes one of one row, and no other function makes
one.  The ramp is one `ansatz_state` call, whose states a QAOA solve
samples, so a solve evolves each ramp row once.  A layer's phase step
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
order and, in `_energies`, the one expectation formula, a 1-D dot per row.

`optimize` picks angles by one of two schedules.  The "ramp" schedule,
the one `qaoa_solve` runs, searches nothing.  `ramp_grid(p)` holds one row
of 2p angles per slope a in RAMP_SLOPES, a linear ramp at the one mix
b = RAMP_MIX: gamma_l = a * (l + 1/2) / p and beta_l = b * (1 - (l + 1/2) / p)
at layer l, the discretised annealing path from which Sack and Serbyn start
QAOA (Quantum 5, 491 (2021)), run with no optimiser as in linear-ramp QAOA
(Montanez-Barrera and Michielsen, 2024).  No other mix won: b = 0 leaves the
uniform state, and of a 5 x 5 grid with b in linspace(-3, 3, 5), no b <= 0
row was ever chosen.  The ramp picks angles for the top of H and of -H at
once: all rows of both evolve in one `ansatz_state` call, and each target
keeps its first best row, and its state: one free number, a.

-H's rows run over H's diagonal: exp(i*gamma*(-h)) = exp(i*(-gamma)*h), so
they are H's rows times a row sign that negates their gammas.  The value
<H> of such a row is mapped to <-H> as 0.0 - <H>, bit for bit the one -H's
own diagonal gives.  IEEE products and sums commute with negation, so each
phase angle (-gamma)*h(z) equals gamma*(-h(z)); the amplitudes then differ
at most in the sign of an exact zero, which |amp|**2 drops, so the state
samples as -H's own; and each row's dot with -h is its negated dot with h,
except that an exact zero sum is +0.0 both ways, as 0.0 - <H> gives.

The "search" schedule, `optimize`'s default, runs scipy's Nelder-Mead
from each start in turn on a one-row workspace, and imports scipy.optimize
only then: importing the package and every ramp solve leave it unloaded.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .hamiltonian import IsingHamiltonian
from .signal import _check_dense_size, _read_count, _read_float, _read_int, _read_seed


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer angles; depth p = len(gammas) = len(betas), 2p free parameters.
    Any sequences of numbers are kept as tuples of floats, each angle read
    by _read_float, so it must be a finite number and not a bool."""

    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        for name in ("gammas", "betas"):
            object.__setattr__(self, name, tuple(_read_float(v, name) for v in getattr(self, name)))
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
        return cls(x[:p], x[p:])

    def to_vector(self) -> np.ndarray:
        return np.array(self.gammas + self.betas)


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
    """The uniform superposition: every amplitude 2**(-n/2); n is read by
    _read_int."""
    n = _read_int(n, "n")
    _check_dense_size(n)
    return np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)


# Rows per batch of every workspace, capped so that each of its five (K, 2**n)
# complex arrays (two state buffers, the temporary and two factor rows) and
# its (K, levels) level rows stay within 64 KiB, so that a batch works in a
# core's L2 cache.  A batch that spills it costs more per row: 50 ramp
# rows at n = 10, p = 3 took 12.7 ms in one batch under 4 MiB per array
# and 7.7 ms in batches of 4 under 64 KiB (2-core Xeon, 2 MiB L2 per core;
# CHANGES.md has the sweep).  So a workspace holds at most 384 KiB + 8 * 2**n
# bytes up to n = 12, with the level index, and 104 * 2**n bytes from
# n = 13, where one row passes 64 KiB and K = 1.  Building it peaks higher,
# by np.unique's temporaries: 32.3 MiB at n = 18 over 2**18 distinct values,
# against 26 MiB kept (tracemalloc).
_BATCH_BYTES = 1 << 16

_Views = namedtuple("_Views", "phase mix")
_SWAP = np.array([1, 0])  # a qubit's two halves, exchanged by `take`


class _StateBuffers:
    """The evolve kernel's workspace for one diagonal: two ping-pong
    (K, 2**n) complex state buffers, one temporary and two factor rows; and
    the diagonal's distinct values by bit pattern as complex levels, kept
    tiled in one row per state row in the (K, levels) `level_rows`, with
    `level_of`, the int64 index of each entry's level.

    Asked for `rows` rows, it keeps K = min(rows, _BATCH_BYTES >> (n + 4))
    of them, and at least one: up to 64 rows at n = 6, 4 at n = 10 and one
    from n = 12.  `ansatz_state` makes one workspace per call, a row for
    each set of angles it is given (the ramp's call gives it all ten ramp
    rows), and the search one of one row; all evolve in batches of at most
    K rows.  A batch of `rows` rows works in `[:rows]` views.  `_views`
    binds them once per row count, with the levels and factor rows, into
    that batch's phase step and mixer sweep, and keeps the two in
    `by_rows`.  The phase step writes buffer 0, so every mixer sweep
    starts there; each step returns the view that holds the state.

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
        """The phase step and mixer sweep of a batch of `rows` rows, built on
        first use."""
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

        return _Views(phase, mix)


def _mixer_factors(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(beta) as complex and i*sin(beta), entry by entry: exp(i*beta*X)
    on one qubit is [[c, js], [js, c]].  sin(beta) is cast to complex first,
    exactly, so that the product runs on operands of one type, which numpy
    need not buffer, and gives the bits of 1j * sin(beta)."""
    return np.cos(betas).astype(complex), 1j * np.sin(betas).astype(complex)


def apply_phase_layer(state: np.ndarray, H: IsingHamiltonian, gamma: float) -> np.ndarray:
    """amplitude_z *= exp(i * gamma * h(z)), gamma read by _read_float; exact, norm preserving."""
    gamma = _read_float(gamma, "gamma")
    if num_qubits(state) != H.n:
        raise ValueError(f"state has {num_qubits(state)} qubits but H has {H.n}")
    return np.multiply(state, np.exp(1j * gamma * H.diagonal()))  # the kernel's operand order


def _evolve(kernel: _StateBuffers, angles: np.ndarray) -> np.ndarray:
    """Ansatz states for a (rows, 2p) array of angle rows [gammas, betas],
    at most the workspace's K: the workspace's (rows, 2**n) state view,
    which the next batch overwrites.

    The set-up takes i*gamma, cos(beta) as complex and i*sin(beta) for all p
    layers at once, each product on angles cast to complex first, as
    `_mixer_factors` does, and the batch's phase step and mixer sweep, bound
    once for its row count.  Each layer then runs the two, all through
    `out`.  Every amplitude meets the same operands, in the same order, as
    with an exp per entry, a fresh array per step and broadcast factors, so
    each row is bitwise the state that evolving it alone gives (the oracle
    tests check this).
    """
    p = angles.shape[1] // 2
    jg = 1j * angles[:, :p].T[:, :, None].astype(complex)  # (p, rows, 1)
    c, js = _mixer_factors(angles[:, p:].T[:, :, None])  # (p, rows, 1)
    phase, mix = kernel._views(len(angles))
    psi = kernel.start  # the first phase layer broadcasts it to every entry
    for layer_jg, layer_c, layer_js in zip(jg, c, js):
        phase(psi, layer_jg)
        psi = mix(layer_c, layer_js)
    return psi


def _energies(states: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """<h> for each row of a (rows, 2**n) array of states: |amp|**2 in one
    float array, squared in place, then np.vecdot, which runs a 1-D dot on
    each contiguous row: a matrix-vector product would sum in another order."""
    probs = np.abs(states)
    np.square(probs, out=probs)  # what `** 2` runs
    return np.vecdot(probs, diag)


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
    """The ramp's outcome over H and -H: each target's first best grid row,
    with `minus` in -H's own angles and expectation, and the two rows'
    states as evolved on H, `plus`'s then `minus`'s at its gammas negated."""

    plus: OptimizeOutcome
    minus: OptimizeOutcome
    states: np.ndarray = field(repr=False, compare=False)

    @property
    def evaluations(self) -> int:
        """Evaluations over both targets."""
        return self.plus.evaluations + self.minus.evaluations


# Nelder-Mead stopping tolerances on the simplex spread in x and in f.
XATOL = 1e-4
FATOL = 1e-7
# Default random starts, and default evaluation budget per start, of the search.
RESTARTS = 10
MAX_EVALS = 200
# How `optimize` picks angles: a Nelder-Mead search, or the best row of a
# fixed grid of linear ramps.
SCHEDULES = ("ramp", "search")
# The ramp grid: slopes a = 8k/5 (k = 1 .. 5) of the gammas at one mix b of
# the betas (see the module docstring); a > 0 suffices, since (gamma, beta) ->
# (-gamma, -beta) conjugates the state and leaves its probabilities unchanged.
RAMP_SLOPES = 8.0 * np.arange(1, 6) / 5
RAMP_MIX = 1.5


def _best(values: list[float]) -> int:
    """The index of the first highest of a list of expectations: the one
    rule by which a ramp row or a search start wins.  NaN never wins."""
    best, best_val = None, -np.inf
    for k, value in enumerate(values):
        if value > best_val:
            best, best_val = k, value
    if best is None:  # only a diagonal holding inf, -inf or NaN gets here
        raise ValueError("no start reached an expectation that is not NaN: "
                         "the Hamiltonian's diagonal is not finite")
    return best


def ramp_grid(p: int) -> np.ndarray:
    """The ramp schedule's angle rows [gammas, betas], one per slope a in
    RAMP_SLOPES: at layer l = 0 .. p - 1, gamma_l = a * (l + 1/2) / p and
    beta_l = RAMP_MIX * (1 - (l + 1/2) / p).  p is read by _read_count."""
    p = _read_count(p, "p")
    t = np.arange(p) + 0.5
    betas = np.broadcast_to(RAMP_MIX * (1 - t / p), (len(RAMP_SLOPES), p))
    return np.hstack([RAMP_SLOPES[:, None] * t / p, betas])


def optimize(
    H: IsingHamiltonian,
    p: int,
    restarts: int = RESTARTS,
    max_evals: int = MAX_EVALS,
    seed=None,
    init: QaoaParams | None = None,
    *,
    schedule: str = "search",
) -> OptimizeOutcome | PairedOutcome:
    """Maximize <h> in ansatz_state(H, .) over 2p angles.

    With schedule "search", the default: scipy.optimize.minimize's
    Nelder-Mead (maxfev = max_evals, xatol = XATOL, fatol = FATOL) from
    `restarts` uniform random starts in [0, 2*pi)**(2p), drawn from seed,
    run one after another on a one-row workspace; an optional warm start
    runs first.  Nelder-Mead evaluates its start first and its best vertex
    never gets worse, so a warm-started result never falls below the warm
    start's value (on an exact tie it may be another vertex).
    Deterministic for a fixed seed and best-effort.

    With schedule "ramp": no search, and a PairedOutcome for H and -H.
    Every row of `ramp_grid(p)`, and each of them mirrored for -H, evolves
    in one `ansatz_state` call on H, and each target's first best row wins
    and keeps its state; its evaluation count is its rows evaluated, and
    its result is bitwise the one a ramp on its own diagonal gives.  The
    ramp reads neither restarts, max_evals nor seed (they are still
    checked) and takes no warm start.

    Raises ValueError for an unknown schedule, for a p, max_evals or
    restarts that is not an integer (as _read_int reads one), for a p or
    max_evals below 1 (as _read_count), for a negative restarts, for a seed
    that is not None and not a non-negative integer (as _read_seed), when
    no row or start reaches an expectation that is not NaN, which takes a
    diagonal that is not finite, and, for the search, for no start at all
    and for a warm start of another depth.
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"schedule must be one of {SCHEDULES}, got {schedule!r}")
    # restarts may be 0 with a warm start
    p, restarts, max_evals = (_read_count(p, "p"), _read_seed(restarts, "restarts"),
                              _read_count(max_evals, "max_evals"))
    seed = None if seed is None else _read_seed(seed)
    if schedule == "ramp":
        if init is not None:
            raise ValueError("a warm start needs the search schedule")
        grid = ramp_grid(p)
        # -H's rows: H's with their gammas negated (see the module docstring)
        rows = np.vstack([grid, grid * np.repeat([-1.0, 1.0], p)]).tolist()
        params = [QaoaParams.from_vector(x) for x in rows]
        states = ansatz_state(H, params)
        values, g = _energies(states, H.diagonal()).tolist(), len(grid)
        plus, minus = values[:g], [0.0 - v for v in values[g:]]
        i, j = _best(plus), _best(minus)
        return PairedOutcome(OptimizeOutcome(params[i], plus[i], g),
                             OptimizeOutcome(params[j], minus[j], g), states[[i, g + j]])

    if restarts < 1 and init is None:
        raise ValueError("need at least one restart or a warm start")
    rng = np.random.default_rng(seed)
    starts = []
    if init is not None:
        if init.p != p:
            raise ValueError(f"warm start has depth {init.p}, expected {p}")
        starts.append(init.to_vector())
    starts.extend(rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts))
    # imported here: scipy.optimize takes about 0.5 s to import (2-core Xeon),
    # and no QAOA solve, CLI command or bench workload runs the search
    from scipy.optimize import minimize
    kernel = _StateBuffers(1, H.n, H.diagonal())

    def objective(x: np.ndarray) -> float:
        return -_energies(_evolve(kernel, x[None]), kernel.diag)[0]

    options = {"maxfev": max_evals, "xatol": XATOL, "fatol": FATOL}
    runs = [minimize(objective, x0, method="Nelder-Mead", options=options) for x0 in starts]
    values = [-float(res.fun) for res in runs]
    best = _best(values)
    return OptimizeOutcome(QaoaParams.from_vector(runs[best].x), values[best],
                           sum(res.nfev for res in runs))


def sample_candidates(state: np.ndarray, shots: int, seed=None) -> list[int]:
    """shots i.i.d. basis-index draws from |amp_z|^2."""
    shots = _read_count(shots, "shots")
    probs = np.abs(state) ** 2
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(len(probs), size=shots, p=probs).tolist()


def decompose_evolution(H: IsingHamiltonian, t: float) -> list[Gate]:
    """Gate list for exp(i*t*H): per Z string of size k, a CNOT parity ladder,
    one RZ(-2*t*coeff) on the last support qubit, and the reversed ladder,
    i.e. 2(k-1) CNOTs and 1 RZ.  Identity terms are a global phase and emit
    no gates.  t is read by _read_float, as QaoaParams reads its angles."""
    t = _read_float(t, "t")
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
