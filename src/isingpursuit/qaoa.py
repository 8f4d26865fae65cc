"""Statevector engine for QAOA over diagonal Hamiltonians.

The ansatz alternates exact diagonal phase evolution exp(i*gamma*H) with a
mixer layer applying exp(i*beta*X) on every qubit, starting from the uniform
superposition.  Because H is diagonal there is no Trotter error: the phase
layer multiplies each amplitude by exp(i*gamma*h(z)) directly.  A gate-level
decomposition (CNOT ladder + RZ per Z string) exists for verification and
export, not for the hot path.

One kernel evolves every state.  `_evolve` takes a (K, 2p) array of angle
rows and returns the (K, 2**n) array of ansatz states, so a layer costs the
same few numpy calls for K rows as for one.  Its steps live in
`_StateBuffers`: two ping-pong (K, 2**n) buffers and one temporary,
allocated once per call, with each sweep's views built on first use.  A
layer is then one exp, one phase multiply and three ufunc calls per qubit, each
writing through `out=`, with no array made inside the loop.
`ansatz_state`, the single layers and the RX gates of `simulate_gates` run
the same steps with K = 1.  `out=` changes where a result lands, not how
it is rounded: every amplitude meets the same operands, in the same order,
as with fresh arrays.  So each row comes out bitwise equal to evolving it
alone, which pins two details: the phase multiply's operand order and a
1-D dot per row for the expectation.

`optimize` runs its restarts in lockstep.  Each start is a generator that
replays scipy's Nelder-Mead step for step and yields the points it needs
next: its whole initial simplex, one reflection, expansion or contraction,
or all points of a shrink.  Every round, the points of all live starts go
through the kernel as one batch.  Each start therefore returns exactly the
x, value and evaluation count that scipy.optimize.minimize returns for it,
while the package itself does not depend on scipy.

Asked for the top of -H as well, `optimize` runs -H's starts as mirrored
lanes of the same batches, over H's diagonal.  Since exp(i*gamma*(-h)) =
exp(i*(-gamma)*h), a mirrored lane sends its points with their gammas
negated and takes 0.0 - <H> as its <-H>.  Every value is bit for bit the
one -H's own diagonal gives.  IEEE products and sums commute with
negation, so each phase angle (-gamma)*h(z) equals gamma*(-h(z)); the
amplitudes then differ at most in the sign of an exact zero, which
|amp|**2 drops; and each row's dot with -h is its negated dot with h,
except that an exact zero sum is +0.0 both ways, as 0.0 - <H> gives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hamiltonian import IsingHamiltonian

QUBIT_CAP = 20


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
    size = state.shape[0]
    n = size.bit_length() - 1
    if state.ndim != 1 or size != 1 << n:
        raise ValueError(f"state length {size} is not a power of two")
    return n


def uniform_state(n: int) -> np.ndarray:
    """The uniform superposition: every amplitude 2**(-n/2)."""
    if not 1 <= n <= QUBIT_CAP:
        raise ValueError(f"qubit count must be in [1, {QUBIT_CAP}], got {n}")
    return np.full(1 << n, 2.0 ** (-n / 2), dtype=complex)


class _StateBuffers:
    """Two ping-pong (K, 2**n) complex state buffers and one temporary, with
    each mixer step's views built on first use.  The state sits in `psi`.

    A mixer step on qubit q (MSB-first) reads the (K, 2**(q-1), 2, 2**(n-q))
    view of the current buffer, whose axis 2 is the qubit's bit, and writes
    the same view of the other one; reversing axis 2 pairs each amplitude
    with its partner.  So a step makes no array and calls no reshape.
    """

    def __init__(self, K: int, n: int):
        self.bufs = [np.empty((K, 1 << n), dtype=complex) for _ in range(3)]
        self.tmp, self.cur, self.n = self.bufs[2], 0, n
        self.steps: dict = {}  # by (buffer read first, qubit or None for all)

    @property
    def psi(self) -> np.ndarray:
        return self.bufs[self.cur]

    def phase(self, psi: np.ndarray, jg: np.ndarray, diag: np.ndarray) -> None:
        """Row k of psi times exp(jg[k] * diag), into buffer 0, so that every
        sweep of the mixer that follows starts there; psi may be any buffer.

        The operand order is pinned: the FMA complex multiply rounds
        psi * ph and ph * psi differently, and numpy's expression form
        `psi * np.exp(...)` swaps them once the exp temporary reaches 256 KiB.
        """
        ph = np.multiply(jg, diag, out=self.tmp)
        np.exp(ph, out=ph)
        self.cur = 0
        np.multiply(psi, ph, out=self.psi)

    def mix(self, c, js, qubit: int | None = None) -> None:
        """Apply [[c, js], [js, c]] (js = i*s) on one qubit, or on every qubit
        in turn when qubit is None, of every row.  c and js are scalars or
        per-row arrays of shape (K, 1, 1, 1)."""
        if (self.cur, qubit) not in self.steps:  # (source, its reverse, destination, temporary)
            qubits = range(1, self.n + 1) if qubit is None else [qubit]
            views = [[a.reshape(len(a), 1 << (q - 1), 2, -1) for a in self.bufs] for q in qubits]
            self.steps[self.cur, qubit] = [(v[b], v[b][:, :, ::-1], v[1 - b], v[2]) for v, b
                                           in zip(views, [self.cur, 1 - self.cur] * self.n)]
        steps = self.steps[self.cur, qubit]
        for src, flip, dst, tmp in steps:
            np.multiply(c, src, out=dst)
            np.multiply(js, flip, out=tmp)
            np.add(dst, tmp, out=dst)
        self.cur = (self.cur + len(steps)) % 2


def _mixer_factors(betas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos(beta) as complex and i*sin(beta), entry by entry: exp(i*beta*X)
    on one qubit is [[c, js], [js, c]]."""
    return np.cos(betas).astype(complex), 1j * np.sin(betas)


def apply_phase_layer(state: np.ndarray, H: IsingHamiltonian, gamma: float) -> np.ndarray:
    """amplitude_z *= exp(i * gamma * h(z)); exact, norm preserving."""
    if num_qubits(state) != H.n:
        raise ValueError(f"state has {num_qubits(state)} qubits but H has {H.n}")
    kernel = _StateBuffers(1, H.n)
    kernel.phase(state[None], 1j * np.array([[gamma]]), H.diagonal())
    return kernel.psi[0]


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply exp(i * beta * X) to every qubit.

    exp(i*beta*X) = cos(beta) I + i sin(beta) X, so the layer is periodic in
    beta with period pi up to global phase; grids and restarts cover [0, pi)
    by sweeping beta over [0, 2*pi) alongside gamma.
    """
    kernel = _StateBuffers(1, num_qubits(state))
    kernel.psi[0] = state
    kernel.mix(*_mixer_factors(np.array([beta])))
    return kernel.psi[0]


def _evolve(diag: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    """Ansatz states for a (K, 2p) array of angle rows [gammas, betas]: (K, 2**n).

    The set-up takes i*gamma, cos(beta) as complex and i*sin(beta) for all p
    layers at once and allocates the state buffers.  Each layer then makes
    its phases in the temporary, multiplies them in, and runs three ufunc
    calls per qubit, all through `out=`.  `out=` only says where a result
    lands: every amplitude meets the same operands, in the same order and
    through the same numpy loops, as in the form that makes a fresh array
    per step, so each row is bitwise the state that evolving it alone gives.
    """
    K, p = len(angles), angles.shape[1] // 2
    jg = 1j * angles[:, :p].T[:, :, None]  # (p, K, 1)
    c, js = _mixer_factors(angles[:, p:].T[:, :, None, None, None])  # (p, K, 1, 1, 1)
    kernel = _StateBuffers(K, n)
    psi = uniform_state(n)[None]  # the first phase layer broadcasts it to K rows
    for layer in range(p):
        kernel.phase(psi, jg[layer], diag)
        kernel.mix(c[layer], js[layer])
        psi = kernel.psi
    return psi


# Rows evolved per call, capped so that each of the kernel's three
# (K, 2**n) buffers stays near 4 MiB, about 12 MiB in all, at large n.
_BATCH_BYTES = 1 << 22


def _expectations(diag: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    """<h> for each row of angles.  Each row's sum is a 1-D dot on a
    contiguous row: a matrix-vector product would sum in another order."""
    rows = max(1, _BATCH_BYTES >> (n + 4))
    out = np.empty(len(angles))
    for lo in range(0, len(angles), rows):
        probs = np.abs(_evolve(diag, n, angles[lo:lo + rows])) ** 2
        out[lo:lo + len(probs)] = [row @ diag for row in probs]
    return out


def ansatz_state(H: IsingHamiltonian, params: QaoaParams) -> np.ndarray:
    """Uniform start, then alternating phase and mixer layers."""
    return _evolve(H.diagonal(), H.n, params.to_vector()[None])[0]


def expectation(state: np.ndarray, H: IsingHamiltonian) -> float:
    """<state| H |state> = sum_z |amp_z|^2 h(z)."""
    if num_qubits(state) != H.n:
        raise ValueError(f"state has {num_qubits(state)} qubits but H has {H.n}")
    probs = np.abs(state) ** 2
    return float(probs @ H.diagonal())


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
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    nonzdelt, zdelt = 0.05, 0.00025
    N = len(x0)
    sim = np.empty((N + 1, N), dtype=x0.dtype)
    sim[0] = x0
    for k in range(N):
        y = np.array(x0, copy=True)
        if y[k] != 0:
            y[k] = (1 + nonzdelt) * y[k]
        else:
            y[k] = zdelt
        sim[k + 1] = y
    fsim = np.full((N + 1,), np.inf, dtype=float)
    nfev = min(N + 1, maxfev)
    if nfev > 0:
        fsim[:nfev] = yield sim[:nfev]
    # scipy sorts twice here; argsort need not be stable, so keep both
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while nfev < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= XATOL
                and np.max(np.abs(fsim[0] - fsim[1:])) <= FATOL):
            break
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield xr[None]
        nfev += 1
        if fxr < fsim[0]:
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            if nfev < maxfev:
                (fxe,) = yield xe[None]
                nfev += 1
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
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
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], np.min(fsim), nfev


def _lockstep(lanes: list, objective) -> list:
    """Run generator lanes to completion together.  Each round, the points
    every live lane is waiting on go to `objective` as one (m, N) array, and
    each lane is sent its own slice of the m values.  Returns the lanes'
    return values in order."""
    results: list = [None] * len(lanes)
    pending: dict = {}

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
        values = objective(np.concatenate([points for _, points in live]))
        lo = 0
        for i, points in live:
            advance(i, values[lo:lo + len(points)])
            lo += len(points)
    return results


def _mirrored(lane, p: int):
    """Run a Nelder-Mead lane over -H on H's objective -<H>: its points go
    out with their p gammas negated, and each value comes back as -<-H>,
    with <-H> = 0.0 - <H> (see the module docstring)."""
    flip = np.repeat([-1.0, 1.0], p)
    values = None
    while True:
        try:
            points = lane.send(values)
        except StopIteration as stop:
            return stop.value
        expectations = -(yield points * flip)
        values = -(0.0 - expectations)


def _best(outcomes: list) -> OptimizeOutcome:
    """The first start with the highest expectation, and all starts' evaluations."""
    best_x: np.ndarray | None = None
    best_val = -np.inf
    evaluations = 0
    for x, fun, nfev in outcomes:
        evaluations += nfev
        if -fun > best_val:
            best_val, best_x = -float(fun), x
    return OptimizeOutcome(QaoaParams.from_vector(best_x), best_val, evaluations)


def optimize(
    H: IsingHamiltonian,
    p: int,
    restarts: int = 10,
    max_evals: int = 200,
    seed=None,
    init: QaoaParams | None = None,
    *,
    negated_seed=None,
) -> OptimizeOutcome | PairedOutcome:
    """Maximize expectation(ansatz_state(H, .), H) over 2p angles.

    Derivative-free simplex search (Nelder-Mead, at most max_evals
    evaluations per start) from `restarts` uniform random starts in
    [0, 2*pi)**(2p), all run in lockstep; an optional warm start is tried
    first and its raw value is kept as a candidate, so warm-started results
    never regress.  Deterministic for a fixed seed and best-effort; raises
    ValueError only for a depth or an evaluation budget below 1, or for no
    start at all.

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
    diag = H.diagonal()
    n = H.n

    starts = []
    if init is not None:
        if init.p != p:
            raise ValueError(f"warm start has depth {init.p}, expected {p}")
        starts.append(init.to_vector())
    starts.extend(rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts))
    lanes = [_nelder_mead(x0, max_evals) for x0 in starts]
    if negated_seed is not None:
        neg_rng = np.random.default_rng(negated_seed)
        neg_starts = [neg_rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts)]
        lanes += [_mirrored(_nelder_mead(x0, max_evals), p) for x0 in neg_starts]

    def objective(angles: np.ndarray) -> np.ndarray:
        return -_expectations(diag, n, angles)

    outcomes = _lockstep(lanes, objective)
    plus, minus = outcomes[:len(starts)], outcomes[len(starts):]
    if init is not None:
        # keep the raw warm-start value even if the simplex wanders off
        plus.insert(0, (starts[0], objective(starts[0][None])[0], 1))
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
    return [int(z) for z in rng.choice(len(probs), size=shots, p=probs)]


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


def ansatz_gates(H: IsingHamiltonian, params: QaoaParams) -> list[Gate]:
    """Full circuit export of the ansatz: phase layers as CNOT/RZ ladders and
    mixer layers as RX(-2*beta) on every qubit.  Matches ansatz_state up to
    global phase when simulated (the uniform start is applied separately).
    """
    gates: list[Gate] = []
    for gamma, beta in zip(params.gammas, params.betas):
        gates.extend(decompose_evolution(H, gamma))
        for q in range(1, H.n + 1):
            gates.append(Gate.rx(q, -2.0 * beta))
    return gates


def simulate_gates(state: np.ndarray, gates: list[Gate]) -> np.ndarray:
    """Apply a gate list by exact 1- and 2-qubit statevector updates."""
    n = num_qubits(state)
    kernel = _StateBuffers(1, n)
    kernel.psi[0] = state
    psi = kernel.psi[0]  # CX and RZ write through this view of the current buffer
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
            (q,) = g.qubits
            kernel.mix(np.cos(g.angle / 2), 1j * -np.sin(g.angle / 2), q)
            psi = kernel.psi[0]
        else:
            raise ValueError(f"unknown gate {g.name!r}")
    return psi


def format_gates(gates: list[Gate]) -> str:
    """Plain-text export, one gate per line: "CX c t", "RZ q angle", "RX q angle"."""
    lines = []
    for g in gates:
        if g.name == "CX":
            lines.append(f"CX {g.qubits[0]} {g.qubits[1]}")
        else:
            lines.append(f"{g.name} {g.qubits[0]} {g.angle:.17g}")
    return "\n".join(lines)
