"""Statevector engine for QAOA over diagonal Hamiltonians.

The ansatz alternates exact diagonal phase evolution exp(i*gamma*H) with a
mixer layer applying exp(i*beta*X) on every qubit, starting from the uniform
superposition.  Because H is diagonal there is no Trotter error: the phase
layer multiplies each amplitude by exp(i*gamma*h(z)) directly.  A gate-level
decomposition (CNOT ladder + RZ per Z string) exists for verification and
export, not for the hot path.

One kernel evolves every state.  `_evolve` takes a (K, 2p) array of angle
rows and returns the (K, 2**n) array of ansatz states, so a layer costs the
same few numpy calls for K rows as for one; `ansatz_state`, the single
layers and the RX gates of `simulate_gates` are its K = 1 case.  Each row
comes out bitwise equal to evolving it alone, which pins two details: the
phase multiply's operand order and a 1-D dot per row for the expectation.

`optimize` runs its restarts in lockstep.  Each start is a generator that
replays scipy's Nelder-Mead step for step and yields the points it needs
next: its whole initial simplex, one reflection, expansion or contraction,
or all points of a shrink.  Every round, the points of all live starts go
through the kernel as one batch.  Each start therefore returns exactly the
x, value and evaluation count that scipy.optimize.minimize returns for it,
while the package itself does not depend on scipy.
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


def apply_phase_layer(state: np.ndarray, H: IsingHamiltonian, gamma: float) -> np.ndarray:
    """amplitude_z *= exp(i * gamma * h(z)); exact, norm preserving."""
    if num_qubits(state) != H.n:
        raise ValueError(f"state has {num_qubits(state)} qubits but H has {H.n}")
    return _phase(state[None], H.diagonal(), np.array([gamma]))[0]


def _phase(psi: np.ndarray, diag: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Row k of psi times exp(i * gammas[k] * diag), into a new (K, 2**n) array.

    The operand order is pinned: in `psi * np.exp(...)` numpy reuses the
    exp temporary once it reaches 256 KiB and computes exp * psi instead,
    which the FMA complex multiply rounds differently.
    """
    ph = np.exp(1j * gammas[:, None] * diag)
    return np.multiply(psi, ph, out=ph)


def _x_mix(psi: np.ndarray, n: int, qubit: int, c, js) -> np.ndarray:
    """Apply [[c, js], [js, c]] (js = i*s) on one qubit, MSB-first, of every
    row of the (K, 2**n) array psi.

    c and js are scalars or per-row arrays of shape (K, 1, 1, 1).
    Axis 2 of the view is the qubit's bit, so reversing it pairs each
    amplitude with its partner.
    """
    v = psi.reshape(len(psi), 1 << (qubit - 1), 2, 1 << (n - qubit))
    out = c * v
    out += js * v[:, :, ::-1]
    return out.reshape(psi.shape)


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply exp(i * beta * X) to every qubit.

    exp(i*beta*X) = cos(beta) I + i sin(beta) X, so the layer is periodic in
    beta with period pi up to global phase; grids and restarts cover [0, pi)
    by sweeping beta over [0, 2*pi) alongside gamma.
    """
    return _mix_all(state[None], num_qubits(state), np.array([beta]))[0]


def _mix_all(psi: np.ndarray, n: int, betas: np.ndarray) -> np.ndarray:
    """exp(i * betas[k] * X) on every qubit of row k, unchecked."""
    c = np.cos(betas).reshape(-1, 1, 1, 1).astype(complex)
    js = 1j * np.sin(betas).reshape(-1, 1, 1, 1)
    for q in range(1, n + 1):
        psi = _x_mix(psi, n, q, c, js)
    return psi


def _evolve(diag: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    """Ansatz states for a (K, 2p) array of angle rows [gammas, betas]: (K, 2**n).

    Each row is bitwise the state that evolving it alone gives.
    """
    p = angles.shape[1] // 2
    psi = uniform_state(n)[None]  # the first phase layer broadcasts it to K rows
    for layer in range(p):
        psi = _phase(psi, diag, angles[:, layer])
        psi = _mix_all(psi, n, angles[:, p + layer])
    return psi


# Rows evolved per numpy call, capped so the states stay near 4 MiB at large n.
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


def optimize(
    H: IsingHamiltonian,
    p: int,
    restarts: int = 10,
    max_evals: int = 200,
    seed=None,
    init: QaoaParams | None = None,
) -> OptimizeOutcome:
    """Maximize expectation(ansatz_state(H, .), H) over 2p angles.

    Derivative-free simplex search (Nelder-Mead, at most max_evals
    evaluations per start) from `restarts` uniform random starts in
    [0, 2*pi)**(2p), all run in lockstep; an optional warm start is tried
    first and its raw value is kept as a candidate, so warm-started results
    never regress.  Deterministic for a fixed seed and best-effort; raises
    ValueError only for a depth or an evaluation budget below 1, or for no
    start at all.
    """
    if p < 1:
        raise ValueError(f"depth must be >= 1, got {p}")
    if restarts < 1 and init is None:
        raise ValueError("need at least one restart or a warm start")
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

    def objective(angles: np.ndarray) -> np.ndarray:
        return -_expectations(diag, n, angles)

    outcomes = _lockstep([_nelder_mead(x0, max_evals) for x0 in starts], objective)
    if init is not None:
        # keep the raw warm-start value even if the simplex wanders off
        outcomes.insert(0, (starts[0], objective(starts[0][None])[0], 1))

    best_x: np.ndarray | None = None
    best_val = -np.inf
    evaluations = 0
    for x, fun, nfev in outcomes:
        evaluations += nfev
        if -fun > best_val:
            best_val, best_x = -float(fun), x
    return OptimizeOutcome(QaoaParams.from_vector(best_x), best_val, evaluations)


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
    psi = state.copy()
    for g in gates:
        for q in g.qubits:
            if not 1 <= q <= n:
                raise ValueError(f"gate {g.name} touches qubit {q} outside [1, {n}]")
        if g.name == "CX":
            control, target = g.qubits
            view = psi.reshape((2,) * n)
            sel0 = [slice(None)] * n
            sel1 = [slice(None)] * n
            sel0[control - 1] = 1
            sel1[control - 1] = 1
            sel0[target - 1] = 0
            sel1[target - 1] = 1
            a = view[tuple(sel0)].copy()
            view[tuple(sel0)] = view[tuple(sel1)]
            view[tuple(sel1)] = a
        elif g.name == "RZ":
            (q,) = g.qubits
            view = psi.reshape((2,) * n)
            sel0 = [slice(None)] * n
            sel1 = [slice(None)] * n
            sel0[q - 1] = 0
            sel1[q - 1] = 1
            view[tuple(sel0)] *= np.exp(-0.5j * g.angle)
            view[tuple(sel1)] *= np.exp(+0.5j * g.angle)
        elif g.name == "RX":
            (q,) = g.qubits
            psi = _x_mix(psi[None], n, q, np.cos(g.angle / 2), 1j * -np.sin(g.angle / 2))[0]
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
