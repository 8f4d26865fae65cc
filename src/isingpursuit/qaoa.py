"""Statevector engine for QAOA over diagonal Hamiltonians.

The ansatz alternates exact diagonal phase evolution exp(i*gamma*H) with a
mixer layer applying exp(i*beta*X) on every qubit, starting from the uniform
superposition.  Because H is diagonal there is no Trotter error: the phase
layer multiplies each amplitude by exp(i*gamma*h(z)) directly.  A gate-level
decomposition (CNOT ladder + RZ per Z string) exists for verification and
export, not for the hot path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

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
    return state * np.exp(1j * gamma * H.diagonal())


def _x_mix(state: np.ndarray, n: int, qubit: int, c: float, s: float) -> np.ndarray:
    """Apply [[c, i*s], [i*s, c]] on one qubit (axis qubit-1, MSB-first)."""
    psi = state.reshape((2,) * n)
    a0 = psi.take(0, axis=qubit - 1)
    a1 = psi.take(1, axis=qubit - 1)
    out = np.empty_like(psi)
    idx0 = [slice(None)] * n
    idx1 = [slice(None)] * n
    idx0[qubit - 1] = 0
    idx1[qubit - 1] = 1
    out[tuple(idx0)] = c * a0 + 1j * s * a1
    out[tuple(idx1)] = 1j * s * a0 + c * a1
    return out.reshape(-1)


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """Apply exp(i * beta * X) to every qubit.

    exp(i*beta*X) = cos(beta) I + i sin(beta) X, so the layer is periodic in
    beta with period pi up to global phase; grids and restarts cover [0, pi)
    by sweeping beta over [0, 2*pi) alongside gamma.
    """
    return _mix_all(state, num_qubits(state), beta)


def _mix_all(psi: np.ndarray, n: int, beta: float) -> np.ndarray:
    """exp(i * beta * X) on every qubit, unchecked: the hot loop's mixer."""
    c, s = np.cos(beta), np.sin(beta)
    for q in range(1, n + 1):
        psi = _x_mix(psi, n, q, c, s)
    return psi


def _evolve(diag: np.ndarray, n: int, gammas, betas) -> np.ndarray:
    psi = uniform_state(n)
    for gamma, beta in zip(gammas, betas):
        psi = _mix_all(psi * np.exp(1j * gamma * diag), n, beta)
    return psi


def ansatz_state(H: IsingHamiltonian, params: QaoaParams) -> np.ndarray:
    """Uniform start, then alternating phase and mixer layers."""
    return _evolve(H.diagonal(), H.n, params.gammas, params.betas)


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


def optimize(
    H: IsingHamiltonian,
    p: int,
    restarts: int = 10,
    max_evals: int = 200,
    seed=None,
    init: QaoaParams | None = None,
) -> OptimizeOutcome:
    """Maximize expectation(ansatz_state(H, .), H) over 2p angles.

    Derivative-free simplex search from `restarts` uniform random starts in
    [0, 2*pi)**(2p); an optional warm start is tried first and its raw value
    is kept as a candidate, so warm-started results never regress.
    Deterministic for a fixed seed; best-effort, never raises.
    """
    if p < 1:
        raise ValueError(f"depth must be >= 1, got {p}")
    if restarts < 1 and init is None:
        raise ValueError("need at least one restart or a warm start")
    rng = np.random.default_rng(seed)
    diag = H.diagonal()
    n = H.n

    def neg_value(x: np.ndarray) -> float:
        psi = _evolve(diag, n, x[:p], x[p:])
        return -float((np.abs(psi) ** 2) @ diag)

    best_x: np.ndarray | None = None
    best_val = -np.inf
    evaluations = 0

    starts = []
    if init is not None:
        if init.p != p:
            raise ValueError(f"warm start has depth {init.p}, expected {p}")
        starts.append(init.to_vector())
    starts.extend(rng.uniform(0.0, 2.0 * np.pi, size=2 * p) for _ in range(restarts))

    for i, x0 in enumerate(starts):
        if i == 0 and init is not None:
            # keep the raw warm-start value even if the simplex wanders off
            val = -neg_value(x0)
            evaluations += 1
            if val > best_val:
                best_val, best_x = val, x0
        res = minimize(
            neg_value,
            x0,
            method="Nelder-Mead",
            options={"maxfev": max_evals, "xatol": 1e-4, "fatol": 1e-7},
        )
        evaluations += res.nfev
        if -res.fun > best_val:
            best_val, best_x = -float(res.fun), res.x

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
            psi = _x_mix(psi, n, q, np.cos(g.angle / 2), -np.sin(g.angle / 2))
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
