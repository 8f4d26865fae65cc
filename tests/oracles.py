"""Reference implementations that the tests compare the package against.

`all_column_dots_masked` and `diagonal_per_term` are the straightforward
forms of the table kernel's two callers: one masked pass per pattern, one
sign product per term.  The kernel must agree with them bit for bit.
`build_hamiltonian_walsh` is the Hamiltonian builder in plain Python: each
run of patterns on the same positions as a Walsh-Hadamard transform of its
residual table, summed over the run's patterns and then run by run, in the
builder's order, which it must match bit for bit.
`build_hamiltonian_itertools` expands every pattern's subsets with
`itertools` and sums pattern by pattern: the same Hamiltonian in another
summation order, so the builder must give it the same supports and
coefficients up to rounding.
`chain_dp_solve_arrays` is the chain dynamic program on numpy arrays and
scalars, which the float-list `chain_dp_solve` must match exactly.
`evolve_per_qubit` is the ansatz kernel with a fresh array for every phase
and every qubit's mixer, which the buffer kernel `qaoa._evolve` and the
single layers must match bit for bit.
`simulate_gates_selectors` writes CX and RZ through index lists that
select each gate qubit's halves of the state, which the axis-moving
`simulate_gates` must match bit for bit.
`qaoa_solve_two_calls` is the QAOA backend with one `optimize` call on H
and one on `negated(H)`, each sampled from its own target's state, which
the one-call `qaoa_solve` must match bit for bit.  The other helpers
materialize what the package keeps implicit.
"""

from __future__ import annotations

import itertools

import numpy as np

from isingpursuit import qaoa
from isingpursuit.hamiltonian import COEFF_PRUNE_TOL, IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import DENSE_MATRIX_CAP, MeasurementSet, Pattern, column_dot
from isingpursuit.signal import DENSE_VECTOR_CAP, SparseSignal
from isingpursuit.solvers import ChainStructureError, SolverOutcome, SolverSpec


def bit_at(z: int, j: int, n: int) -> int:
    """Bit j (1-based, MSB-first) of the n-bit index z."""
    return (z >> (n - j)) & 1


def dense_vector(sig: SparseSignal) -> np.ndarray:
    """Full-length vector with spike values placed at their positions."""
    if sig.n > DENSE_VECTOR_CAP:
        raise ValueError(f"refusing to materialize 2**{sig.n} entries (cap {DENSE_VECTOR_CAP})")
    x = np.zeros(1 << sig.n)
    for pos, val in sig.spikes:
        x[pos] = val
    return x


def from_dense(x: np.ndarray, n: int) -> SparseSignal:
    """Re-sparsify a dense vector (inverse of dense_vector)."""
    if len(x) != 1 << n:
        raise ValueError(f"expected length {1 << n}, got {len(x)}")
    spikes = tuple((int(p), float(v)) for p, v in enumerate(x) if v != 0.0)
    return SparseSignal(n=n, spikes=spikes)


def pattern_matches(p: Pattern, z: int, n: int) -> bool:
    """Whether index z satisfies every constraint: the implicit entry A[i, z]."""
    return all((z >> (n - bit)) & 1 == val for bit, val in p.constraints)


def dense_matrix(ms: MeasurementSet) -> np.ndarray:
    """Materialize A as an (M, 2**n) 0/1 array."""
    if ms.n > DENSE_MATRIX_CAP:
        raise ValueError(f"dense A at n={ms.n} exceeds cap {DENSE_MATRIX_CAP}")
    zs = np.arange(1 << ms.n, dtype=np.int64)
    masks, wants = ms._masks_wants
    return ((zs[None, :] & masks[:, None]) == wants[:, None]).astype(float)


def all_column_dots_masked(r: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """A^T r by one masked pass over all 2**n indices per pattern."""
    zs = np.arange(1 << ms.n, dtype=np.int64)
    acc = np.zeros(1 << ms.n)
    masks, wants = ms._masks_wants
    for mask, want, ri in zip(masks, wants, r):
        acc[(zs & mask) == want] += ri
    return acc


def negated(H: IsingHamiltonian) -> IsingHamiltonian:
    """-H, term by term."""
    return IsingHamiltonian(H.n, {s: -c for s, c in H.terms.items()})


def pruned(terms: dict[frozenset[int], float]) -> dict[frozenset[int], float]:
    """The terms whose coefficients build_hamiltonian would keep."""
    return {s: c for s, c in terms.items() if abs(c) >= COEFF_PRUNE_TOL}


def diagonal_per_term(H: IsingHamiltonian) -> np.ndarray:
    """H's diagonal by one 2**n sign product per term."""
    d = 1 << H.n
    zs = np.arange(d, dtype=np.int64)
    diag = np.zeros(d)
    for support, coeff in H.terms.items():
        signs = np.ones(d)
        for j in support:
            signs *= 1.0 - 2.0 * ((zs >> (H.n - j)) & 1)
        diag += coeff * signs
    return diag


def build_hamiltonian_itertools(ms: MeasurementSet, r: np.ndarray) -> IsingHamiltonian:
    """build_hamiltonian with every pattern's subsets enumerated afresh."""
    terms: dict[frozenset[int], float] = {}
    for p, ri in zip(ms.patterns, r):
        if ri == 0.0:
            continue
        k = len(p.constraints)
        base = float(ri) / (1 << k)
        for subset in itertools.chain.from_iterable(
            itertools.combinations(p.constraints, size) for size in range(k + 1)
        ):
            sign = 1
            for _, val in subset:
                if val:
                    sign = -sign
            support = frozenset(bit for bit, _ in subset)
            terms[support] = terms.get(support, 0.0) + sign * base
    return IsingHamiltonian(ms.n, pruned(terms))


def build_hamiltonian_walsh(ms: MeasurementSet, r: np.ndarray) -> IsingHamiltonian:
    """build_hamiltonian in plain Python, summed in the same order: each
    run's transform entry over the run's patterns in set order, then each
    support's entries run by run, from 0.0."""
    runs: list[tuple[tuple[int, ...], dict[int, float]]] = []  # (bits, {value: r_i})
    for p, ri in zip(ms.patterns, r):
        fixed = sorted(p.constraints)
        bits = tuple(b for b, _ in fixed)
        value = sum(val << (len(fixed) - 1 - i) for i, (_, val) in enumerate(fixed))
        if runs and runs[-1][0] == bits and value not in runs[-1][1]:
            runs[-1][1][value] = float(ri)
        else:
            runs.append((bits, {value: float(ri)}))
    entries = []  # (support, transform entry) in run order
    for bits, table in runs:
        k = len(bits)
        for s in range(1 << k):
            support = frozenset(b for i, b in enumerate(bits) if (s >> (k - 1 - i)) & 1)
            total = None
            for v, ri in table.items():  # the run's patterns in set order
                term = ri * ((-1.0) ** bin(v & s).count("1") / 2**k)
                total = term if total is None else total + term
            entries.append((support, total))
    terms = {support: 0.0 for support, _ in entries}  # the order runs name them
    for support, total in entries:
        terms[support] += total
    return IsingHamiltonian(ms.n, pruned(terms))


def _chain_params_arrays(H: IsingHamiltonian) -> tuple[float, np.ndarray, np.ndarray]:
    n = H.n
    const = 0.0
    fields = np.zeros(n + 1)
    couplings = np.zeros(n)  # couplings[i] pairs sites (i, i+1)
    for support, coeff in H.terms.items():
        if len(support) == 0:
            const = coeff
        elif len(support) == 1:
            (i,) = support
            fields[i] = coeff
        elif len(support) == 2:
            i, j = sorted(support)
            if j != i + 1:
                raise ChainStructureError(f"non-adjacent coupling {sorted(support)}")
            couplings[i] = coeff
        else:
            raise ChainStructureError(f"interaction of order {len(support)}: {sorted(support)}")
    return const, fields, couplings


def _chain_max_arrays(
    const: float, fields: np.ndarray, couplings: np.ndarray, n: int
) -> tuple[int, float]:
    best = np.zeros((n + 2, 2))
    for i in range(n, 0, -1):
        for b, s in ((0, 1.0), (1, -1.0)):
            v = fields[i] * s
            if i < n:
                v += max(couplings[i] * s + best[i + 1][0],
                         -couplings[i] * s + best[i + 1][1])
            best[i][b] = v
    z = 0
    b = 0 if best[1][0] >= best[1][1] else 1
    z |= b << (n - 1)
    value = const + best[1][b]
    for i in range(1, n):
        s = 1.0 - 2.0 * b
        cand0 = couplings[i] * s + best[i + 1][0]
        cand1 = -couplings[i] * s + best[i + 1][1]
        b = 0 if cand0 >= cand1 else 1
        z |= b << (n - i - 1)
    return z, value


def chain_dp_solve_arrays(ms: MeasurementSet, r: np.ndarray) -> SolverOutcome:
    """chain_dp_solve with the fields, couplings and DP table in numpy arrays."""
    H = build_hamiltonian(ms, r)
    const, fields, couplings = _chain_params_arrays(H)
    z_max, v_max = _chain_max_arrays(const, fields, couplings, ms.n)
    z_min, neg_min = _chain_max_arrays(-const, -fields, -couplings, ms.n)
    v_min = 0.0 - neg_min
    z = z_max if abs(v_max) >= abs(v_min) else z_min
    score = abs(column_dot(z, r, ms))
    return SolverOutcome(
        z, score, {"backend": "chain_dp", "max_value": v_max, "min_value": v_min}
    )


def phase_rows(psi: np.ndarray, diag: np.ndarray, gammas: np.ndarray) -> np.ndarray:
    """Row k of psi times exp(i * gammas[k] * diag), into a new (K, 2**n) array.

    `psi * np.exp(...)` would compute exp * psi once the exp temporary
    reaches 256 KiB, which the FMA complex multiply rounds differently.
    """
    ph = np.exp(1j * gammas[:, None] * diag)
    return np.multiply(psi, ph, out=ph)


def x_mix_rows(psi: np.ndarray, n: int, qubit: int, c, js) -> np.ndarray:
    """Apply [[c, js], [js, c]] (js = i*s) on one qubit, MSB-first, of every
    row of the (K, 2**n) array psi; c and js are scalars or (K, 1, 1, 1)."""
    v = psi.reshape(len(psi), 1 << (qubit - 1), 2, 1 << (n - qubit))
    out = c * v
    out += js * v[:, :, ::-1]
    return out.reshape(psi.shape)


def mix_rows(psi: np.ndarray, n: int, betas: np.ndarray) -> np.ndarray:
    """exp(i * betas[k] * X) on every qubit of row k."""
    c = np.cos(betas).reshape(-1, 1, 1, 1).astype(complex)
    js = 1j * np.sin(betas).reshape(-1, 1, 1, 1)
    for q in range(1, n + 1):
        psi = x_mix_rows(psi, n, q, c, js)
    return psi


def evolve_per_qubit(diag: np.ndarray, n: int, angles: np.ndarray) -> np.ndarray:
    """Ansatz states for a (K, 2p) array of angle rows [gammas, betas]: (K, 2**n),
    one fresh array per phase layer and per qubit's mixer."""
    p = angles.shape[1] // 2
    psi = np.full((1, 1 << n), 2.0 ** (-n / 2), dtype=complex)
    for layer in range(p):
        psi = phase_rows(psi, diag, angles[:, layer])
        psi = mix_rows(psi, n, angles[:, p + layer])
    return psi


def simulate_rx_per_qubit(state: np.ndarray, gates) -> np.ndarray:
    """simulate_gates for a list of RX gates, one fresh array per gate."""
    n = len(state).bit_length() - 1
    psi = state[None]
    for g in gates:
        (q,) = g.qubits
        psi = x_mix_rows(psi, n, q, np.cos(g.angle / 2), 1j * -np.sin(g.angle / 2))
    return psi[0]


def simulate_gates_selectors(state: np.ndarray, gates) -> np.ndarray:
    """simulate_gates with CX and RZ written through per-gate lists of
    slices that pick the 0 and 1 halves of each of the gate's qubits."""
    n = qaoa.num_qubits(state)
    kernel = qaoa._StateBuffers(1, n)
    kernel.psi[0] = state
    psi = kernel.psi[0]
    for g in gates:
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
        else:
            (q,) = g.qubits
            kernel.mix(np.cos(g.angle / 2), 1j * -np.sin(g.angle / 2), q)
            psi = kernel.psi[0]
    return psi


def qaoa_solve_two_calls(ms: MeasurementSet, r: np.ndarray, spec: SolverSpec, seed) -> SolverOutcome:
    """qaoa_solve as two optimize calls, one on H and one on negated(H),
    each followed by the ansatz state and samples of its own target."""
    H = build_hamiltonian(ms, r)
    if H.max_support_size() == 0:
        z = 0
        return SolverOutcome(z, abs(column_dot(z, r, ms)), {"backend": "qaoa", "flat": True})
    seeds = np.random.SeedSequence(seed).spawn(4)
    candidates: set[int] = set()
    diagnostics: dict = {"backend": "qaoa"}
    for label, target, opt_seed, sample_seed in (
        ("max", H, seeds[0], seeds[1]),
        ("min", negated(H), seeds[2], seeds[3]),
    ):
        out = qaoa.optimize(target, p=spec.depth, restarts=spec.restarts,
                            max_evals=spec.max_evals, seed=opt_seed)
        state = qaoa.ansatz_state(target, out.params)
        candidates.update(qaoa.sample_candidates(state, spec.shots, seed=sample_seed))
        diagnostics[f"{label}_expectation"] = out.expectation
        diagnostics[f"{label}_evaluations"] = out.evaluations
    best_z = -1
    best_score = -1.0
    for z in sorted(candidates):
        score = abs(column_dot(z, r, ms))
        if score > best_score:
            best_z, best_score = z, score
    diagnostics["candidates"] = len(candidates)
    return SolverOutcome(best_z, best_score, diagnostics)
