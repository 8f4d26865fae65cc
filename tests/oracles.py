"""Reference implementations that the tests compare the package against.

`value_assignment_group` writes out the 2**k `Pattern`s that a generator's
group on k positions stands for.  `masks_wants`, `table_runs` and
`transform_plan` derive a set's masks and wants, table runs and transform
plan from its patterns, one pattern at a time (`mask_want`, sorted
constraints, a doubled list of support masks): every `MeasurementSet`,
generated or read, must match them byte for byte.
`all_column_dots_masked` is the straightforward form of the table
kernel's caller, one masked pass per pattern, which the kernel must match
bit for bit.  `diagonal_walsh` is H's diagonal in plain Python floats: the
same placement at the supports' bit masks and the same butterfly stages,
in the same order, which `H.diagonal()` must match bit for bit.
`diagonal_per_term` sums one sign product per term, in another order: the
same diagonal up to rounding.
`build_hamiltonian_walsh` is the Hamiltonian builder in plain Python: each
run of patterns on the same positions as a Walsh-Hadamard transform of its
residual table, summed over the run's patterns and then run by run, in the
builder's order, which it must match bit for bit.
`build_hamiltonian_itertools` expands every pattern's subsets with
`itertools` and sums pattern by pattern: the same Hamiltonian in another
summation order, so the builder must give it the same supports and
coefficients up to rounding.
`transform_supports` names the builder's supports as frozensets, in the
order the set's patterns first name them, and `chain_slot` is the chain
solver's cell rule on such a frozenset: the builder's plan masks and the
mask-read `MeasurementSet._chain_slots` must match them
(`plan_masks_and_slots`).
`chain_dp_solve_arrays` is the chain dynamic program on numpy arrays and
scalars, which the float-list `chain_dp_solve` must match exactly.
`evolve_per_qubit` is the ansatz kernel with a fresh array for every phase
and every qubit's mixer, and `expectations_per_row` a 1-D dot per row:
the buffer kernel `qaoa._evolve`, one reused `qaoa._StateBuffers`
workspace at every row count it is driven through, its one-row phase step,
`apply_mixer_layer` and the expectation formula `qaoa._energies` must
match them bit for bit, and so must
`qaoa.apply_phase_layer`, which builds no workspace: it is `phase_rows`'s
per-entry formula on one row.  `apply_mixer_layer` is no reference: it
runs the package's mixer sweep alone, in a one-row workspace over a zero
diagonal.
`simulate_gates_selectors` writes CX and RZ through index lists that
select each gate qubit's halves of the state, and each RX as one
`x_mix_rows` step, which the axis-moving `simulate_gates` must match bit
for bit.
`qaoa_solve_two_calls` is the QAOA backend with one ramp `optimize` call
on normalised H and one on normalised `negated(H)`, each keeping its own
diagonal's best (`.plus`) and sampled from its own target's state, which
the one-call `qaoa_solve` must match bit for bit.  It
rescores its pooled candidates one `column_dot` call each
(`rescore_per_candidate`), which the one-pass `measurement.column_dots` and
`solvers._rescore` must match.
`expectation` is <H> in one state, through H's diagonal.
`matching_pursuit_reference` takes each pursuit step through the column
helpers: `column_norm_sq` and `column_dot` each build the chosen column,
deflation builds it a third time, and the residual norm is
`np.linalg.norm`.  The one-mask `matching_pursuit` must match it bit for
bit.  The other helpers materialize what the package keeps implicit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from isingpursuit import qaoa
from isingpursuit.hamiltonian import COEFF_PRUNE_TOL, IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (DENSE_MATRIX_CAP, MeasurementSet, Pattern, _per_pattern,
                                      column_dot)
from isingpursuit.pursuit import (MIN_SCORE, DegenerateColumnError, IterationRecord,
                                  PursuitConfig, ReconstructionResult, Termination)
from isingpursuit.signal import SparseSignal, _check_dense_size
from isingpursuit.solvers import ChainStructureError, SolverOutcome, SolverSpec


def bit_at(z: int, j: int, n: int) -> int:
    """Bit j (1-based, MSB-first) of the n-bit index z."""
    return (z >> (n - j)) & 1


def dense_vector(sig: SparseSignal) -> np.ndarray:
    """Full-length vector with spike values placed at their positions."""
    _check_dense_size(sig.n)
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


def value_assignment_group(positions) -> tuple[Pattern, ...]:
    """All 2**k patterns fixing the given positions, in binary value order:
    the group a generator writes for those positions."""
    return tuple(Pattern(tuple(zip(positions, values)))
                 for values in itertools.product((0, 1), repeat=len(positions)))


def mask_want(p: Pattern, n: int) -> tuple[int, int]:
    """(mask, want) such that z matches p iff z & mask == want, one
    constraint at a time."""
    mask = want = 0
    for bit, val in p.constraints:
        mask |= 1 << (n - bit)
        want |= val << (n - bit)
    return mask, want


def masks_wants(ms: MeasurementSet) -> tuple[np.ndarray, np.ndarray]:
    """The int64 masks and wants of ms's patterns, pattern by pattern."""
    pairs = np.array([mask_want(p, ms.n) for p in ms.patterns], dtype=np.int64).reshape(-1, 2)
    return pairs[:, 0].copy(), pairs[:, 1].copy()


def table_runs(ms: MeasurementSet) -> tuple:
    """(start, stop, bits, slots) per maximal run of consecutive patterns on
    the same sorted bit positions with pairwise distinct values, pattern by
    pattern: a slot is the pattern's values in sorted bit order, the first
    most significant, and slots is None for a whole group in binary order."""
    runs: list[list] = []
    for i, p in enumerate(ms.patterns):
        fixed = sorted(p.constraints)
        bits = tuple(b for b, _ in fixed)
        slot = 0
        for _, val in fixed:
            slot = 2 * slot + val
        if runs and runs[-1][2] == bits and slot not in runs[-1][3]:
            runs[-1][1] = i + 1
            runs[-1][3].append(slot)
        else:
            runs.append([i, i + 1, bits, [slot]])
    return tuple((start, stop, bits,
                  None if slots == list(range(1 << len(bits))) else np.array(slots, dtype=np.int64))
                 for start, stop, bits, slots in runs)


def transform_plan(ms: MeasurementSet):
    """MeasurementSet._transform_plan on `table_runs(ms)`, each run's support
    masks made by doubling a list, one position at a time from the last:
    entry s of a run reads its first position at the top bit of s."""
    ids: dict[int, int] = {}
    support_ids: list[int] = []
    groups: dict[tuple[int, int], list[tuple[int, int, np.ndarray]]] = {}
    for start, stop, bits, slots in table_runs(ms):
        k = len(bits)
        masks = [0]
        for b in reversed(bits):
            masks += [mask | 1 << (ms.n - b) for mask in masks]
        groups.setdefault((k, stop - start), []).append(
            (start, len(support_ids), np.arange(1 << k) if slots is None else slots))
        support_ids.extend(ids.setdefault(mask, len(ids)) for mask in masks)
    plan = []
    for (k, m), runs in groups.items():
        starts, firsts, slots = (np.array(column) for column in zip(*runs))
        values = np.arange(1 << k)
        signs = np.array([(-1.0) ** bin(v).count("1") for v in range(1 << k)])
        rows = np.ldexp(signs[slots[:, :, None] & values], -k)
        plan.append((starts[:, None] + np.arange(m), rows, firsts[:, None] + values))
    return np.fromiter(ids, np.int64, len(ids)), np.array(support_ids), tuple(plan)


def dense_matrix(ms: MeasurementSet) -> np.ndarray:
    """Materialize A as an (M, 2**n) 0/1 array."""
    if ms.n > DENSE_MATRIX_CAP:
        raise ValueError(f"dense A at n={ms.n} exceeds cap {DENSE_MATRIX_CAP}")
    zs = np.arange(1 << ms.n, dtype=np.int64)
    masks, wants = masks_wants(ms)
    return ((zs[None, :] & masks[:, None]) == wants[:, None]).astype(float)


def all_column_dots_masked(r: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """A^T r by one masked pass over all 2**n indices per pattern."""
    zs = np.arange(1 << ms.n, dtype=np.int64)
    acc = np.zeros(1 << ms.n)
    masks, wants = masks_wants(ms)
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


def diagonal_walsh(H: IsingHamiltonian) -> np.ndarray:
    """H's diagonal by the Walsh-Hadamard transform in plain Python floats:
    each term's coefficient at its support's mask, sum of 2**(n - j) over
    its qubits j, in a list of 2**n +0.0; then n stages, each writing
    v[i] + v[i + h] to entry 2i and v[i] - v[i + h] to entry 2i + 1."""
    n = H.n
    v = [0.0] * (1 << n)
    for support, coeff in H.terms.items():
        v[support_mask(n, support)] = coeff
    h = len(v) // 2
    for _ in range(n):
        v = [x for a, b in zip(v[:h], v[h:]) for x in (a + b, a - b)]
    return np.array(v)


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
    r = np.asarray(r, dtype=float).tolist()
    entries = []  # (support, transform entry) in run order
    for start, stop, bits, slots in table_runs(ms):
        k = len(bits)
        table = dict(zip(range(1 << k) if slots is None else slots.tolist(), r[start:stop]))
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


def transform_supports(ms: MeasurementSet) -> list[frozenset[int]]:
    """Every subset of every pattern's fixed bits, in the order the patterns
    and, within one, the transform entries s (bit i of the sorted bits read
    from the top of s) first name it."""
    named: dict[frozenset[int], None] = {}
    for p in ms.patterns:
        bits = sorted(b for b, _ in p.constraints)
        k = len(bits)
        for s in range(1 << k):
            named.setdefault(frozenset(b for i, b in enumerate(bits) if s >> (k - 1 - i) & 1))
    return list(named)


def support_mask(n: int, support) -> int:
    """The sum of 2**(n - b) over the support's 1-based qubits b."""
    return sum(2 ** (n - b) for b in support)


def chain_slot(n: int, support: frozenset[int]) -> int:
    """The support's cell in the chain solver's flat list of 2n + 2: 0 for
    the constant, i for the field at site i, 2n - i for the coupling of sites
    (i, i+1), and 2n + 1 for a support that no chain holds."""
    bits = sorted(support)
    if len(bits) <= 1:
        return sum(bits)
    if len(bits) == 2 and bits[1] == bits[0] + 1:
        return 2 * n - bits[0]
    return 2 * n + 1


def plan_masks_and_slots(ms: MeasurementSet) -> tuple[list[int], list[int]]:
    """The mask and the chain slot of each of `transform_supports(ms)`."""
    supports = transform_supports(ms)
    return [support_mask(ms.n, s) for s in supports], [chain_slot(ms.n, s) for s in supports]


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


def expectations_per_row(states: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """<h> for each row of states, such as evolve_per_qubit's: a 1-D dot per
    row of |amp|**2."""
    return np.array([row @ diag for row in np.abs(states) ** 2])


def apply_mixer_layer(state: np.ndarray, beta: float) -> np.ndarray:
    """exp(i * beta * X) on every qubit: the kernel's mixer sweep on one row
    of a workspace over a zero diagonal.  The layer is periodic in beta with
    period pi up to global phase."""
    n = qaoa.num_qubits(state)
    kernel = qaoa._StateBuffers(1, n, np.zeros(1 << n))
    kernel.bufs[0][0] = state  # where every sweep starts
    return kernel._views(1).mix(*qaoa._mixer_factors(np.array([beta])))[0]


def simulate_gates_selectors(state: np.ndarray, gates) -> np.ndarray:
    """simulate_gates with CX and RZ written through per-gate lists of
    slices that pick the 0 and 1 halves of each of the gate's qubits, and
    each RX as a fresh `x_mix_rows` array."""
    n = qaoa.num_qubits(state)
    psi = state.astype(complex)
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
            c, js = np.cos(g.angle / 2), 1j * -np.sin(g.angle / 2)
            psi = x_mix_rows(psi[None], n, q, c, js)[0]
    return psi


def qaoa_solve_two_calls(ms: MeasurementSet, r: np.ndarray, spec: SolverSpec, seed) -> SolverOutcome:
    """qaoa_solve as two ramp optimize calls, one on H and one on
    negated(H), both normalised, each keeping the best for its own diagonal
    and followed by the ansatz state and samples of its own target.  -H's
    diagonal has H's spread, so both divide by one scale."""
    H = build_hamiltonian(ms, r)
    if H.max_support_size() == 0:
        z = 0
        return SolverOutcome(z, abs(column_dot(z, r, ms)), {"backend": "qaoa", "flat": True})
    (plus, scale), (minus, neg_scale) = H.normalized(), negated(H).normalized()
    assert neg_scale == scale
    seeds = np.random.SeedSequence(seed).spawn(4)
    candidates: set[int] = set()
    diagnostics: dict = {"backend": "qaoa", "scale": scale}
    for label, target, sample_seed in (("max", plus, seeds[1]), ("min", minus, seeds[3])):
        out = qaoa.optimize(target, p=spec.depth, schedule="ramp").plus
        state = qaoa.ansatz_state(target, out.params)
        candidates.update(qaoa.sample_candidates(state, spec.shots, seed=sample_seed))
        diagnostics[f"{label}_expectation"] = out.expectation
        diagnostics[f"{label}_evaluations"] = out.evaluations
    diagnostics["candidates"] = len(candidates)
    return SolverOutcome(*rescore_per_candidate(sorted(candidates), r, ms), diagnostics)


def rescore_per_candidate(candidates, r: np.ndarray, ms: MeasurementSet) -> tuple[int, float]:
    """The candidate of largest |column_dot| and that score, by one column_dot
    call per candidate; a later candidate wins only with a larger score."""
    best_z = -1
    best_score = -1.0
    for z in candidates:
        score = abs(column_dot(z, r, ms))
        if score > best_score:
            best_z, best_score = z, score
    return best_z, best_score


def expectation(state: np.ndarray, H: IsingHamiltonian) -> float:
    """<state| H |state> = sum_z |amp_z|^2 h(z)."""
    if qaoa.num_qubits(state) != H.n:
        raise ValueError(f"state has {qaoa.num_qubits(state)} qubits but H has {H.n}")
    probs = np.abs(state) ** 2
    return float(probs @ H.diagonal())


def column_norm_sq(z: int, ms: MeasurementSet) -> int:
    """Squared norm of the binary column z = number of patterns matching z.

    A return of 0 means the column is absent from the measurement set.
    """
    return int(np.count_nonzero(ms.match_vector(z)))


def matching_pursuit_reference(
    y: np.ndarray, ms: MeasurementSet, cfg: PursuitConfig
) -> ReconstructionResult:
    """matching_pursuit with each step through column_norm_sq, column_dot, a
    second match vector for the deflation and np.linalg.norm."""
    r = _per_pattern(y, ms, "marginals").copy()
    with np.errstate(over="ignore"):
        if not math.isfinite(np.linalg.norm(r)):
            raise ValueError("marginals must be finite, and so must their squared norm")
    tol = cfg.residual_tolerance
    if tol is None:
        tol = 1e-6 * float(np.linalg.norm(r))
    coeffs: dict[int, float] = {}
    trace: list[IterationRecord] = []
    termination = Termination.max_iterations
    if float(np.linalg.norm(r)) <= tol:
        termination = Termination.tolerance_met
    else:
        for _ in range(cfg.max_iterations):
            outcome = cfg.solver(ms, r)
            if outcome.score < MIN_SCORE:
                termination = Termination.score_floor
                break
            z = outcome.position
            nsq = column_norm_sq(z, ms)
            if nsq == 0:
                raise DegenerateColumnError(f"solver chose index {z} matching no pattern")
            c = column_dot(z, r, ms) / nsq
            coeffs[z] = coeffs.get(z, 0.0) + c
            r[ms.match_vector(z)] -= c
            rnorm = float(np.linalg.norm(r))
            trace.append(IterationRecord(z, outcome.score, c, rnorm))
            if rnorm <= tol:
                termination = Termination.tolerance_met
                break
    spikes = tuple((pos, val) for pos, val in sorted(coeffs.items()) if val != 0.0)
    return ReconstructionResult(SparseSignal(n=ms.n, spikes=spikes), tuple(trace), termination)
