"""Reference implementations that the tests compare the package against.

`all_column_dots_masked`, `diagonal_per_term` and `build_hamiltonian_itertools`
are the straightforward forms of the table kernel's three callers: one
masked pass per pattern, one sign product per term, one `itertools` subset
loop per pattern.  The kernel must agree with them bit for bit.
`chain_dp_solve_arrays` is the chain dynamic program on numpy arrays and
scalars, which the float-list `chain_dp_solve` must match exactly.  The
other helpers materialize what the package keeps implicit.
"""

from __future__ import annotations

import itertools

import numpy as np

from isingpursuit.hamiltonian import IsingHamiltonian, _pruned, build_hamiltonian
from isingpursuit.measurement import DENSE_MATRIX_CAP, MeasurementSet, Pattern, column_dot
from isingpursuit.signal import SparseSignal
from isingpursuit.solvers import ChainStructureError, SolverOutcome


def bit_at(z: int, j: int, n: int) -> int:
    """Bit j (1-based, MSB-first) of the n-bit index z."""
    return (z >> (n - j)) & 1


def from_dense(x: np.ndarray, n: int) -> SparseSignal:
    """Re-sparsify a dense vector (inverse of SparseSignal.dense)."""
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
        k = p.k
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
    return IsingHamiltonian(ms.n, _pruned(terms))


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
