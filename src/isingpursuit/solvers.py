"""Support detection backends: argmax_z |(A^T r)_z| over the 2**n index space.

Three interchangeable backends share one outcome type: an exhaustive scan,
an exact chain dynamic program for nearest-neighbor structure, and a
best-effort simulated QAOA search.  All of them report a score recomputed
through column_dot at the returned position, so reported scores are always
reproducible independently of the search path.  The absolute value is
handled by solving both the maximization and the minimization of h and
keeping whichever extremum is larger in magnitude.  The QAOA backend
searches both in one lockstep run over H's diagonal, with -H's circuits
as H's circuits with their gammas negated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import qaoa
from .hamiltonian import IsingHamiltonian, build_hamiltonian
from .measurement import MeasurementSet, all_column_dots, column_dot

BRUTE_FORCE_CAP = 20


class ChainStructureError(ValueError):
    """The Hamiltonian has interactions beyond adjacent pairs; pick another backend."""


@dataclass(frozen=True)
class SolverOutcome:
    position: int
    score: float
    diagnostics: dict = field(default_factory=dict)


def brute_force_solve(ms: MeasurementSet, r: np.ndarray) -> SolverOutcome:
    """Exhaustive scan of all 2**n columns; exact, ties to the smallest index."""
    if ms.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force at n={ms.n} exceeds cap {BRUTE_FORCE_CAP}")
    dots = all_column_dots(r, ms)
    z = int(np.argmax(np.abs(dots)))
    score = abs(column_dot(z, r, ms))
    return SolverOutcome(z, score, {"backend": "brute", "scanned": len(dots)})


@lru_cache(maxsize=4096)
def _chain_slot(support: frozenset) -> tuple[int, int]:
    """Where a chain term's coefficient goes: (0, 0) for the constant, (1, i)
    for the field at site i and (2, i) for the coupling of sites (i, i+1)."""
    if len(support) == 0:
        return 0, 0
    if len(support) == 1:
        (i,) = support
        return 1, i
    if len(support) == 2:
        i, j = sorted(support)
        if j != i + 1:
            raise ChainStructureError(f"non-adjacent coupling {sorted(support)}")
        return 2, i
    raise ChainStructureError(f"interaction of order {len(support)}: {sorted(support)}")


def _chain_params(H: IsingHamiltonian) -> tuple[float, list[float], list[float]]:
    """Split terms into constant, per-site fields and adjacent couplings."""
    n = H.n
    # couplings[i] pairs sites (i, i+1)
    const, fields, couplings = slots = ([0.0], [0.0] * (n + 1), [0.0] * n)
    for support, coeff in H.terms.items():
        kind, i = _chain_slot(support)
        slots[kind][i] = coeff
    return const[0], fields, couplings


def _chain_max(
    const: float, fields: list[float], couplings: list[float], n: int
) -> tuple[int, float]:
    """Exact chain maximum by a suffix sweep plus greedy bit selection.

    Spin s = +1 encodes bit 0, s = -1 bit 1.  Ties prefer bit 0 at the most
    significant undecided position, which makes the returned index the
    smallest one among the maxima.  Plain floats throughout: the same IEEE
    sums and comparisons as numpy scalars, without their per-element cost.
    """
    # best[i] = (maximal value of sites i..n given bit 0, given bit 1 at site i)
    best = [(0.0, 0.0)] * (n + 2)
    for i in range(n, 0, -1):
        pair = []
        for s in (1.0, -1.0):
            v = fields[i] * s
            if i < n:
                stay = couplings[i] * s + best[i + 1][0]
                flip = -couplings[i] * s + best[i + 1][1]
                v += flip if flip > stay else stay  # max(stay, flip)
            pair.append(v)
        best[i] = tuple(pair)
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


def chain_dp_solve(ms: MeasurementSet, r: np.ndarray) -> SolverOutcome:
    """Exact optimum for chain-structured Hamiltonians in O(n).

    Runs one pass maximizing h and one maximizing -h (exact: IEEE negation
    commutes with the sweep's sums and comparisons), then keeps the extremum
    of larger magnitude (ties toward the maximization of h).  Raises
    ChainStructureError when the built Hamiltonian is not a chain.
    """
    H = build_hamiltonian(ms, r)
    const, fields, couplings = _chain_params(H)
    z_max, v_max = _chain_max(const, fields, couplings, ms.n)
    z_min, neg_min = _chain_max(
        -const, [-f for f in fields], [-c for c in couplings], ms.n
    )
    v_min = 0.0 - neg_min  # not -neg_min, which turns a zero minimum into -0.0
    z = z_max if abs(v_max) >= abs(v_min) else z_min
    score = abs(column_dot(z, r, ms))
    return SolverOutcome(
        z, score, {"backend": "chain_dp", "max_value": v_max, "min_value": v_min}
    )


@dataclass(frozen=True)
class QaoaSolverConfig:
    depth: int = 2
    restarts: int = 10
    max_evals: int = 200
    shots: int = 1024
    seed: int | None = None


def qaoa_solve(
    ms: MeasurementSet, r: np.ndarray, cfg: QaoaSolverConfig = QaoaSolverConfig()
) -> SolverOutcome:
    """Best-effort support detection through one QAOA run over two targets.

    One lockstep `optimize` call searches for the top of h and, in mirrored
    lanes on H's diagonal, the top of -h; each target keeps its own seed
    streams, for the starts and for the samples.  Candidates sampled from
    both optimized states (-h's as H's state at its gammas negated) are
    pooled and rescored by |column_dot|; the best-scoring candidate wins
    (ties to the smallest index).  Only the reported score is guaranteed,
    not global optimality.
    """
    H = build_hamiltonian(ms, r)
    if H.max_support_size() == 0:
        # flat objective: every index scores the same
        z = 0
        return SolverOutcome(
            z, abs(column_dot(z, r, ms)), {"backend": "qaoa", "flat": True}
        )
    seeds = np.random.SeedSequence(cfg.seed).spawn(4)
    out = qaoa.optimize(
        H, p=cfg.depth, restarts=cfg.restarts, max_evals=cfg.max_evals,
        seed=seeds[0], negated_seed=seeds[2],
    )
    candidates: set[int] = set()
    diagnostics: dict = {"backend": "qaoa"}
    for label, best, params, sample_seed in (
        ("max", out.plus, out.plus.params, seeds[1]),
        ("min", out.minus, out.minus.params.mirrored(), seeds[3]),
    ):
        state = qaoa.ansatz_state(H, params)
        candidates.update(qaoa.sample_candidates(state, cfg.shots, seed=sample_seed))
        diagnostics[f"{label}_expectation"] = best.expectation
        diagnostics[f"{label}_evaluations"] = best.evaluations
    best_z = -1
    best_score = -1.0
    for z in sorted(candidates):
        score = abs(column_dot(z, r, ms))
        if score > best_score:
            best_z, best_score = z, score
    diagnostics["candidates"] = len(candidates)
    return SolverOutcome(best_z, best_score, diagnostics)
