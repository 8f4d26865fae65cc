"""Support detection backends: argmax_z |(A^T r)_z| over the 2**n index space.

Three interchangeable backends share one outcome type: an exhaustive scan,
an exact chain dynamic program for nearest-neighbor structure, and a
best-effort simulated QAOA proposer.  A SolverSpec names the backend and
carries the QAOA knobs, with one set of defaults and checks; the QAOA
angles are each target's best row of a fixed grid of linear ramps.  All of
them report a score recomputed through column_dot at the returned position, so
reported scores are always reproducible independently of the search path.
The absolute value is handled by solving both the maximization and the
minimization of h and keeping whichever extremum is larger in magnitude.
The chain backend fills the max and the min tables in one fused sweep that
records its choices, exact because IEEE negation commutes with its sums and
comparisons; the QAOA backend picks both targets' angles in one ramp
`optimize` call, one `ansatz_state` call over H's diagonal, with -H's
circuits as H's circuits with their gammas negated, and samples the two
winning states that call made.

The QAOA backend evolves under H normalised: its diagonal d divided by the
spread s = max|d - mean d| (`IsingHamiltonian.normalized`), so that the
angles meet a landscape of one width whatever the residual's magnitude.
Shifting d would change only a global phase, and s > 0 keeps -H's mirrored
rows' sign.  Rescoring stays `column_dot` on r, so every reported score
means what it meant; the diagnostics carry s as `scale`, and the reported
expectations times s are H's in raw units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import qaoa
from .hamiltonian import IsingHamiltonian, build_hamiltonian
from .measurement import MeasurementSet, _mask_bits, all_column_dots, column_dot, column_dots
from .signal import _read_count, _read_fields, _read_seed

BACKENDS = ("brute", "chain", "qaoa")


class ChainStructureError(ValueError):
    """The Hamiltonian has interactions beyond adjacent pairs; pick another backend."""


@dataclass(frozen=True)
class SolverOutcome:
    position: int
    score: float
    diagnostics: dict = field(default_factory=dict)


def brute_force_solve(ms: MeasurementSet, r: np.ndarray) -> SolverOutcome:
    """Exhaustive scan of all 2**n columns; exact, ties to the smallest index.

    |A^T r| is taken in place, so no second 2**n array is allocated: the
    peak is the 2**n vector itself, plus, for a sliding-window set, the
    quarter-size temporary of its last prefix stage.
    """
    dots = all_column_dots(r, ms)
    z = int(np.argmax(np.abs(dots, out=dots)))
    score = abs(column_dot(z, r, ms))
    return SolverOutcome(z, score, {"backend": "brute", "scanned": len(dots)})


def _chain_params(
    H: IsingHamiltonian, slots: np.ndarray
) -> tuple[float, list[float], list[float]]:
    """Constant, per-site fields and adjacent couplings of a built H, read
    through its set's chain slots (see `MeasurementSet._chain_slots`):
    fields[i] is site i, couplings[i] pairs sites (i, i+1), and neither
    list's index 0 is read.  The first kept support that no chain holds
    raises ChainStructureError."""
    n, keep = H.n, H._keep
    cells = np.zeros(2 * n + 2)
    cells[slots[keep]] = H._totals[keep]
    flat = cells.tolist()
    if flat.pop():  # a kept total is never zero, so some kept support is not a chain's
        bad = np.flatnonzero(keep & (slots == 2 * n + 1))[0]
        support = _mask_bits(n, int(H._masks[bad]))
        if len(support) == 2:
            raise ChainStructureError(f"non-adjacent coupling {support}")
        raise ChainStructureError(f"interaction of order {len(support)}: {support}")
    return flat[0], flat[:n + 1], flat[:n:-1]


def _chain_extrema(
    const: float, fields: list[float], couplings: list[float], n: int
) -> tuple[int, float, int, float]:
    """Exact chain maximum and minimum in one suffix sweep plus greedy bit
    selection: (z_max, max_value, z_min, min_value).

    Spin s = +1 encodes bit 0, s = -1 bit 1.  Ties prefer bit 0 at the most
    significant undecided position, which makes each returned index the
    smallest one among the maxima (minima).  The min tables are bit for bit
    what a max sweep over the negated fields and couplings would hold,
    negated (-max(-a, -b) == min(a, b) and (-x) + (-y) == -(x + y) exactly,
    up to the sign of a zero sum, which no comparison sees); the tie rules
    are that sweep's, mirrored.  Plain floats throughout: the same IEEE sums
    and comparisons as numpy scalars, without their per-element cost.

    The sweep records, per site and lane, the bit it keeps at the next site
    given bit 0 and given bit 1 here; the selection only follows those
    records.  A selection that recomputed them would compare the same two
    sums, (+-c) + h0 against (-+c) + h1 on the same table entries, with the
    complementary tie rule (bit 0 on >=, or <= for the min, where the sweep
    takes bit 1 on >, or <), so it picks the same bit whenever no sum is
    NaN, which only an overflowing Hamiltonian can produce.  IEEE defines
    x - y as x + (-y), so h1 - c is bit for bit -c + h1, signed zeros
    included.
    """
    # (h0, h1), (l0, l1): maximal, minimal value of sites i..n given bit 0,
    # given bit 1 at site i; gjk is the candidate for bit j at i, k at i+1
    h0 = l0 = fields[n]
    h1 = l1 = -fields[n]
    # steps[-i]: the max lane's bit at site i+1 given bit 0 and given bit 1
    # at site i, then the min lane's
    steps = []
    for f, c in zip(fields[n - 1:0:-1], couplings[n - 1:0:-1]):
        # pairs, not quadruples: a two-name assignment builds no tuple
        g00, g01 = h0 + c, h1 - c
        g10, g11 = h0 - c, h1 + c
        t0, t1 = g01 > g00, g11 > g10
        h0, h1 = f + (g01 if t0 else g00), (g11 if t1 else g10) - f
        g00, g01 = l0 + c, l1 - c
        g10, g11 = l0 - c, l1 + c
        u0, u1 = g01 < g00, g11 < g10
        l0, l1 = f + (g01 if u0 else g00), (g11 if u1 else g10) - f
        steps.append((t0, t1, u0, u1))
    b = 0 if h0 >= h1 else 1
    m = 0 if l0 <= l1 else 1
    v_max = const + (h1 if b else h0)
    v_min = const + (l1 if m else l0) + 0.0  # a zero minimum is +0.0, never -0.0
    z_max, z_min = b, m
    for step in reversed(steps):
        b, m = step[b], step[2 + m]
        z_max, z_min = z_max << 1 | b, z_min << 1 | m
    return z_max, v_max, z_min, v_min


def chain_dp_solve(ms: MeasurementSet, r: np.ndarray) -> SolverOutcome:
    """Exact optimum for chain-structured Hamiltonians in O(n).

    One fused pass fills the max and the min tables of h and records its
    choices, a second follows them to the two indices, and the extremum of
    larger magnitude is kept (ties toward the maximization of h); this is
    bitwise the two-pass form that maximizes h and -h (see `_chain_extrema`).
    Raises ChainStructureError when the built Hamiltonian is not a chain, and
    ValueError when the sweep overflows to a NaN extremum, which no argmax has.
    """
    H = build_hamiltonian(ms, r)
    z_max, v_max, z_min, v_min = _chain_extrema(*_chain_params(H, ms._chain_slots), ms.n)
    if v_max != v_max or v_min != v_min:
        raise ValueError(f"chain sweep overflowed: max_value={v_max}, min_value={v_min}")
    z = z_max if abs(v_max) >= abs(v_min) else z_min
    score = abs(column_dot(z, r, ms))
    return SolverOutcome(
        z, score, {"backend": "chain_dp", "max_value": v_max, "min_value": v_min}
    )


@dataclass(frozen=True)
class SolverSpec:
    """Backend choice plus the QAOA knobs (ignored by the exact backends).

    param_count is the paper's parameter count.  The circuit has depth
    ceil(param_count / 2) layers of one gamma and one beta each, so it runs
    2 * depth angles: an odd count rounds up, and the paper's 5/9/15/21 run
    6/10/16/22-angle circuits.

    qaoa_solve reads param_count and shots: each target keeps the best row
    of a fixed grid of linear ramps (`qaoa.optimize`'s "ramp" schedule), so
    its circuit of any depth has one free number.  restarts and max_evals,
    the Nelder-Mead search's budgets, are checked but not read.
    """

    backend: str = "brute"
    param_count: int = 4
    restarts: int = qaoa.RESTARTS
    max_evals: int = qaoa.MAX_EVALS
    shots: int = 1024

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        _read_fields(self, _read_count, "param_count", "restarts", "max_evals", "shots")

    @property
    def depth(self) -> int:
        return math.ceil(self.param_count / 2)


def _rescore(candidates: list[int], r: np.ndarray, ms: MeasurementSet) -> tuple[int, float]:
    """The candidate of largest |column_dot| and that score, in one pass:
    the first maximum, so ties go to the earliest candidate.  This is what
    a loop that keeps a strictly larger score finds, from (-1, -1.0): a
    NaN score never wins, and candidates that all score NaN give (-1, -1.0).
    """
    scores = np.abs(column_dots(candidates, r, ms))
    scores[np.isnan(scores)] = -1.0
    best = int(np.argmax(scores))
    if scores[best] < 0.0:
        return -1, -1.0
    return int(candidates[best]), float(scores[best])


def qaoa_solve(
    ms: MeasurementSet, r: np.ndarray, spec: SolverSpec = SolverSpec("qaoa"), seed=None
) -> SolverOutcome:
    """Best-effort support detection through one QAOA run over two targets.

    One `optimize` call under the ramp schedule picks angles for the top of
    h and, in mirrored rows on H's diagonal, the top of -h; the ramp reads
    no seed.  Each target keeps its own seed stream for its samples, spawned
    from seed, which is read by _read_seed unless None.  The spec gives the depth and the shots;
    its backend, restarts and max_evals are not read.  The angles, both states
    and their samples run under H normalised, with diagonal d / s for H's
    diagonal d and its spread s (1.0 where the spread is zero or not
    finite; see the module docstring): H makes d once, and the normalised
    Hamiltonian keeps d / s, which the ramp's states and their expectations
    both read.  The two states sampled are the ones the ramp evolved and
    kept (-h's as H's state at its gammas negated); the solve evolves no
    state again.  The candidates sampled from them are pooled in one set and
    rescored by |column_dot| on r in one pass (`column_dots`); the
    best-scoring candidate wins (ties to the smallest index).  The
    diagnostics report s as `scale`, then each target's expectation, in
    normalised units, and evaluation count.  Only the reported score is
    guaranteed, not global optimality.
    """
    seed = None if seed is None else _read_seed(seed)
    H = build_hamiltonian(ms, r)
    if H.max_support_size() == 0:
        # flat objective: every index scores the same
        z = 0
        return SolverOutcome(
            z, abs(column_dot(z, r, ms)), {"backend": "qaoa", "flat": True}
        )
    H, scale = H.normalized()  # from here on H is d / s; rescoring reads r
    # the samples read seeds[1] and seeds[3] of four spawned streams; the
    # other two go unread, and this layout keeps every seeded result bitwise
    seeds = np.random.SeedSequence(seed).spawn(4)
    out = qaoa.optimize(H, p=spec.depth, schedule="ramp")
    diagnostics: dict = {"backend": "qaoa", "scale": scale}
    for label, best in (("max", out.plus), ("min", out.minus)):
        diagnostics[f"{label}_expectation"] = best.expectation
        diagnostics[f"{label}_evaluations"] = best.evaluations
    # a set, not np.unique, whose plain form imports numpy.ma (1.5 MB)
    candidates = sorted(set().union(*(
        qaoa.sample_candidates(state, spec.shots, seed=sample_seed)
        for state, sample_seed in zip(out.states, seeds[1::2]))))
    diagnostics["candidates"] = len(candidates)
    return SolverOutcome(*_rescore(candidates, r, ms), diagnostics)
