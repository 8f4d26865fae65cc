"""Matching pursuit over implicit binary measurement columns.

Each iteration asks a support-detection backend for the index whose column
best correlates with the residual, projects the residual onto that column
(binary columns make the least-squares coefficient a plain average), and
deflates.  Re-selecting a previous position accumulates into the same
coefficient.  The per-iteration trace makes every run auditable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .measurement import MeasurementSet, _per_pattern
from .signal import SparseSignal, _read_count, _read_fields, _read_float
from .solvers import SolverOutcome

Solver = Callable[[MeasurementSet, np.ndarray], SolverOutcome]

# Pursuit stops once the solver's best score falls below this floor.
MIN_SCORE = 1e-9
# A true spike counts as recovered when its recovered weight reaches this floor.
AMPLITUDE_FLOOR = 1e-6


class DegenerateColumnError(RuntimeError):
    """A solver returned a position whose column is absent from the measurement set."""


class Termination(Enum):
    tolerance_met = "tolerance_met"
    max_iterations = "max_iterations"
    score_floor = "score_floor"


@dataclass(frozen=True)
class PursuitConfig:
    """Stopping rules and the support-detection backend.

    residual_tolerance None means 1e-6 * ||y||_2, fixed once at entry.
    """

    solver: Solver
    max_iterations: int
    residual_tolerance: float | None = None

    def __post_init__(self):
        _read_fields(self, _read_count, "max_iterations")
        if self.residual_tolerance is not None:
            tolerance = _read_float(self.residual_tolerance, "residual_tolerance", finite=False)
            if not tolerance >= 0:
                raise ValueError(f"residual_tolerance must be >= 0, got {tolerance}")
            object.__setattr__(self, "residual_tolerance", tolerance)


@dataclass(frozen=True)
class IterationRecord:
    position: int
    score: float
    coefficient: float
    residual_norm: float


@dataclass(frozen=True)
class ReconstructionResult:
    recovered: SparseSignal
    trace: tuple[IterationRecord, ...]
    termination: Termination

    def coefficients(self) -> dict[int, float]:
        return {pos: val for pos, val in self.recovered.spikes}

    def to_dict(self) -> dict:
        return {
            "recovered": self.recovered.to_dict(),
            "trace": [asdict(t) for t in self.trace],
            "termination": self.termination.value,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


def matching_pursuit(
    y: np.ndarray, ms: MeasurementSet, cfg: PursuitConfig
) -> ReconstructionResult:
    """Iterate support detection, coefficient update and residual deflation.

    Stops when the residual 2-norm falls to the tolerance, the best solver
    score drops below MIN_SCORE, or the iteration budget runs out.  Raises
    ValueError on marginals that are not a vector with one entry per
    pattern, or whose squared norm r . r is not finite (a NaN or infinite
    entry, or entries above about 1e154).

    Each step builds the chosen column once, as the boolean match vector
    over patterns: a binary column's squared norm is its count of matches,
    its dot with r is the sum of r over the matches, and deflation subtracts
    the coefficient on them, in place.  Those are the reductions the column_norm_sq of
    tests/oracles.py and column_dot run on the same vector (np.add.reduce is
    the reduce np.sum runs), and sqrt(r . r) is what np.linalg.norm computes
    for a float vector, so every step is bit for bit the one through them.
    """
    r = _per_pattern(y, ms, "marginals").copy()
    with np.errstate(over="ignore"):
        rnorm_sq = r.dot(r)
    if not math.isfinite(rnorm_sq):
        raise ValueError("marginals must be finite, and so must their squared norm")
    rnorm = math.sqrt(rnorm_sq)
    tol = cfg.residual_tolerance
    if tol is None:
        tol = 1e-6 * rnorm
    coeffs: dict[int, float] = {}
    trace: list[IterationRecord] = []
    termination = Termination.max_iterations
    if rnorm <= tol:
        termination = Termination.tolerance_met
    else:
        for _ in range(cfg.max_iterations):
            outcome = cfg.solver(ms, r)
            if outcome.score < MIN_SCORE:
                termination = Termination.score_floor
                break
            z = outcome.position
            column = ms.match_vector(z)
            nsq = np.count_nonzero(column)
            if nsq == 0:
                raise DegenerateColumnError(
                    f"solver chose index {z} matching no pattern"
                )
            c = float(np.add.reduce(r[column]) / nsq)
            coeffs[z] = coeffs.get(z, 0.0) + c
            np.subtract(r, c, out=r, where=column)
            rnorm = math.sqrt(r.dot(r))
            trace.append(IterationRecord(z, outcome.score, c, rnorm))
            if rnorm <= tol:
                termination = Termination.tolerance_met
                break
    spikes = tuple(
        (pos, val) for pos, val in sorted(coeffs.items()) if val != 0.0
    )
    return ReconstructionResult(
        recovered=SparseSignal(n=ms.n, spikes=spikes),
        trace=tuple(trace),
        termination=termination,
    )


def recovery_success(truth: SparseSignal, result: ReconstructionResult) -> bool:
    """True iff every true spike position carries recovered weight of at least
    AMPLITUDE_FLOOR in magnitude.

    Spurious extra positions do not count against success; recovered values
    are not compared against the true amplitudes.
    """
    if truth.n != result.recovered.n:
        raise ValueError(f"truth has n={truth.n} but result has n={result.recovered.n}")
    recovered = result.coefficients()
    return all(
        abs(recovered.get(pos, 0.0)) >= AMPLITUDE_FLOOR for pos in truth.positions()
    )
