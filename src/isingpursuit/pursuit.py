"""Matching pursuit over implicit binary measurement columns.

Each iteration asks a support-detection backend for the index whose column
best correlates with the residual, projects the residual onto that column
(binary columns make the least-squares coefficient a plain average), and
deflates.  Re-selecting a previous position accumulates into the same
coefficient.  The per-iteration trace makes every run auditable.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .measurement import MeasurementSet, column_dot, column_norm_sq
from .signal import SparseSignal
from .solvers import SolverOutcome

Solver = Callable[[MeasurementSet, np.ndarray], SolverOutcome]

# Pursuit stops once the solver's best score falls below this floor.
MIN_SCORE = 1e-9


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
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.residual_tolerance is not None and self.residual_tolerance < 0:
            raise ValueError("residual_tolerance must be >= 0")


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
    ValueError on marginals that are not all finite.
    """
    if len(y) != len(ms.patterns):
        raise ValueError(f"marginals length {len(y)} != pattern count {len(ms.patterns)}")
    r = np.array(y, dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("marginals must be finite")
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
                raise DegenerateColumnError(
                    f"solver chose index {z} matching no pattern"
                )
            c = column_dot(z, r, ms) / nsq
            coeffs[z] = coeffs.get(z, 0.0) + c
            r[ms.match_vector(z)] -= c
            rnorm = float(np.linalg.norm(r))
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


def recovery_success(
    truth: SparseSignal, result: ReconstructionResult, amplitude_floor: float = 1e-6
) -> bool:
    """True iff every true spike position carries recovered weight above the floor.

    Spurious extra positions do not count against success; recovered values
    are not compared against the true amplitudes.
    """
    if truth.n != result.recovered.n:
        raise ValueError(f"truth has n={truth.n} but result has n={result.recovered.n}")
    recovered = result.coefficients()
    return all(
        abs(recovered.get(pos, 0.0)) >= amplitude_floor for pos in truth.positions()
    )
