"""Reconstruction benchmarks: seeded trials, success rates, solver sweeps.

A plan fixes the signal ensemble, the pattern kind and the solver; trials
derive their seeds deterministically from the master seed, so two plans
differing only in the solver consume identical signals and (for matching
pattern kinds) identical measurements.  Reports carry one record per trial
plus the aggregate rate and a full configuration echo.
"""

from __future__ import annotations

import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .measurement import MeasurementSet, measure, nearest_neighbor_patterns, random_quadruplet_patterns
from .pursuit import PursuitConfig, ReconstructionResult, Solver, matching_pursuit, recovery_success
from .signal import SparseSignal, random_sparse_signal
from .solvers import BACKENDS, SolverSpec, brute_force_solve, chain_dp_solve, qaoa_solve

PATTERN_KINDS = ("nn", "quad")


class TrialTimeout(RuntimeError):
    """A trial exceeded its wall-clock budget between solver calls."""


@dataclass(frozen=True)
class ExperimentPlan:
    n: int
    sparsity: int
    trial_count: int = 100
    pattern_kind: str = "nn"
    quadruplets: int | None = None
    solver: SolverSpec = SolverSpec()
    master_seed: int = 0
    amplitude_floor: float = 1e-6
    max_iterations: int | None = None
    time_limit_s: float = 60.0
    workers: int = 1

    def __post_init__(self):
        if self.trial_count < 1:
            raise ValueError(f"trial_count must be >= 1, got {self.trial_count}")
        if self.pattern_kind not in PATTERN_KINDS:
            raise ValueError(
                f"pattern_kind must be one of {PATTERN_KINDS}, got {self.pattern_kind!r}"
            )
        if not self.time_limit_s >= 0:
            raise ValueError(f"time_limit_s must be >= 0, got {self.time_limit_s}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def effective_quadruplets(self) -> int:
        return self.quadruplets if self.quadruplets is not None else _default_quadruplets(self.n)

    @property
    def effective_max_iterations(self) -> int:
        # spikes may need repeat selections to refine coefficients
        return self.max_iterations if self.max_iterations is not None else 4 * self.sparsity

    def config_echo(self) -> dict:
        """Every field but workers, with the effective q and iteration budget."""
        echo = asdict(self)
        del echo["workers"]
        echo["quadruplets"] = self.effective_quadruplets if self.pattern_kind == "quad" else None
        echo["max_iterations"] = self.effective_max_iterations
        return echo

    def config_id(self) -> str:
        tag = f"{self.solver.backend}-{self.pattern_kind}"
        if self.solver.backend == "qaoa":
            tag += f"-params{self.solver.param_count}"
        return tag


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    success: bool
    iterations: int
    runtime_s: float
    capped: bool = False


@dataclass(frozen=True)
class SuccessReport:
    config: dict
    config_id: str
    trials: tuple[TrialRecord, ...] = field(default_factory=tuple)

    @property
    def rate(self) -> float:
        return sum(t.success for t in self.trials) / len(self.trials)

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "config_id": self.config_id,
            "rate": self.rate,
            "trials": [asdict(t) for t in self.trials],
        }


def trial_seeds(plan: ExperimentPlan) -> list[int]:
    """Per-trial seeds; a function of the master seed and trial count only."""
    rng = np.random.default_rng(plan.master_seed)
    return [int(v) for v in rng.integers(0, 2**62, size=plan.trial_count)]


def _default_quadruplets(n: int) -> int:
    """Keeps the pattern budget comparable to the pair census, capped by the
    number of distinct quadruplets available."""
    return min(math.ceil(4 * (n - 1) / 16) + 1, math.comb(n, 4))


def make_patterns(kind: str, n: int, quadruplets: int | None, seed) -> MeasurementSet:
    """The pattern set of one kind; quadruplets None takes the default budget."""
    if kind not in PATTERN_KINDS:
        raise ValueError(f"pattern kind must be one of {PATTERN_KINDS}, got {kind!r}")
    if kind == "nn":
        return nearest_neighbor_patterns(n)
    if quadruplets is None:
        quadruplets = _default_quadruplets(n)
    return random_quadruplet_patterns(n, quadruplets, seed=seed)


def make_solver(spec: SolverSpec, seed) -> Solver:
    """The support-detection backend a spec names; seed drives QAOA only."""
    if spec.backend == "brute":
        return brute_force_solve
    if spec.backend == "chain":
        return chain_dp_solve
    return lambda ms, r: qaoa_solve(ms, r, spec, seed)


def run_single(
    plan: ExperimentPlan, trial_seed: int
) -> tuple[SparseSignal, ReconstructionResult, bool]:
    """One seeded trial: generate, measure, reconstruct, judge.

    Fully reproducible from (plan, trial_seed).  Raises TrialTimeout if the
    wall-clock budget expires between solver calls.
    """
    rng = np.random.default_rng(trial_seed)
    signal_seed, pattern_seed, solver_seed = (int(v) for v in rng.integers(0, 2**62, size=3))
    signal = random_sparse_signal(plan.n, plan.sparsity, seed=signal_seed)
    ms = make_patterns(plan.pattern_kind, plan.n, plan.quadruplets, pattern_seed)
    y = measure(signal, ms)
    solver = make_solver(plan.solver, solver_seed)
    deadline = time.monotonic() + plan.time_limit_s

    def guarded(ms_, r_):
        if time.monotonic() > deadline:
            raise TrialTimeout(f"trial exceeded {plan.time_limit_s} s")
        return solver(ms_, r_)

    cfg = PursuitConfig(solver=guarded, max_iterations=plan.effective_max_iterations)
    result = matching_pursuit(y, ms, cfg)
    return signal, result, recovery_success(signal, result, plan.amplitude_floor)


def _run_trial(args: tuple[ExperimentPlan, int, int]) -> TrialRecord:
    plan, index, seed = args
    start = time.perf_counter()
    try:
        _, result, ok = run_single(plan, seed)
        return TrialRecord(index, seed, ok, len(result.trace), time.perf_counter() - start)
    except TrialTimeout:
        return TrialRecord(index, seed, False, 0, time.perf_counter() - start, capped=True)


def run_batch(plan: ExperimentPlan) -> SuccessReport:
    """All trials of one configuration, optionally across worker processes."""
    jobs = [(plan, i, s) for i, s in enumerate(trial_seeds(plan))]
    if plan.workers > 1:
        with ProcessPoolExecutor(max_workers=plan.workers) as pool:
            records = list(pool.map(_run_trial, jobs))
    else:
        records = [_run_trial(job) for job in jobs]
    return SuccessReport(plan.config_echo(), plan.config_id(), tuple(records))


def run_sweep(plan: ExperimentPlan, parameter_counts: list[int]) -> list[SuccessReport]:
    """One report per QAOA parameter count, preceded by the classical reference.

    The reference is the chain solver on nearest-neighbor patterns.  All
    reports share trial seeds, so comparisons are paired.
    """
    if not parameter_counts or any(c < 1 for c in parameter_counts):
        raise ValueError("parameter counts must be a non-empty list of ints >= 1")
    baseline = replace(plan, solver=SolverSpec(backend="chain"), pattern_kind="nn")
    reports = [run_batch(baseline)]
    for count in parameter_counts:
        qaoa_plan = replace(plan, solver=replace(plan.solver, backend="qaoa", param_count=count))
        reports.append(run_batch(qaoa_plan))
    return reports


CSV_HEADER = "config,solver,patterns,param_count,trial,seed,success,iterations,runtime_s,capped"


def reports_to_csv(reports: list[SuccessReport]) -> str:
    """One row per (config, trial) plus one aggregate row per config.

    The aggregate row has trial="aggregate", success=the rate, iterations=
    the mean, runtime_s=the total and capped=the capped-trial count.
    """
    lines = [CSV_HEADER]
    for rep in reports:
        solver = rep.config["solver"]
        prefix = (
            f"{rep.config_id},{solver['backend']},{rep.config['pattern_kind']},"
            f"{solver['param_count'] if solver['backend'] == 'qaoa' else ''}"
        )
        for t in rep.trials:
            lines.append(
                f"{prefix},{t.trial},{t.seed},{int(t.success)},{t.iterations},"
                f"{t.runtime_s:.6f},{int(t.capped)}"
            )
        mean_iter = sum(t.iterations for t in rep.trials) / len(rep.trials)
        total_time = sum(t.runtime_s for t in rep.trials)
        capped = sum(t.capped for t in rep.trials)
        lines.append(
            f"{prefix},aggregate,,{rep.rate:.6f},{mean_iter:.3f},{total_time:.6f},{capped}"
        )
    return "\n".join(lines) + "\n"


def reports_to_json(reports: list[SuccessReport]) -> str:
    return json.dumps([rep.to_dict() for rep in reports], indent=2)
