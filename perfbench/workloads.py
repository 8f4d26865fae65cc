"""The benchmark's workloads: which arms run, with which parameters, and how much.

An arm is one experiment configuration (an `ExperimentPlan`).  A round
draws one list of trial seeds; an arm runs on `per_round` of them starting
at `offset`, so arms whose ranges overlap run on the same trials.
`per_round` sizes the arms of a workload to comparable shares of the run.
The first arm also runs the set-up's warm-up trial.

`nominal_round_s` is the time of one round on a 2-core Intel Xeon box with
one BLAS thread while other tenants slow the host.  A run measures
ceil(seconds / nominal_round_s) rounds: a fixed amount of work per seed, so
success vectors and counts repeat exactly, sized to take at most about
`--seconds` on that box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from isingpursuit.experiment import ExperimentPlan, SolverSpec

# The acceptance tests' QAOA budget (tests/test_acceptance.py, QAOA_BUDGET).
RESTARTS, MAX_EVALS = 2, 60
TIME_LIMIT_S = 20.0


@dataclass(frozen=True)
class Arm:
    plan: ExperimentPlan
    per_round: int = 1
    offset: int = 0

    @property
    def name(self) -> str:
        return f"{self.plan.config_id()}-n{self.plan.n}"

    def describe(self) -> dict:
        echo = self.plan.config_echo()
        # trial seeds come from the benchmark's schedule, not from the plan
        del echo["trial_count"], echo["master_seed"]
        return {"arm": self.name, "per_round": self.per_round, "offset": self.offset, **echo}


@dataclass(frozen=True)
class Workload:
    name: str
    arms: tuple[Arm, ...]
    nominal_round_s: float
    # two arms on the same seeds that must reach the same verdict on every trial
    agree: tuple[str, str] | None = None

    def rounds(self, seconds: float) -> int:
        return max(2, math.ceil(seconds / self.nominal_round_s))

    @property
    def seeds_per_round(self) -> int:
        return max(arm.offset + arm.per_round for arm in self.arms)


def _arm(n, backend, kind, *, sparsity=3, max_iterations=None, quadruplets=None,
         param_count=5, shots=1024, per_round=1, offset=0) -> Arm:
    solver = SolverSpec(backend, param_count, RESTARTS, MAX_EVALS, shots)
    plan = ExperimentPlan(
        n=n, sparsity=sparsity, trial_count=1, pattern_kind=kind, quadruplets=quadruplets,
        solver=solver, max_iterations=max_iterations, time_limit_s=TIME_LIMIT_S, workers=1,
    )
    return Arm(plan, per_round, offset)


# The QAOA workloads use the paper's regime: one support detection per spike
# (max_iterations = s).  Their QAOA arms run on distinct seeds: at n=6 the four
# arms reach the same verdicts, so sharing seeds would leave a quarter as many
# independent trials for success_rate.  The chain baseline and the brute
# control share the first QAOA arm's seeds.  No workload makes exactly half its
# trials cheap, which would put trial_s_p50 on the gap between two arms.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sweep-quad-n6",
            (
                *(_arm(6, "qaoa", "quad", max_iterations=3, param_count=c, offset=i)
                  for i, c in enumerate((5, 9, 15, 21))),
                _arm(6, "chain", "nn", max_iterations=3),
            ),
            nominal_round_s=2.3,
        ),
        Workload(
            "shot-limited-n10",
            (
                *(_arm(10, "qaoa", "quad", max_iterations=3, quadruplets=10, param_count=c,
                       shots=64, offset=i) for i, c in enumerate((5, 9))),
                _arm(10, "brute", "quad", max_iterations=3, quadruplets=10),
            ),
            nominal_round_s=2.0,
        ),
        Workload(
            "exact-large-n",
            (
                _arm(16, "brute", "nn", per_round=2),
                _arm(16, "chain", "nn", per_round=2),
                _arm(16, "brute", "quad", quadruplets=16),
                _arm(48, "chain", "nn", per_round=16),
            ),
            nominal_round_s=1.1,
            agree=("brute-nn-n16", "chain-nn-n16"),
        ),
    )
}

ALL_ARMS = tuple(arm.name for w in WORKLOADS.values() for arm in w.arms)

# Layers that run on every trial, and those each backend or pattern kind adds.
COMMON_LAYERS = (
    "experiment.run_single", "signal.random_sparse_signal", "measurement.measure",
    "pursuit.matching_pursuit", "pursuit.recovery_success", "measurement.column_dot",
)
BACKEND_LAYERS = {
    "brute": ("solvers.brute_force_solve", "measurement.all_column_dots"),
    "chain": ("solvers.chain_dp_solve", "hamiltonian.build_hamiltonian"),
    "qaoa": (
        "solvers.qaoa_solve", "hamiltonian.build_hamiltonian", "hamiltonian.diagonal",
        "qaoa.optimize", "qaoa.ansatz_state", "qaoa.sample_candidates",
    ),
}
PATTERN_LAYERS = {
    "nn": ("measurement.nearest_neighbor_patterns",),
    "quad": ("measurement.random_quadruplet_patterns",),
}


def required_layers(workload: Workload) -> set[str]:
    """Wrapped functions that must record calls when this workload runs."""
    layers = set(COMMON_LAYERS)
    for arm in workload.arms:
        layers.update(BACKEND_LAYERS[arm.plan.solver.backend])
        layers.update(PATTERN_LAYERS[arm.plan.pattern_kind])
    return layers
