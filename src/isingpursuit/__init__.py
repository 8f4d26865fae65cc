"""Sparse signal recovery from bit-pattern marginals via Ising ground states.

A signal over 2**n positions is observed only through marginals: each
measurement sums the signal over all positions whose binary index matches a
small set of fixed bits.  Matching pursuit recovers the spikes one at a
time; the inner argmax over positions is exactly the extremum of a diagonal
Ising Hamiltonian, solved here by brute force, by chain dynamic
programming, or by a simulated QAOA circuit.
"""

from .hamiltonian import IsingHamiltonian, build_hamiltonian
from .measurement import (
    MeasurementSet,
    Pattern,
    column_dot,
    complete_patterns,
    measure,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from .pursuit import (
    PursuitConfig,
    ReconstructionResult,
    Termination,
    matching_pursuit,
    recovery_success,
)
from .qaoa import (
    QaoaParams,
    ansatz_gates,
    ansatz_state,
    decompose_evolution,
    format_gates,
    optimize,
    sample_candidates,
    simulate_gates,
    uniform_state,
)
from .signal import SparseSignal, random_sparse_signal
from .solvers import (
    ChainStructureError,
    SolverOutcome,
    SolverSpec,
    brute_force_solve,
    chain_dp_solve,
    qaoa_solve,
)
from .experiment import (
    ExperimentPlan,
    SuccessReport,
    make_patterns,
    make_solver,
    reports_to_csv,
    reports_to_json,
    run_batch,
    run_single,
    run_sweep,
)

__all__ = [
    "ChainStructureError",
    "ExperimentPlan",
    "IsingHamiltonian",
    "MeasurementSet",
    "Pattern",
    "PursuitConfig",
    "QaoaParams",
    "ReconstructionResult",
    "SolverOutcome",
    "SolverSpec",
    "SparseSignal",
    "SuccessReport",
    "Termination",
    "ansatz_gates",
    "ansatz_state",
    "brute_force_solve",
    "build_hamiltonian",
    "chain_dp_solve",
    "column_dot",
    "complete_patterns",
    "decompose_evolution",
    "format_gates",
    "make_patterns",
    "make_solver",
    "matching_pursuit",
    "measure",
    "nearest_neighbor_patterns",
    "optimize",
    "qaoa_solve",
    "random_quadruplet_patterns",
    "random_sparse_signal",
    "recovery_success",
    "reports_to_csv",
    "reports_to_json",
    "run_batch",
    "run_single",
    "run_sweep",
    "sample_candidates",
    "simulate_gates",
    "uniform_state",
]
