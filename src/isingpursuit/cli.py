"""Command-line entry points.

Subcommands cover the full pipeline: `generate` a sparse signal, build
`patterns`, `measure` marginals, `reconstruct` from marginals, and run a
batch `experiment`.  Everything is JSON in / JSON (or CSV) out so stages
can be chained through files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiment import (
    BACKENDS,
    PATTERN_KINDS,
    ExperimentPlan,
    SolverSpec,
    make_patterns,
    make_solver,
    reports_to_csv,
    reports_to_json,
    run_batch,
    run_sweep,
)
from .measurement import MeasurementSet, measure
from .pursuit import DegenerateColumnError, PursuitConfig, matching_pursuit
from .signal import SparseSignal, random_sparse_signal


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _solver_spec(args: argparse.Namespace) -> SolverSpec:
    """The spec the solver flags name; a --params list contributes its first count."""
    return SolverSpec(args.solver, args.params[0], args.restarts, args.max_evals, args.shots)


def _cmd_generate(args: argparse.Namespace) -> None:
    signal = random_sparse_signal(args.n, args.sparsity, seed=args.seed)
    _emit(signal.to_json(), args.out)


def _cmd_patterns(args: argparse.Namespace) -> None:
    ms = make_patterns(args.patterns, args.n, args.quadruplets, args.seed)
    _emit(ms.to_json(), args.out)


def _cmd_measure(args: argparse.Namespace) -> None:
    signal = SparseSignal.from_json(Path(args.signal).read_text())
    ms = MeasurementSet.from_json(Path(args.patterns_file).read_text())
    y = measure(signal, ms)
    _emit(json.dumps([float(v) for v in y]), args.out)


def _cmd_reconstruct(args: argparse.Namespace) -> None:
    y = np.asarray(json.loads(Path(args.marginals).read_text()), dtype=float)
    ms = MeasurementSet.from_json(Path(args.patterns_file).read_text())
    cfg = PursuitConfig(
        solver=make_solver(_solver_spec(args), args.seed),
        max_iterations=args.max_iterations,
        residual_tolerance=args.tolerance,
    )
    result = matching_pursuit(y, ms, cfg)
    _emit(result.to_json(), args.out)


def _cmd_experiment(args: argparse.Namespace) -> None:
    if args.plan:
        raw = json.loads(Path(args.plan).read_text())
        counts = raw.pop("parameter_counts", None)
        solver = SolverSpec(**raw.pop("solver", {}))
        plan = ExperimentPlan(solver=solver, **raw)
    else:
        if args.n is None or args.sparsity is None:
            raise ValueError("--n and --sparsity are required without --plan")
        counts = args.params
        plan = ExperimentPlan(
            n=args.n,
            sparsity=args.sparsity,
            trial_count=args.trials,
            pattern_kind=args.patterns,
            quadruplets=args.quadruplets,
            solver=_solver_spec(args),
            master_seed=args.seed if args.seed is not None else 0,
            time_limit_s=args.time_limit,
            workers=args.workers,
        )
    if counts and len(counts) > 1:
        reports = run_sweep(plan, list(counts))
    else:
        if counts:
            plan = replace(plan, solver=replace(plan.solver, param_count=counts[0]))
        reports = [run_batch(plan)]
    text = reports_to_csv(reports) if args.format == "csv" else reports_to_json(reports)
    _emit(text, args.out)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isingpursuit",
        description="Sparse recovery from bit-pattern marginals via Ising solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="RNG seed")
    common.add_argument("--out", default=None, help="output file (default: stdout)")

    sizing = argparse.ArgumentParser(add_help=False)
    sizing.add_argument("--n", type=int, required=True, help="number of index bits")

    pattern_opts = argparse.ArgumentParser(add_help=False)
    pattern_opts.add_argument("--patterns", choices=PATTERN_KINDS, default="nn")
    pattern_opts.add_argument(
        "--quadruplets", type=int, default=None, help="quadruplet count (quad patterns only)"
    )

    solver_opts = argparse.ArgumentParser(add_help=False)
    solver_opts.add_argument("--solver", choices=BACKENDS, default=SolverSpec.backend)
    solver_opts.add_argument(
        "--params",
        type=_int_list,
        default=[SolverSpec.param_count],
        help="QAOA parameter count; comma-separated list sweeps counts (experiment only)",
    )
    solver_opts.add_argument("--restarts", type=int, default=SolverSpec.restarts)
    solver_opts.add_argument("--max-evals", type=int, default=SolverSpec.max_evals)
    solver_opts.add_argument("--shots", type=int, default=SolverSpec.shots)

    p = sub.add_parser("generate", parents=[sizing, common], help="random sparse signal -> JSON")
    p.add_argument("--sparsity", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "patterns", parents=[sizing, pattern_opts, common], help="pattern set -> JSON"
    )
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("measure", parents=[common], help="signal + patterns -> marginals JSON")
    p.add_argument("--signal", required=True, help="signal JSON file")
    p.add_argument("--patterns-file", required=True, help="pattern set JSON file")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser(
        "reconstruct", parents=[solver_opts, common], help="marginals + patterns -> result JSON"
    )
    p.add_argument("--marginals", required=True, help="marginals JSON file")
    p.add_argument("--patterns-file", required=True, help="pattern set JSON file")
    p.add_argument("--max-iterations", type=int, default=32)
    p.add_argument("--tolerance", type=float, default=None, help="residual stop threshold")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "experiment",
        parents=[pattern_opts, solver_opts, common],
        help="seeded trial batch or parameter sweep -> CSV/JSON report",
    )
    p.add_argument("--n", type=int, default=None, help="number of index bits")
    p.add_argument("--sparsity", type=int, default=None)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--time-limit", type=float, default=60.0, help="per-trial seconds")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--plan", default=None, help="plan JSON file (overrides other flags)")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, TypeError, KeyError, FileNotFoundError, json.JSONDecodeError,
            DegenerateColumnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
