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
from dataclasses import fields, replace
from pathlib import Path

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
from .signal import SparseSignal, _read_float, _read_int, random_sparse_signal

# A plan file's number fields and its solver's; the two that may be null stay null.
_INT_FIELDS = {"n", "sparsity", "trial_count", "quadruplets", "master_seed", "max_iterations",
               "workers", "param_count", "restarts", "max_evals", "shots"}
_FLOAT_FIELDS = {"time_limit_s"}
_NULLABLE_FIELDS = {"quadruplets", "max_iterations"}
_PLAN_KEYS = (*(f.name for f in fields(ExperimentPlan)), "parameter_counts")
_SOLVER_KEYS = tuple(f.name for f in fields(SolverSpec))


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _solver_spec(args: argparse.Namespace) -> SolverSpec:
    """The spec the solver flags name; a --params list contributes its first count."""
    return SolverSpec(args.solver, args.params[0], args.restarts, args.max_evals, args.shots)


def _plan_fields(value, name: str, accepted: tuple[str, ...]) -> dict:
    """A plan, or its solver: a JSON object whose keys are all accepted, whose
    integer fields are read by _read_int and whose float fields by _read_float."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    fields = dict(value)
    for key, field in fields.items():
        if key not in accepted:
            raise ValueError(f"{name} has no field {key!r}; accepted: {', '.join(accepted)}")
        if key in _INT_FIELDS and not (field is None and key in _NULLABLE_FIELDS):
            fields[key] = _read_int(field, key)
        elif key in _FLOAT_FIELDS:
            fields[key] = _read_float(field, key)
    return fields


def _read_marginals(value):
    """Every number read by _read_float; lists keep their nesting, so that a
    column or a scalar still fails the shape check in matching_pursuit."""
    if type(value) is list:
        return [_read_marginals(v) for v in value]
    return _read_float(value, "marginal")


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
    if len(args.params) != 1:
        raise ValueError(f"reconstruct takes one --params count, got {len(args.params)}; "
                         "experiment sweeps a list")
    y = _read_marginals(json.loads(Path(args.marginals).read_text()))
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
        raw = _plan_fields(json.loads(Path(args.plan).read_text()), "plan", _PLAN_KEYS)
        counts = raw.pop("parameter_counts", [])
        if type(counts) is not list:
            raise ValueError(f"parameter_counts must be a JSON list, got {type(counts).__name__}")
        counts = [_read_int(count, "parameter_counts") for count in counts]
        solver = SolverSpec(**_plan_fields(raw.pop("solver", {}), "plan solver", _SOLVER_KEYS))
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
            master_seed=args.seed if args.seed is not None else ExperimentPlan.master_seed,
            max_iterations=args.max_iterations,
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
    pattern_opts.add_argument("--patterns", choices=PATTERN_KINDS,
                              default=ExperimentPlan.pattern_kind)
    pattern_opts.add_argument(
        "--quadruplets", type=int, default=None, help="quadruplet count (quad patterns only)"
    )

    solver_opts = argparse.ArgumentParser(add_help=False)
    solver_opts.add_argument("--solver", choices=BACKENDS, default=SolverSpec.backend)
    solver_opts.add_argument("--params", type=_int_list, default=[SolverSpec.param_count],
                             help="QAOA parameter count")
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
    p.add_argument("--max-iterations", type=int, default=32,
                   help="pursuit steps at most (default: %(default)s)")
    p.add_argument("--tolerance", type=float, default=None, help="residual stop threshold")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "experiment",
        parents=[pattern_opts, solver_opts, common],
        help="seeded trial batch or parameter sweep -> CSV/JSON report",
        description="A comma-separated --params list runs a sweep: chain-NN, then QAOA "
                    "at each count, on the same trial seeds.",
    )
    p.add_argument("--n", type=int, default=None, help="number of index bits")
    p.add_argument("--sparsity", type=int, default=None)
    p.add_argument("--trials", type=int, default=ExperimentPlan.trial_count)
    p.add_argument("--max-iterations", type=int, default=ExperimentPlan.max_iterations,
                   help="pursuit steps per trial at most (default: 4 * sparsity)")
    p.add_argument("--time-limit", type=float, default=ExperimentPlan.time_limit_s,
                   help="per-trial seconds")
    p.add_argument("--workers", type=int, default=ExperimentPlan.workers)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--plan", default=None, help="plan JSON file (overrides other flags)")
    p.set_defaults(func=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, TypeError, KeyError, OSError, DegenerateColumnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
