"""Command-line entry points.

Subcommands cover the full pipeline: `generate` a sparse signal, build
`patterns`, `measure` marginals, `reconstruct` from marginals, and run a
batch `experiment`.  Everything is JSON in / JSON (or CSV) out so stages
can be chained through files.

Each input field is read once, by the record that holds it: a signal,
pattern set, plan or solver spec checks its own fields when built, so
file values go to the constructors as JSON gives them.  The CLI reads only
what no record holds: that a plan and its solver are JSON objects of known
keys, a plan's parameter counts, and the marginals.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields
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
from .signal import SparseSignal, _json_list, _read_float, _read_int, random_sparse_signal

# A plan file's keys: the plan's fields, then its parameter counts; and its solver's.
_PLAN_KEYS = (*(f.name for f in fields(ExperimentPlan)), "parameter_counts")
_SOLVER_KEYS = tuple(f.name for f in fields(SolverSpec))


def _emit(text: str, out: str | None) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _given(args: argparse.Namespace, keys: tuple) -> dict:
    """The fields among keys that flags set; a flag left out is a field left out."""
    return {key: value for key, value in vars(args).items() if key in keys and value is not None}


def _solver(fields: dict, counts: list[int]) -> SolverSpec:
    """The solver a field dict names: one count sets its param_count, two or more sweep qaoa."""
    if len(counts) > 1 and fields.get("backend", "qaoa") != "qaoa":
        raise ValueError(f"a sweep of {len(counts)} parameter counts runs the qaoa backend, "
                         f"got {fields['backend']!r}")
    return SolverSpec(**({**fields, "param_count": counts[0]} if len(counts) == 1 else fields))


def _json_object(value, name: str, keys: tuple) -> dict:
    """value, a JSON object whose every key is one of keys."""
    if type(value) is not dict:
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    for key in value:
        if key not in keys:
            raise ValueError(f"{name} has no field {key!r}; accepted: {', '.join(keys)}")
    return value


def _plan_fields(value) -> dict:
    """A plan file's fields, its solver's and its parameter counts, each read
    once: ExperimentPlan and SolverSpec read their own fields when built, and
    the counts, which neither holds, are read here."""
    plan = _json_object(value, "plan", _PLAN_KEYS)
    if "solver" in plan:
        _json_object(plan["solver"], "plan solver", _SOLVER_KEYS)
    counts = _json_list(plan.get("parameter_counts", []), "parameter_counts")
    plan["parameter_counts"] = [_read_int(count, "parameter_counts") for count in counts]
    return plan


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
    ms = make_patterns(args.pattern_kind, args.n, args.quadruplets, args.seed)
    _emit(ms.to_json(), args.out)


def _cmd_measure(args: argparse.Namespace) -> None:
    signal = SparseSignal.from_json(Path(args.signal).read_text())
    ms = MeasurementSet.from_json(Path(args.patterns_file).read_text())
    y = measure(signal, ms)
    _emit(json.dumps([float(v) for v in y]), args.out)


def _cmd_reconstruct(args: argparse.Namespace) -> None:
    counts = args.parameter_counts or []
    if len(counts) > 1:
        raise ValueError(f"reconstruct takes one --params count, got {len(counts)}; "
                         "experiment sweeps a list")
    cfg = PursuitConfig(
        solver=make_solver(_solver(_given(args, _SOLVER_KEYS), counts), args.seed),
        max_iterations=args.max_iterations,
        residual_tolerance=args.tolerance,
    )
    y = _read_marginals(json.loads(Path(args.marginals).read_text()))
    ms = MeasurementSet.from_json(Path(args.patterns_file).read_text())
    result = matching_pursuit(y, ms, cfg)
    _emit(result.to_json(), args.out)


def _cmd_experiment(args: argparse.Namespace) -> None:
    if args.plan:
        given = _plan_fields(json.loads(Path(args.plan).read_text()))
    elif args.n is None or args.sparsity is None:
        raise ValueError("--n and --sparsity are required without --plan")
    else:
        given = {**_given(args, _PLAN_KEYS), "solver": _given(args, _SOLVER_KEYS)}
    counts = given.pop("parameter_counts", [])
    plan = ExperimentPlan(solver=_solver(given.pop("solver", {}), counts), **given)
    reports = run_sweep(plan, counts) if len(counts) > 1 else [run_batch(plan)]
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

    output = argparse.ArgumentParser(add_help=False)  # measure draws nothing at random
    output.add_argument("--out", default=None, help="output file (default: stdout)")

    def common(seed_dest: str) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False, parents=[output])
        parent.add_argument("--seed", dest=seed_dest, type=int, metavar="SEED", help="RNG seed")
        return parent

    seeded = common("seed")  # experiment's --seed is its plan's master_seed

    sizing = argparse.ArgumentParser(add_help=False)
    sizing.add_argument("--n", type=int, required=True, help="number of index bits")

    # Plan and solver flags store under their field's name with no default (see _given).
    pattern_opts = argparse.ArgumentParser(add_help=False)
    pattern_opts.add_argument("--patterns", dest="pattern_kind", choices=PATTERN_KINDS,
                              default=ExperimentPlan.pattern_kind)
    pattern_opts.add_argument("--quadruplets", type=int,
                              help="quadruplet count (quad patterns only)")

    solver_opts = argparse.ArgumentParser(add_help=False)
    solver_opts.add_argument("--solver", dest="backend", choices=BACKENDS)
    solver_opts.add_argument("--params", dest="parameter_counts", type=_int_list,
                             metavar="PARAMS", help="QAOA parameter count")
    solver_opts.add_argument("--restarts", type=int,
                             help="checked, not read: QAOA angles come from a fixed ramp grid")
    solver_opts.add_argument("--max-evals", type=int,
                             help="checked, not read: QAOA angles come from a fixed ramp grid")
    solver_opts.add_argument("--shots", type=int)

    p = sub.add_parser("generate", parents=[sizing, seeded], help="random sparse signal -> JSON")
    p.add_argument("--sparsity", type=int, required=True)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser(
        "patterns", parents=[sizing, pattern_opts, seeded], help="pattern set -> JSON"
    )
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("measure", parents=[output], help="signal + patterns -> marginals JSON")
    p.add_argument("--signal", required=True, help="signal JSON file")
    p.add_argument("--patterns-file", required=True, help="pattern set JSON file")
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser(
        "reconstruct", parents=[solver_opts, seeded], help="marginals + patterns -> result JSON"
    )
    p.add_argument("--marginals", required=True, help="marginals JSON file")
    p.add_argument("--patterns-file", required=True, help="pattern set JSON file")
    p.add_argument("--max-iterations", type=int, default=32,
                   help="pursuit steps at most (default: %(default)s)")
    p.add_argument("--tolerance", type=float, default=None, help="residual stop threshold")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser(
        "experiment",
        parents=[pattern_opts, solver_opts, common("master_seed")],
        help="seeded trial batch or parameter sweep -> CSV/JSON report",
        description="A comma-separated --params list runs a sweep: chain-NN, then QAOA "
                    "at each count, on the same trial seeds.",
    )
    p.add_argument("--n", type=int, help="number of index bits")
    p.add_argument("--sparsity", type=int)
    p.add_argument("--trials", dest="trial_count", type=int, metavar="TRIALS")
    p.add_argument("--max-iterations", type=int,
                   help="pursuit steps per trial at most (default: 4 * sparsity)")
    p.add_argument("--time-limit", dest="time_limit_s", type=float, metavar="TIME_LIMIT",
                   help="per-trial seconds")
    p.add_argument("--workers", type=int)
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
