import inspect
import json
import math
import subprocess
import sys
from dataclasses import fields as dataclass_fields

import numpy as np
import pytest

from isingpursuit.cli import _solver, build_parser, main
from isingpursuit.experiment import (
    BACKENDS,
    PATTERN_KINDS,
    ExperimentPlan,
    SolverSpec,
    SuccessReport,
    TrialRecord,
    make_solver,
    reports_to_json,
    run_batch,
)
from isingpursuit.measurement import MeasurementSet
from isingpursuit.pursuit import PursuitConfig, matching_pursuit
from isingpursuit.qaoa import optimize
from isingpursuit.solvers import SolverOutcome


def run_cli(*argv):
    return main(list(argv))


def test_generate_writes_valid_signal(tmp_path, capsys):
    out = tmp_path / "sig.json"
    assert run_cli("generate", "--n", "6", "--sparsity", "2", "--seed", "1",
                   "--out", str(out)) == 0
    data = json.loads(out.read_text())
    assert data["n"] == 6
    assert len(data["spikes"]) == 2


def test_generate_prints_to_stdout_by_default(capsys):
    assert run_cli("generate", "--n", "4", "--sparsity", "1", "--seed", "0") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["n"] == 4


def test_patterns_nn_census(capsys):
    assert run_cli("patterns", "--n", "6") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["patterns"]) == 20


def test_patterns_quad_uses_default_budget(capsys):
    assert run_cli("patterns", "--n", "6", "--patterns", "quad", "--seed", "2") == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["patterns"]) == 16 * 3


def test_full_pipeline_round_trip(tmp_path):
    sig = tmp_path / "sig.json"
    pat = tmp_path / "pat.json"
    marg = tmp_path / "y.json"
    res = tmp_path / "res.json"
    assert run_cli("generate", "--n", "6", "--sparsity", "1", "--seed", "4",
                   "--out", str(sig)) == 0
    assert run_cli("patterns", "--n", "6", "--out", str(pat)) == 0
    assert run_cli("measure", "--signal", str(sig), "--patterns-file", str(pat),
                   "--out", str(marg)) == 0
    assert len(json.loads(marg.read_text())) == 20
    assert run_cli("reconstruct", "--marginals", str(marg), "--patterns-file", str(pat),
                   "--solver", "chain", "--out", str(res)) == 0
    truth = json.loads(sig.read_text())
    recovered = json.loads(res.read_text())["recovered"]
    assert {s["pos"] for s in recovered["spikes"]} >= {s["pos"] for s in truth["spikes"]}


def test_experiment_csv_output(tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("experiment", "--n", "4", "--sparsity", "1", "--trials", "3",
                   "--solver", "chain", "--seed", "1", "--out", str(out)) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("config,solver,patterns")
    assert len(lines) == 1 + 3 + 1


def test_experiment_params_list_runs_a_sweep(capsys):
    assert run_cli("experiment", "--n", "4", "--sparsity", "1", "--trials", "2",
                   "--patterns", "quad", "--params", "2,4", "--restarts", "1",
                   "--max-evals", "25", "--shots", "32", "--seed", "0",
                   "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert [rep["config_id"] for rep in data] == [
        "chain-nn", "qaoa-quad-params2", "qaoa-quad-params4",
    ]


def test_experiment_accepts_a_plan_file(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "n": 4, "sparsity": 1, "trial_count": 2,
        "solver": {"backend": "chain"}, "master_seed": 3,
    }))
    assert run_cli("experiment", "--plan", str(plan), "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data[0]["config"]["master_seed"] == 3


@pytest.mark.parametrize("counts", [[9], [9, 9]])
def test_plan_file_parameter_counts_match_the_params_flag(tmp_path, capsys, counts):
    # one count sets the plan's QAOA parameter count, as --params 9 does;
    # two counts run a sweep either way
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "n": 4, "sparsity": 1, "trial_count": 2, "master_seed": 5, "parameter_counts": counts,
        "solver": {"backend": "qaoa", "restarts": 1, "max_evals": 10, "shots": 16},
    }))
    assert run_cli("experiment", "--plan", str(plan), "--format", "json") == 0
    via_plan = json.loads(capsys.readouterr().out)
    assert run_cli("experiment", "--n", "4", "--sparsity", "1", "--trials", "2", "--seed", "5",
                   "--time-limit", "60", "--solver", "qaoa",
                   "--params", ",".join(map(str, counts)), "--restarts", "1",
                   "--max-evals", "10", "--shots", "16", "--format", "json") == 0
    via_flags = json.loads(capsys.readouterr().out)
    for report in via_plan + via_flags:
        for trial in report["trials"]:
            trial["runtime_s"] = 0.0
    assert via_plan == via_flags
    assert via_plan[-1]["config_id"] == "qaoa-nn-params9"


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--time-limit", "nan"],
                                   ["--workers", "0", "--time-limit", "nan"]])
def test_experiment_rejects_workers_and_time_limits_that_do_nothing(flags, capsys):
    assert run_cli("experiment", "--n", "4", "--sparsity", "1", "--trials", "2", *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("plan", [{"sparsity": 0}, {"sparsity": 65},
                                  {"sparsity": 1, "max_iterations": 0},
                                  {"n": 21, "sparsity": 1, "solver": "brute"},
                                  {"n": 21, "sparsity": 1, "solver": "chain", "params": "5,9"},
                                  {"sparsity": 1, "patterns": "quad", "quadruplets": 16,
                                   "params": "5,9"},
                                  {"sparsity": 1, "patterns": "quad", "quadruplets": 0},
                                  {"n": 3, "sparsity": 1, "patterns": "quad"},
                                  {"sparsity": 1, "seed": -1}])
def test_experiment_rejects_a_plan_no_trial_can_run_before_any_worker(
        plan, tmp_path, monkeypatch, capsys):
    # at n = 21 a brute plan used to fail inside trial 0, and a sweep's QAOA
    # arms after the whole chain baseline had run; so did quadruplet counts
    # that no draw can meet
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr("isingpursuit.experiment.ProcessPoolExecutor", no_workers)
    monkeypatch.setattr("isingpursuit.experiment.run_batch", no_workers)
    monkeypatch.setattr("isingpursuit.cli.run_batch", no_workers)
    argv = ["--workers", "2"]
    for field, value in {"n": 6, **plan}.items():
        argv += ["--" + field.replace("_", "-"), str(value)]
    assert run_cli("experiment", *argv) == 2
    if "max_iterations" in plan:  # the same plan from a plan file
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"n": 6, "workers": 2, **plan}))
        assert run_cli("experiment", "--plan", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(line.startswith("error: ") for line in err.splitlines())
    assert "Traceback" not in err


def test_chain_on_quad_patterns_exits_2_before_any_worker(monkeypatch, capsys):
    def no_workers(*args, **kwargs):
        raise AssertionError("a worker pool started")

    monkeypatch.setattr("isingpursuit.experiment.ProcessPoolExecutor", no_workers)
    assert run_cli("experiment", "--n", "6", "--sparsity", "1", "--trials", "2",
                   "--solver", "chain", "--patterns", "quad", "--workers", "2") == 2
    err = capsys.readouterr().err
    assert err.splitlines() == ["error: the chain solver needs nn patterns, got 'quad'"]


@pytest.mark.parametrize("backend", ["brute", "chain"])
def test_a_sweep_refuses_a_backend_other_than_qaoa_before_any_trial(
        backend, tmp_path, monkeypatch, capsys):
    # a sweep used to run its QAOA arms after the baseline, ignoring the backend
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("isingpursuit.cli.run_batch", no_trials)
    monkeypatch.setattr("isingpursuit.cli.run_sweep", no_trials)
    assert run_cli("experiment", "--n", "6", "--sparsity", "2", "--solver", backend,
                   "--params", "5,9") == 2
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"n": 6, "sparsity": 2, "parameter_counts": [5, 9, 15],
                                "solver": {"backend": backend}}))
    assert run_cli("experiment", "--plan", str(path)) == 2
    message = "parameter counts runs the qaoa backend, got " + repr(backend)
    assert capsys.readouterr().err.splitlines() == [
        "error: a sweep of 2 " + message, "error: a sweep of 3 " + message]
    # one count still sets the spec's param_count, whatever its backend
    assert _solver({"backend": backend}, [5]) == SolverSpec(backend, param_count=5)


def test_max_iterations_flag_gives_the_plan_files_csv(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "n": 4, "sparsity": 2, "trial_count": 2, "pattern_kind": "quad", "master_seed": 2,
        "max_iterations": 3, "parameter_counts": [2, 4],
        "solver": {"backend": "qaoa", "restarts": 1, "max_evals": 10, "shots": 16},
    }))
    assert run_cli("experiment", "--plan", str(plan)) == 0
    via_plan = capsys.readouterr().out
    assert run_cli("experiment", "--n", "4", "--sparsity", "2", "--trials", "2",
                   "--patterns", "quad", "--seed", "2", "--max-iterations", "3",
                   "--params", "2,4", "--restarts", "1", "--max-evals", "10",
                   "--shots", "16") == 0
    via_flags = capsys.readouterr().out

    def without_runtimes(csv: str) -> list[list[str]]:
        rows = [line.split(",") for line in csv.splitlines()]
        column = rows[0].index("runtime_s")
        return [row[:column] + row[column + 1:] for row in rows]

    assert without_runtimes(via_plan) == without_runtimes(via_flags)
    # the chain baseline's first trial runs into the cap; 4 * sparsity would allow 8
    assert via_flags.splitlines()[1].startswith("chain-nn,chain,nn,,0,")
    assert without_runtimes(via_flags)[1][-2] == "3"


@pytest.mark.parametrize("argv", [["generate"], ["experiment", "--solver", "chain"]])
def test_a_sparsity_no_draw_can_serve_exits_2_before_any_draw(argv, monkeypatch, capsys):
    # at n = 40 a draw by rejection toward 2**40 positions would never finish
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw started")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    assert run_cli(*argv, "--n", "40", "--sparsity", str(2**40)) == 2
    err = capsys.readouterr().err
    assert err == "error: sparsity must satisfy 1 <= s <= 2**20, got 1099511627776\n"


def test_configuration_errors_exit_2(tmp_path, capsys):
    assert run_cli("generate", "--n", "3", "--sparsity", "99") == 2
    assert run_cli("experiment", "--sparsity", "2") == 2
    assert run_cli("measure", "--signal", str(tmp_path / "nope.json"),
                   "--patterns-file", str(tmp_path / "nope2.json")) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_qaoa_budget_exits_2_before_any_trial(monkeypatch, capsys):
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("isingpursuit.cli.run_batch", no_trials)
    monkeypatch.setattr("isingpursuit.cli.run_sweep", no_trials)
    assert run_cli("experiment", "--n", "4", "--sparsity", "1", "--solver", "qaoa",
                   "--max-evals", "0") == 2
    err = capsys.readouterr().err
    assert "max_evals must be >= 1, got 0" in err
    assert "NoneType" not in err


def test_degenerate_solver_choice_exits_2(tmp_path, monkeypatch, capsys):
    pat, marg = tmp_path / "pat.json", tmp_path / "y.json"
    pat.write_text(json.dumps({"n": 2, "patterns": [[{"bit": 1, "val": 0}]]}))
    marg.write_text("[1.0]")
    # index 0b10 has bit 1 set, so the only pattern misses it
    monkeypatch.setattr("isingpursuit.cli.make_solver",
                        lambda spec, seed: lambda ms, r: SolverOutcome(0b10, 1.0))
    assert run_cli("reconstruct", "--marginals", str(marg), "--patterns-file", str(pat)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: solver chose index 2 matching no pattern")
    assert "Traceback" not in err


def test_bad_params_list_is_a_usage_error(capsys):
    for bad in ("a,b", "", "5,"):
        with pytest.raises(SystemExit) as exc:
            run_cli("experiment", "--n", "4", "--sparsity", "1", "--params", bad)
        assert exc.value.code == 2


def test_measure_takes_no_seed(pipeline_files, capsys):
    # measure draws nothing at random; --seed used to be accepted and ignored
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli("measure", "--seed", "0", "--signal", pipeline_files["sig"],
                "--patterns-file", pipeline_files["pat"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err


def test_max_iterations_help_states_each_default():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    helps = {name: " ".join(sub.choices[name].format_help().split())
             for name in ("reconstruct", "experiment")}
    assert "MAX_ITERATIONS pursuit steps at most (default: 32)" in helps["reconstruct"]
    assert "(default: 4 * sparsity)" in helps["experiment"]
    assert ExperimentPlan(n=6, sparsity=3).effective_max_iterations == 4 * 3
    assert "sweep" not in helps["reconstruct"]


def test_solver_and_pattern_flags_mirror_the_library():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    experiment = {a.dest: a for a in sub.choices["experiment"]._actions}
    assert tuple(experiment["backend"].choices) == BACKENDS
    assert tuple(experiment["pattern_kind"].choices) == PATTERN_KINDS


def test_experiment_flags_default_to_the_plan_defaults(monkeypatch, capsys):
    plans = []

    def record(plan):
        plans.append(plan)
        return SuccessReport(plan.config_echo(), plan.config_id(),
                             (TrialRecord(0, 0, True, 1, 0.0),))

    monkeypatch.setattr("isingpursuit.cli.run_batch", record)
    assert run_cli("experiment", "--n", "6", "--sparsity", "2") == 0
    assert plans == [ExperimentPlan(n=6, sparsity=2)]
    defaults = inspect.signature(optimize).parameters
    assert (defaults["restarts"].default, defaults["max_evals"].default) == (
        SolverSpec.restarts, SolverSpec.max_evals)


def _report(plan):
    return SuccessReport(plan.config_echo(), plan.config_id(), (TrialRecord(0, 0, True, 1, 0.0),))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_and_out_get_the_same_bytes(fmt, tmp_path, monkeypatch, capsys):
    # print used to add a second newline to the CSV, which already ends in one
    monkeypatch.setattr("isingpursuit.cli.run_batch", _report)
    out = tmp_path / f"report.{fmt}"
    argv = ["experiment", "--n", "4", "--sparsity", "1", "--format", fmt]
    assert run_cli(*argv) == 0
    assert run_cli(*argv, "--out", str(out)) == 0
    assert capsys.readouterr().out == out.read_text()


@pytest.fixture
def pipeline_files(tmp_path):
    """A signal, its n=6 nearest-neighbour patterns and their marginals, as files."""
    files = {name: tmp_path / f"{name}.json" for name in ("sig", "pat", "y")}
    assert run_cli("generate", "--n", "6", "--sparsity", "1", "--seed", "4",
                   "--out", str(files["sig"])) == 0
    assert run_cli("patterns", "--n", "6", "--out", str(files["pat"])) == 0
    assert run_cli("measure", "--signal", str(files["sig"]), "--patterns-file",
                   str(files["pat"]), "--out", str(files["y"])) == 0
    return {name: str(path) for name, path in files.items()}


def _one_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "4", "--sparsity", "1", "--out", "{dir}"],
    ["measure", "--signal", "{dir}", "--patterns-file", "{pat}"],
    ["measure", "--signal", "{sig}", "--patterns-file", "{dir}"],
    ["reconstruct", "--marginals", "{dir}", "--patterns-file", "{pat}"],
    ["reconstruct", "--marginals", "{y}", "--patterns-file", "{dir}"],
    ["experiment", "--plan", "{dir}"],
], ids=["generate-out", "measure-signal", "measure-patterns", "reconstruct-marginals",
        "reconstruct-patterns", "experiment-plan"])
def test_a_directory_as_a_file_exits_2(argv, pipeline_files, tmp_path, capsys):
    # IsADirectoryError used to escape main as a traceback with exit 1
    capsys.readouterr()
    names = {**pipeline_files, "dir": str(tmp_path)}
    assert run_cli(*(arg.format(**names) for arg in argv)) == 2
    _one_error_line(capsys)


@pytest.mark.parametrize("file, data, field", [
    ("sig", {"n": 6.9, "spikes": [{"pos": 3, "val": 1.0}]}, "n"),
    ("sig", {"n": 6, "spikes": [{"pos": 3.7, "val": 1.0}]}, "pos"),
    ("sig", {"n": True, "spikes": [{"pos": 0, "val": 1.0}]}, "n"),
    ("pat", {"n": 6, "patterns": [[{"bit": 2.5, "val": 1}]]}, "bit"),
    ("pat", {"n": 6, "patterns": [[{"bit": 2, "val": 1.9}]]}, "val"),
])
def test_measure_rejects_non_integer_json_fields(file, data, field, pipeline_files, capsys):
    # int() used to truncate these to n=6, position 3 and the constraint (2, 1)
    with open(pipeline_files[file], "w") as f:
        json.dump(data, f)
    capsys.readouterr()
    assert run_cli("measure", "--signal", pipeline_files["sig"],
                   "--patterns-file", pipeline_files["pat"]) == 2
    assert f"{field} must be an integer" in _one_error_line(capsys)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("marginals", [[[0.1 * i] for i in range(20)], 0.5],
                         ids=["column", "scalar"])
def test_reconstruct_rejects_marginals_that_are_not_a_vector(
        backend, marginals, pipeline_files, capsys):
    # the column used to run under brute force and fail in numpy under chain and qaoa
    with open(pipeline_files["y"], "w") as f:
        json.dump(marginals, f)
    capsys.readouterr()
    assert run_cli("reconstruct", "--marginals", pipeline_files["y"],
                   "--patterns-file", pipeline_files["pat"], "--solver", backend) == 2
    assert "marginals must be a length-20 vector" in _one_error_line(capsys)


@pytest.mark.parametrize("backend", BACKENDS)
def test_reconstruct_rejects_boolean_marginals(backend, pipeline_files, capsys):
    # true used to be read as 1.0, and the run exited 0
    with open(pipeline_files["y"], "w") as f:
        json.dump([True] * 20, f)
    capsys.readouterr()
    assert run_cli("reconstruct", "--marginals", pipeline_files["y"],
                   "--patterns-file", pipeline_files["pat"], "--solver", backend) == 2
    assert "marginal must be a number, got True" in _one_error_line(capsys)


@pytest.mark.parametrize("flags, spec", [
    ([], SolverSpec()),
    (["--params", "9"], SolverSpec(param_count=9)),
    (["--solver", "qaoa", "--restarts", "1", "--max-evals", "7", "--shots", "8"],
     SolverSpec("qaoa", restarts=1, max_evals=7, shots=8)),
])
def test_reconstruct_solver_flags_default_to_the_spec_defaults(flags, spec, pipeline_files,
                                                               monkeypatch):
    specs = []

    def record(spec_, seed):
        specs.append(spec_)
        return make_solver(SolverSpec("chain"), seed)

    monkeypatch.setattr("isingpursuit.cli.make_solver", record)
    assert run_cli("reconstruct", "--marginals", pipeline_files["y"],
                   "--patterns-file", pipeline_files["pat"], *flags) == 0
    assert specs == [spec]


@pytest.mark.parametrize("argv", [
    ["generate", "--n", "6", "--sparsity", "1", "--seed", "-1"],
    ["patterns", "--n", "6", "--patterns", "quad", "--seed", "-1"],
    ["reconstruct", "--marginals", "{y}", "--patterns-file", "{pat}", "--solver", "qaoa",
     "--seed", "-1"],
], ids=["generate", "patterns-quad", "reconstruct-qaoa"])
def test_a_negative_seed_exits_2_naming_the_seed(argv, pipeline_files, capsys):
    # each used to print numpy's "expected non-negative integer", which names no flag
    capsys.readouterr()
    assert run_cli(*(arg.format(**pipeline_files) for arg in argv)) == 2
    assert _one_error_line(capsys) == "error: seed must be >= 0, got -1\n"


def test_reconstruct_rejects_a_nan_tolerance(pipeline_files, capsys):
    # nan used to exit 0, and the pursuit never stopped on the tolerance
    capsys.readouterr()
    assert run_cli("reconstruct", "--marginals", pipeline_files["y"],
                   "--patterns-file", pipeline_files["pat"], "--solver", "chain",
                   "--tolerance", "nan") == 2
    assert _one_error_line(capsys) == "error: residual_tolerance must be >= 0, got nan\n"


def test_reconstruct_rejects_a_params_list_before_reading_any_file(tmp_path, capsys):
    # a list used to run its first count silently
    missing = str(tmp_path / "missing.json")
    assert run_cli("reconstruct", "--marginals", missing, "--patterns-file", missing,
                   "--params", "5,9") == 2
    assert "--params" in _one_error_line(capsys)


@pytest.mark.parametrize("data, name", [
    ("abc", "plan"),
    ([6, 2], "plan"),
    (None, "plan"),
    ({"n": 6, "sparsity": 2, "solver": "qaoa"}, "plan solver"),
    ({"n": 6, "sparsity": 2, "solver": ["qaoa"]}, "plan solver"),
])
def test_experiment_plan_and_its_solver_must_be_json_objects(data, name, tmp_path, capsys):
    # `raw.pop` and `SolverSpec(**...)` used to escape main as tracebacks
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(data))
    assert run_cli("experiment", "--plan", str(path)) == 2
    assert f"{name} must be a JSON object, got " in _one_error_line(capsys)


@pytest.mark.parametrize("fields, message", [
    ({"parameter_counts": [True]}, "parameter_counts must be an integer, got True"),
    ({"parameter_counts": {"a": 1}}, "parameter_counts must be a JSON list, got dict"),
    ({"solver": {"backend": "qaoa", "shots": "8"}}, "shots must be an integer, got '8'"),
    ({"max_iterations": 2.5}, "max_iterations must be an integer, got 2.5"),
    ({"time_limit_s": "5"}, "time_limit_s must be a number, got '5'"),
    ({"trials": 2}, "plan has no field 'trials'; accepted: n, sparsity, trial_count, "),
    ({"solver": {"backend": "qaoa", "shot": 8}},
     "plan solver has no field 'shot'; accepted: backend, param_count, restarts, max_evals, "
     "shots\n"),
], ids=["bool-count", "counts-object", "string-shots", "fractional-iterations", "string-limit",
        "misspelt-plan-field", "misspelt-solver-field"])
def test_experiment_plan_fields_must_be_json_numbers(fields, message, tmp_path, monkeypatch,
                                                     capsys):
    # [true] used to run to exit 0 as qaoa-nn-paramsTrue, {"a": 1} printed `error: 0`,
    # and "8" and 2.5 failed inside the solver with messages naming no field; a
    # misspelt key ended in "__init__() got an unexpected keyword argument"
    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr("isingpursuit.cli.run_batch", no_trials)
    monkeypatch.setattr("isingpursuit.cli.run_sweep", no_trials)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"n": 4, "sparsity": 1, "trial_count": 1, **fields}))
    assert run_cli("experiment", "--plan", str(path)) == 2
    assert message in _one_error_line(capsys)


def _annotated(kind: str) -> list[tuple[str | None, str]]:
    """(table, name) of every plan field, and every solver field (table "solver"),
    whose annotation names kind: "int", "float", "None", or "" for all of them."""
    return [(table, f.name) for table, cls in ((None, ExperimentPlan), ("solver", SolverSpec))
            for f in dataclass_fields(cls) if not kind or kind in f.type.split(" | ")]


def _plan_file_with(table, name, value, tmp_path) -> str:
    plan = {"n": 4, "sparsity": 1, "trial_count": 1}
    plan.update({"solver": {name: value}} if table else {name: value})
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan))
    return str(path)


@pytest.mark.parametrize("table, name", _annotated("int"))
@pytest.mark.parametrize("value", [True, "8", 2.5])
def test_every_int_field_of_a_plan_file_takes_json_integers_only(
        table, name, value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("isingpursuit.cli.run_batch", _report)
    assert run_cli("experiment", "--plan", _plan_file_with(table, name, value, tmp_path)) == 2
    assert _one_error_line(capsys) == f"error: {name} must be an integer, got {value!r}\n"


@pytest.mark.parametrize("table, name", _annotated("float"))
@pytest.mark.parametrize("value", [True, "5"])
def test_every_float_field_of_a_plan_file_takes_json_numbers_only(
        table, name, value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("isingpursuit.cli.run_batch", _report)
    assert run_cli("experiment", "--plan", _plan_file_with(table, name, value, tmp_path)) == 2
    assert _one_error_line(capsys) == f"error: {name} must be a number, got {value!r}\n"


@pytest.mark.parametrize("table, name", _annotated(""))
def test_a_plan_file_takes_null_only_where_the_field_allows_none(
        table, name, tmp_path, monkeypatch, capsys):
    plans = []

    def record(plan):
        plans.append(plan)
        return _report(plan)

    monkeypatch.setattr("isingpursuit.cli.run_batch", record)
    status = run_cli("experiment", "--plan", _plan_file_with(table, name, None, tmp_path))
    if (table, name) in _annotated("None"):
        assert status == 0
        assert getattr(plans[0], name) is None
    else:
        assert status == 2
        assert f"{name} must be " in _one_error_line(capsys)
        assert plans == []


def test_a_plan_file_runs_an_infinite_time_limit_as_the_python_plan(tmp_path, capsys):
    # "time_limit_s": Infinity used to be refused, though ExperimentPlan takes math.inf
    path = tmp_path / "plan.json"
    path.write_text('{"n": 4, "sparsity": 1, "trial_count": 2, "time_limit_s": Infinity}')
    assert run_cli("experiment", "--plan", str(path), "--format", "json") == 0
    plan = ExperimentPlan(n=4, sparsity=1, trial_count=2, time_limit_s=math.inf)
    reports = [json.loads(capsys.readouterr().out)[0],
               json.loads(reports_to_json([run_batch(plan)]))[0]]
    for report in reports:
        for trial in report["trials"]:
            trial["runtime_s"] = 0.0
    assert reports[0] == reports[1]
    assert reports[0]["config"]["time_limit_s"] == math.inf


def test_experiment_plan_reads_integral_floats_as_integers(tmp_path, capsys):
    # as measure reads "n": 4.0; 4.0 used to fail in a shift and [5.0] to run as params5.0
    reports = []
    for n, sparsity, count in ((4, 1, 5), (4.0, 1.0, 5.0)):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "n": n, "sparsity": sparsity, "trial_count": 2, "parameter_counts": [count],
            "solver": {"backend": "qaoa", "restarts": 1.0, "max_evals": 10, "shots": 16},
        }))
        assert run_cli("experiment", "--plan", str(path), "--format", "json") == 0
        (report,) = json.loads(capsys.readouterr().out)
        for trial in report["trials"]:
            trial["runtime_s"] = 0.0
        reports.append(report)
    assert reports[0] == reports[1]
    assert reports[1]["config_id"] == "qaoa-nn-params5"


def test_reconstruct_qaoa_matches_the_library_path(tmp_path, capsys):
    sig, pat, marg = tmp_path / "sig.json", tmp_path / "pat.json", tmp_path / "y.json"
    assert run_cli("generate", "--n", "5", "--sparsity", "2", "--seed", "8",
                   "--out", str(sig)) == 0
    assert run_cli("patterns", "--n", "5", "--patterns", "quad", "--seed", "8",
                   "--out", str(pat)) == 0
    assert run_cli("measure", "--signal", str(sig), "--patterns-file", str(pat),
                   "--out", str(marg)) == 0
    assert run_cli("reconstruct", "--marginals", str(marg), "--patterns-file", str(pat),
                   "--solver", "qaoa", "--params", "5", "--restarts", "1", "--max-evals", "30",
                   "--shots", "64", "--max-iterations", "4", "--seed", "13") == 0
    via_cli = capsys.readouterr().out.strip()
    ms = MeasurementSet.from_json(pat.read_text())
    y = np.array(json.loads(marg.read_text()))
    solver = make_solver(SolverSpec("qaoa", 5, restarts=1, max_evals=30, shots=64), 13)
    result = matching_pursuit(y, ms, PursuitConfig(solver=solver, max_iterations=4))
    assert via_cli == result.to_json()


def test_index_width_beyond_the_masks_exits_2(tmp_path, capsys):
    sig, pat = tmp_path / "sig.json", tmp_path / "pat.json"
    sig.write_text(json.dumps({"n": 64, "spikes": [{"pos": 2**63, "val": 1.0}]}))
    pat.write_text(json.dumps({"n": 64, "patterns": [[{"bit": 1, "val": 0}]]}))
    assert run_cli("measure", "--signal", str(sig), "--patterns-file", str(pat)) == 2
    assert run_cli("patterns", "--n", "64") == 2
    assert "63" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ["brute", "qaoa"])
def test_reconstruct_past_the_dense_cap_exits_2(backend, tmp_path, capsys):
    files = {name: str(tmp_path / f"{name}.json") for name in ("sig", "pat", "y")}
    assert run_cli("generate", "--n", "21", "--sparsity", "1", "--seed", "0",
                   "--out", files["sig"]) == 0
    assert run_cli("patterns", "--n", "21", "--out", files["pat"]) == 0
    assert run_cli("measure", "--signal", files["sig"], "--patterns-file", files["pat"],
                   "--out", files["y"]) == 0
    assert run_cli("reconstruct", "--marginals", files["y"], "--patterns-file", files["pat"],
                   "--solver", backend) == 2
    assert "n=21 exceeds 20, the cap on arrays of 2**n entries" in _one_error_line(capsys)


def test_generate_beyond_the_index_width_exits_2(capsys):
    assert run_cli("generate", "--n", "64", "--sparsity", "1") == 2
    err = capsys.readouterr().err
    assert "exceeds 63" in err
    assert "out of bounds" not in err


def test_console_entry_point_exists():
    proc = subprocess.run(
        [sys.executable, "-m", "isingpursuit", "generate", "--n", "3",
         "--sparsity", "1", "--seed", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["n"] == 3
