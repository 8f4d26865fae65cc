import json
import subprocess
import sys

import numpy as np
import pytest

from isingpursuit.cli import build_parser, main
from isingpursuit.experiment import BACKENDS, PATTERN_KINDS, SolverSpec, make_solver
from isingpursuit.measurement import MeasurementSet
from isingpursuit.pursuit import PursuitConfig, matching_pursuit
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


def test_solver_and_pattern_flags_mirror_the_library():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    experiment = {a.dest: a for a in sub.choices["experiment"]._actions}
    assert tuple(experiment["solver"].choices) == BACKENDS
    assert tuple(experiment["patterns"].choices) == PATTERN_KINDS
    args = build_parser().parse_args(["experiment"])
    spec = SolverSpec()
    assert (args.solver, args.params, args.restarts, args.max_evals, args.shots) == (
        spec.backend, [spec.param_count], spec.restarts, spec.max_evals, spec.shots,
    )


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
