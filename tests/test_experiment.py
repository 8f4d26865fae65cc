import json

import pytest

from isingpursuit.experiment import (
    CSV_HEADER,
    ExperimentPlan,
    SolverSpec,
    TrialTimeout,
    make_patterns,
    reports_to_csv,
    reports_to_json,
    run_batch,
    run_single,
    run_sweep,
    trial_seeds,
)


def tiny_plan(**kwargs):
    kwargs.setdefault("n", 4)
    kwargs.setdefault("sparsity", 1)
    kwargs.setdefault("trial_count", 6)
    kwargs.setdefault("solver", SolverSpec(backend="brute"))
    return ExperimentPlan(**kwargs)


def test_solver_spec_validation():
    with pytest.raises(ValueError, match="backend"):
        SolverSpec(backend="annealer")
    with pytest.raises(ValueError, match="param_count"):
        SolverSpec(param_count=0)


@pytest.mark.parametrize("budget", ["restarts", "max_evals", "shots"])
def test_solver_spec_rejects_an_empty_qaoa_budget(budget):
    for bad in (0, -1):
        with pytest.raises(ValueError, match=f"{budget} must be >= 1"):
            SolverSpec(backend="qaoa", **{budget: bad})


def test_parameter_count_maps_to_depth():
    assert SolverSpec(param_count=5).depth == 3
    assert SolverSpec(param_count=4).depth == 2
    assert SolverSpec(param_count=21).depth == 11


def test_plan_validation():
    with pytest.raises(ValueError, match="trial_count"):
        tiny_plan(trial_count=0)
    with pytest.raises(ValueError, match="pattern_kind"):
        tiny_plan(pattern_kind="pairs")


@pytest.mark.parametrize("workers", [0, -2])
def test_plan_rejects_fewer_than_one_worker(workers):
    # workers < 1 used to run serially without a word
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        tiny_plan(workers=workers)


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_plan_rejects_a_time_limit_that_cannot_cap(limit):
    # a nan limit never caps a trial, a negative one caps every trial
    with pytest.raises(ValueError, match="time_limit_s must be >= 0"):
        tiny_plan(time_limit_s=limit)


def test_plan_accepts_zero_and_infinite_time_limits():
    assert tiny_plan(time_limit_s=0.0).time_limit_s == 0.0
    assert tiny_plan(time_limit_s=float("inf")).time_limit_s == float("inf")


def test_default_quadruplet_budget_tracks_pair_census():
    assert tiny_plan(n=6, sparsity=3).effective_quadruplets == 3
    assert tiny_plan(n=5).effective_quadruplets == 2
    assert tiny_plan(n=4).effective_quadruplets == 1  # C(4,4) caps the draw
    assert tiny_plan(n=4, quadruplets=1).effective_quadruplets == 1


def test_make_patterns_shares_the_plan_default():
    for n in (4, 5, 6, 9):
        plan = tiny_plan(n=n, pattern_kind="quad")
        assert len(make_patterns("quad", n, None, seed=1)) == 16 * plan.effective_quadruplets
    assert len(make_patterns("nn", 6, None, seed=None)) == 20
    with pytest.raises(ValueError, match="pattern kind"):
        make_patterns("pairs", 6, None, seed=None)


def test_trial_seeds_depend_only_on_master_seed():
    a = tiny_plan(master_seed=5, solver=SolverSpec(backend="brute"))
    b = tiny_plan(master_seed=5, solver=SolverSpec(backend="chain"))
    assert trial_seeds(a) == trial_seeds(b)
    assert trial_seeds(a) != trial_seeds(tiny_plan(master_seed=6))


def test_run_single_is_reproducible():
    plan = tiny_plan(n=6, sparsity=2)
    seed = trial_seeds(plan)[0]
    sig_a, res_a, ok_a = run_single(plan, seed)
    sig_b, res_b, ok_b = run_single(plan, seed)
    assert sig_a == sig_b
    assert res_a.to_json() == res_b.to_json()
    assert ok_a == ok_b


def test_easy_regime_succeeds_with_both_exact_solvers():
    for backend in ("brute", "chain"):
        plan = tiny_plan(n=6, sparsity=2, solver=SolverSpec(backend=backend))
        _, _, ok = run_single(plan, trial_seeds(plan)[0])
        assert ok


def test_solver_choice_does_not_change_the_instance():
    brute = tiny_plan(n=6, sparsity=2, solver=SolverSpec(backend="brute"))
    chain = tiny_plan(n=6, sparsity=2, solver=SolverSpec(backend="chain"))
    for seed in trial_seeds(brute)[:3]:
        assert run_single(brute, seed)[0] == run_single(chain, seed)[0]


def test_run_batch_shapes_and_rate():
    report = run_batch(tiny_plan())
    assert len(report.trials) == 6
    assert report.rate == 1.0  # single spikes under exact solving always land
    assert report.config["solver"]["backend"] == "brute"
    assert report.config_id == "brute-nn"


def test_time_limit_caps_trials_as_failures():
    plan = tiny_plan(time_limit_s=0.0)
    with pytest.raises(TrialTimeout):
        run_single(plan, trial_seeds(plan)[0])
    report = run_batch(plan)
    assert all(t.capped and not t.success for t in report.trials)
    assert report.rate == 0.0


def test_run_sweep_prepends_chain_baseline_and_pairs_trials():
    plan = tiny_plan(
        n=4, sparsity=1, trial_count=4, pattern_kind="quad",
        solver=SolverSpec(backend="qaoa", restarts=1, max_evals=25, shots=64),
    )
    reports = run_sweep(plan, [2, 4])
    assert [r.config_id for r in reports] == [
        "chain-nn", "qaoa-quad-params2", "qaoa-quad-params4",
    ]
    seeds = [[t.seed for t in r.trials] for r in reports]
    assert seeds[0] == seeds[1] == seeds[2]


def test_run_sweep_validates_counts():
    with pytest.raises(ValueError):
        run_sweep(tiny_plan(), [])
    with pytest.raises(ValueError):
        run_sweep(tiny_plan(), [3, 0])


def test_exact_search_dominates_sampled_search_here():
    brute = run_batch(
        tiny_plan(n=4, trial_count=8, pattern_kind="quad", solver=SolverSpec("brute"))
    )
    qaoa = run_batch(
        tiny_plan(
            n=4, trial_count=8, pattern_kind="quad",
            solver=SolverSpec("qaoa", param_count=2, restarts=1, max_evals=25, shots=32),
        )
    )
    assert brute.rate >= qaoa.rate


def test_csv_schema():
    reports = [run_batch(tiny_plan(trial_count=3))]
    lines = reports_to_csv(reports).strip().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 3 + 1
    first = lines[1].split(",")
    assert first[:5] == ["brute-nn", "brute", "nn", "", "0"]
    aggregate = lines[-1].split(",")
    assert aggregate[4] == "aggregate"
    assert float(aggregate[6]) == reports[0].rate


def test_json_report_round_trips():
    reports = [run_batch(tiny_plan(trial_count=2))]
    data = json.loads(reports_to_json(reports))
    assert data[0]["rate"] == reports[0].rate
    assert len(data[0]["trials"]) == 2
    assert data[0]["config"]["n"] == 4


def test_worker_pool_matches_serial_execution():
    plan = tiny_plan(trial_count=4)
    serial = run_batch(plan)
    parallel = run_batch(tiny_plan(trial_count=4, workers=2))
    assert serial.trials != ()
    assert [(t.trial, t.seed, t.success) for t in serial.trials] == [
        (t.trial, t.seed, t.success) for t in parallel.trials
    ]
