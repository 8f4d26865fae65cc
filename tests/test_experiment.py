import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import binomtest

from isingpursuit import measurement
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
    wilson_interval,
)
from isingpursuit.measurement import Pattern


def tiny_plan(**kwargs):
    kwargs.setdefault("n", 4)
    kwargs.setdefault("sparsity", 1)
    kwargs.setdefault("trial_count", 6)
    kwargs.setdefault("solver", SolverSpec(backend="brute"))
    return ExperimentPlan(**kwargs)


def test_solver_spec_validation():
    with pytest.raises(ValueError, match="backend"):
        SolverSpec(backend="annealer")


def test_parameter_count_maps_to_depth():
    assert SolverSpec(param_count=5).depth == 3
    assert SolverSpec(param_count=4).depth == 2
    assert SolverSpec(param_count=21).depth == 11


def test_plan_validation():
    with pytest.raises(ValueError, match="trial_count"):
        tiny_plan(trial_count=0)
    with pytest.raises(ValueError, match="pattern_kind"):
        tiny_plan(pattern_kind="pairs")


@pytest.mark.parametrize("n, sparsity, match", [
    (4, 0, "sparsity must satisfy 1 <= s <= 2\\*\\*4, got 0"),
    (4, 17, "sparsity must satisfy 1 <= s <= 2\\*\\*4, got 17"),
    (40, 2**40, "sparsity must satisfy 1 <= s <= 2\\*\\*20, got 1099511627776"),
    (21, 2**20 + 1, "sparsity must satisfy 1 <= s <= 2\\*\\*20, got 1048577"),
    (0, 1, "bit count must be >= 1, got 0"),
    (64, 1, "n=64 exceeds 63"),
])
def test_plan_rejects_a_signal_it_cannot_draw(n, sparsity, match):
    # sparsity 0 used to pass, with no iterations, until a trial drew its signal
    with pytest.raises(ValueError, match=match):
        tiny_plan(n=n, sparsity=sparsity)


def test_plan_accepts_the_edges_of_the_signal_range():
    assert tiny_plan(n=4, sparsity=16).sparsity == 16
    assert tiny_plan(n=40, sparsity=2**20, solver=SolverSpec("chain")).sparsity == 2**20
    assert tiny_plan(n=63, sparsity=1, pattern_kind="quad", solver=SolverSpec("chain")).n == 63


@pytest.mark.parametrize("budget", [0, -3])
def test_plan_rejects_an_iteration_budget_below_one(budget):
    with pytest.raises(ValueError, match=f"max_iterations must be >= 1, got {budget}"):
        tiny_plan(max_iterations=budget)
    assert tiny_plan(max_iterations=1).effective_max_iterations == 1


@pytest.mark.parametrize("workers", [0, -2])
def test_plan_rejects_fewer_than_one_worker(workers):
    # workers < 1 used to run serially without a word
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        tiny_plan(workers=workers)


@pytest.mark.parametrize("seed", [-1, -2**62])
def test_plan_rejects_a_negative_master_seed(seed):
    # such a plan used to build, and run_batch raised numpy's "expected
    # non-negative integer", which named no field
    with pytest.raises(ValueError, match=f"^master_seed must be >= 0, got {seed}$"):
        tiny_plan(master_seed=seed)
    assert tiny_plan(master_seed=0).master_seed == 0


@pytest.mark.parametrize("limit", [float("nan"), -1.0])
def test_plan_rejects_a_time_limit_that_cannot_cap(limit):
    # a nan limit never caps a trial, a negative one caps every trial
    with pytest.raises(ValueError, match="time_limit_s must be >= 0"):
        tiny_plan(time_limit_s=limit)


def test_plan_accepts_zero_and_infinite_time_limits():
    assert tiny_plan(time_limit_s=0.0).time_limit_s == 0.0
    assert tiny_plan(time_limit_s=float("inf")).time_limit_s == float("inf")


@pytest.mark.parametrize("limit", [True, np.True_, "5", None],
                         ids=["bool", "numpy-bool", "str", "None"])
def test_plan_rejects_a_time_limit_that_is_not_a_number(limit):
    # True used to run with a 1 s limit and echo true; "5" raised a TypeError
    with pytest.raises(ValueError, match="^time_limit_s must be a number, got "):
        tiny_plan(time_limit_s=limit)


@pytest.mark.parametrize("solver", [{"backend": "qaoa"}, "qaoa", None],
                         ids=["dict", "str", "None"])
def test_plan_rejects_a_solver_that_is_not_a_solver_spec(solver):
    # a dict used to raise AttributeError: 'dict' object has no attribute 'backend'
    with pytest.raises(ValueError, match="^solver must be a SolverSpec, got "):
        tiny_plan(solver=solver)


@pytest.mark.parametrize("limit", [5, np.int64(5), np.float32(5.0), np.float64(5.0)],
                         ids=["int", "int64", "float32", "float64"])
def test_plan_keeps_a_numeric_time_limit_as_a_float(limit):
    plan = tiny_plan(time_limit_s=limit)
    assert type(plan.time_limit_s) is float and plan.time_limit_s == 5.0
    assert plan == tiny_plan(time_limit_s=5.0)


def test_default_quadruplet_budget_tracks_pair_census():
    assert tiny_plan(n=6, sparsity=3).effective_quadruplets == 3
    assert tiny_plan(n=5).effective_quadruplets == 2
    assert tiny_plan(n=4).effective_quadruplets == 1  # C(4,4) caps the draw
    assert tiny_plan(n=4, quadruplets=1).effective_quadruplets == 1


@pytest.mark.parametrize("n, quadruplets, match", [
    (6, 16, "cannot draw 16 distinct quadruplets from C\\(6,4\\) = 15"),
    (6, 0, "quadruplet count must be >= 1, got 0"),
    (6, -1, "quadruplet count must be >= 1, got -1"),
    (3, None, "quadruplet patterns need n >= 4, got 3"),
])
def test_plan_rejects_a_quadruplet_count_no_draw_can_meet(n, quadruplets, match):
    # such a plan used to fail inside its first trial, after a sweep's baseline had run
    with pytest.raises(ValueError, match=match):
        tiny_plan(n=n, pattern_kind="quad", quadruplets=quadruplets)
    assert tiny_plan(n=n, quadruplets=quadruplets).pattern_kind == "nn"


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


def test_n10_quad_ramp_verdicts_are_pinned_beside_brute_force():
    """The README's n = 10 quad plan on 20 trial seeds that no grid choice
    read.  64 shots draw 6% of the 1,024 indices, so the circuit, not the
    shot count, finds each support (at n = 6, 1,024 shots cover them all):
    a ramp with its mix or gamma signs flipped, b = 0, or gammas and betas
    swapped fails 19 or 20 of these trials.  -H's mirrored rows are checked
    bit for bit in test_fused_targets.py."""
    verdicts = {}
    for backend in ("qaoa", "brute"):
        plan = ExperimentPlan(n=10, sparsity=3, pattern_kind="quad", quadruplets=10,
                              solver=SolverSpec(backend, 5, shots=64), max_iterations=3)
        verdicts[backend] = "".join(str(int(run_single(plan, seed)[2]))
                                    for seed in range(300000, 300020))
    assert verdicts == {"qaoa": "1" * 20, "brute": "1" * 20}


def test_no_trial_makes_a_pattern(monkeypatch):
    # a trial reads its set's masks and wants, never its patterns; every
    # quadruplet trial builds a fresh set, and the nearest-neighbour cache
    # is emptied so that the chain trial builds one too
    made = []
    check = Pattern.__post_init__
    monkeypatch.setattr(Pattern, "__post_init__", lambda p: made.append(p) or check(p))
    monkeypatch.setattr(measurement, "_NEAREST_NEIGHBOR_SETS", {})
    for backend, kind in (("qaoa", "quad"), ("brute", "quad"), ("chain", "nn")):
        plan = ExperimentPlan(n=10, sparsity=3, pattern_kind=kind, quadruplets=10,
                              solver=SolverSpec(backend, 5, shots=64), max_iterations=3)
        assert run_single(plan, 300000)[2]
    assert made == []


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


@pytest.mark.parametrize("workers", [1, 2])
def test_run_batch_refuses_chain_on_quad_patterns_before_any_trial(workers, monkeypatch):
    # each trial used to raise ChainStructureError, after the pool had started
    def no_work(*args, **kwargs):
        raise AssertionError("a worker pool or a trial started")

    monkeypatch.setattr("isingpursuit.experiment.ProcessPoolExecutor", no_work)
    monkeypatch.setattr("isingpursuit.experiment._run_trial", no_work)
    plan = tiny_plan(n=6, pattern_kind="quad", solver=SolverSpec("chain"), workers=workers)
    with pytest.raises(ValueError, match="the chain solver needs nn patterns, got 'quad'"):
        run_batch(plan)


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
    successes = sum(t.success for t in reports[0].trials)
    assert (data[0]["rate_low"], data[0]["rate_high"]) == wilson_interval(successes, 2)
    assert len(data[0]["trials"]) == 2
    assert data[0]["config"]["n"] == 4


@given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_wilson_interval_is_scipys(case):
    k, n = case
    low, high = wilson_interval(k, n)
    ci = binomtest(k, n).proportion_ci(method="wilson")
    assert low == pytest.approx(ci.low, rel=1e-12, abs=1e-15)
    assert high == pytest.approx(ci.high, rel=1e-12, abs=1e-15)
    assert 0.0 <= low <= k / n <= high <= 1.0


def test_worker_pool_matches_serial_execution():
    plan = tiny_plan(trial_count=4)
    serial = run_batch(plan)
    parallel = run_batch(tiny_plan(trial_count=4, workers=2))
    assert serial.trials != ()
    assert [(t.trial, t.seed, t.success) for t in serial.trials] == [
        (t.trial, t.seed, t.success) for t in parallel.trials
    ]


def test_run_batch_asks_for_no_more_workers_than_trials(monkeypatch):
    # the fork start method starts every requested worker at the first submit
    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("isingpursuit.experiment.ProcessPoolExecutor", SerialPool)
    report = run_batch(tiny_plan(trial_count=3, workers=64))
    assert asked == [3]
    assert [t.trial for t in report.trials] == [0, 1, 2]
