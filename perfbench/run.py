"""Benchmark of the isingpursuit reconstruction pipeline.

    python3 perfbench/run.py --workload sweep-quad-n6 --seed 1 --seconds 30 --trace 0

Runs one workload (see workloads.py and WORKLOADS.md) in this single
process, one trial at a time (closed loop, workers=1), on trial seeds
derived from --seed.  --seconds sizes the run: the workload measures a
fixed number of rounds that takes about that long on the reference box.

Other tenants of a shared host slow it by up to 1.8x for minutes at a time.
So every time reported is scaled to the reference host speed: a fixed
probe kernel runs between trials, and a trial's time is multiplied by
PROBE_REF_S over the mean of the probes before and after it.  The unscaled
wall-clock figures are printed on `# wall clock, unscaled` lines.

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 it reports per-layer metrics from a traced pass over the same
trials as an untraced pass.  Both modes check outputs (paired exact
solvers agree, an untimed rerun reproduces verdicts and counts, residuals
match the trace, no solver beats the brute-force maximum, verdicts repeat
across runs of the same code and seed); every trial that fails a check
counts as failed.  Exits 2 when the package source is not next to it.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# Pinned before numpy loads, so BLAS and OpenMP pools start with one thread.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
LEDGER_DIR = ROOT / ".bench_build" / "perfbench-ledger"
SETUP_REPEATS = 5
RECHECK_TRIALS = 2  # per arm, rerun untimed after the measured pass
COUNT_KEYS = ("evaluations", "candidates", "terms")
REPEATED = ("success", "iterations", "counts")  # must repeat exactly for a trial
BRUTE_CHECK_MAX_N = 16
REL_TOL = 1e-9
PROBE_REF_S = 4.0e-4  # the probe's fastest time on the reference box
PROBE_REPEATS = 3

# Inputs of the probe kernel, made once.
_PROBE_STATE = np.linspace(0.0, 1.0, 64) + 0.5j
_PROBE_INDEX = np.arange(1 << 14, dtype=np.int64)


def host_probe() -> float:
    """Fastest of PROBE_REPEATS runs of a fixed kernel that mixes the three
    kinds of work in a trial: chains of numpy calls on a 64-entry complex
    state, masked passes over a 16K index array, and a Python integer loop."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        psi = _PROBE_STATE
        for _ in range(120):
            psi = psi * 0.5 + psi[::-1] * 0.5j
        for mask in (3, 5, 9, 17):
            np.count_nonzero((_PROBE_INDEX & mask) == 1)
        total = 0
        for i in range(2000):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args()


def main() -> int:
    args = parse_args()
    if not (SRC / "isingpursuit" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isingpursuit  # noqa: F401  (timed as part of set-up)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    setup_wall, setup_s = bench.set_up(import_s)
    metrics = bench.traced() if args.trace else bench.measured()
    bench.recheck()
    bench.check_ledger()
    failed = len(bench.failed)
    bench.notes.append(f"failed_frac = {failed / bench.attempted:.6g} "
                       f"({failed} of {bench.attempted} attempted trials)")
    if not args.trace:
        metrics["passed_frac"] = (1.0 - failed / bench.attempted, "ratio")
        metrics["setup_s"] = (setup_s, "s")
        bench.notes.append(f"wall clock, unscaled: setup_s = {setup_wall:.6g} s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    print("# environment " + json.dumps(environment()))
    print("# workload " + json.dumps({"name": bench.workload.name, "seed": bench.seed,
                                      "rounds": bench.rounds,
                                      "arms": [a.describe() for a in bench.workload.arms]}))
    for note in bench.notes:
        print("# " + note)
    for err in bench.errors:
        print("# FAILED " + err)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0 and not bench.errors,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


class Bench:
    def __init__(self, workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.rounds = workload.rounds(seconds)
        self.attempted = 0
        self.failed: set[str] = set()
        self.errors: list[str] = []
        self.notes: list[str] = []
        self.records: dict[str, dict] = {}  # fingerprints of every trial run, by key

    # ---- set-up -------------------------------------------------------------

    def set_up(self, import_s: float) -> tuple[float, float]:
        """Set-up time, unscaled and scaled: the import time plus the median of
        SETUP_REPEATS set-ups, each the trial schedule and one warm-up trial of
        the first arm (pattern set, signal, marginals and pursuit)."""
        probes = [host_probe()]
        walls, scaled = [], []
        arm = self.workload.arms[0]
        for rep in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.schedule = self._schedule()
            # a fresh input per repeat, so a cache filled by one set-up cannot hide the next
            warm_seed = int(np.random.default_rng([self.seed, rep]).integers(0, 2**62))
            _, _, _, err = run_trial(arm.plan, warm_seed)
            if err:
                self.errors.append(f"warm-up {arm.name}: {err}")
            walls.append(time.perf_counter() - start)
            probes.append(host_probe())
            scaled.append(walls[-1] * PROBE_REF_S / ((probes[-2] + probes[-1]) / 2))
        # the import ran before the first probe; scale it by the set-up's median speed
        import_scaled = import_s * PROBE_REF_S / statistics.median(probes)
        return import_s + statistics.median(walls), import_scaled + statistics.median(scaled)

    def _schedule(self) -> list[list[int]]:
        from isingpursuit.experiment import trial_seeds

        per_round = self.workload.seeds_per_round
        plan = replace(self.workload.arms[0].plan, master_seed=self.seed,
                       trial_count=self.rounds * per_round)
        seeds = trial_seeds(plan)
        return [seeds[t * per_round:(t + 1) * per_round] for t in range(self.rounds)]

    # ---- running trials -----------------------------------------------------

    def run(self, trials, tracer=None) -> dict[str, dict]:
        """Run (arm, round, seed slot) trials in order; a record per trial, keyed
        by arm, round and slot, with its wall time and its time scaled to the
        reference host speed.  With a tracer, records carry the trial's counts."""
        records = {}
        probe = host_probe()
        for arm, t, slot in trials:
            key = f"{arm.name}/{t}/{slot}"
            if tracer is not None:
                tracer.current = key
                before = [tracer.counts[k] for k in COUNT_KEYS]
            ok, iterations, seconds, err = run_trial(arm.plan, self.schedule[t][slot])
            probe_after = host_probe()
            scale = PROBE_REF_S / ((probe + probe_after) / 2)
            probe = probe_after
            rec = {"arm": arm.name, "success": ok, "iterations": iterations,
                   "wall_s": seconds, "seconds": seconds * scale}
            if tracer is not None:
                rec["counts"] = [tracer.counts[k] - b for k, b in zip(COUNT_KEYS, before)]
            if err:
                self.fail(key, err)
            records[key] = rec
        return records

    def fail(self, key: str, reason: str) -> None:
        self.failed.add(key)
        self.errors.append(f"{key}: {reason}")

    def timed(self, rounds, tracer=None) -> dict[str, dict]:
        """Every arm's trials of the given rounds, in order."""
        trials = [(arm, t, slot) for t in rounds for arm in self.workload.arms
                  for slot in range(arm.offset, arm.offset + arm.per_round)]
        records = self.run(trials, tracer)
        self.attempted += len(records)
        self.reconcile(records, "timed pass")
        return records

    # ---- checks -------------------------------------------------------------

    def reconcile(self, records: dict[str, dict], label: str) -> None:
        """Verdicts, iteration counts and (when traced) work counts of a trial
        must repeat exactly wherever the same trial was run before."""
        for key, rec in records.items():
            earlier = self.records.setdefault(key, {})
            diff = repeat_mismatch(earlier, rec)
            if diff:
                self.fail(key, f"{label} does not repeat an earlier run of the trial: {diff}")
            earlier.update(rec)

    def check_agreement(self, records: dict[str, dict]) -> None:
        if not self.workload.agree:
            return
        first, second = self.workload.agree
        for key, rec in records.items():
            if rec["arm"] != first:
                continue
            twin_key = second + key[len(first):]
            if records[twin_key]["success"] != rec["success"]:
                self.fail(key, f"verdict differs from {twin_key}")
                self.fail(twin_key, f"verdict differs from {key}")

    def check_events(self, tracer) -> tuple[int, int]:
        """Residuals match the pursuit trace; no solver scores above the brute-force
        maximum.  Returns (QAOA solves at the optimum, QAOA solves checked)."""
        from isingpursuit.measurement import all_column_dots, measure

        for key, y, ms, result in tracer.pursuits:
            if not result.trace:
                continue
            actual = float(np.linalg.norm(y - measure(result.recovered, ms)))
            expected = result.trace[-1].residual_norm
            if abs(actual - expected) > REL_TOL * max(1.0, float(np.linalg.norm(y))):
                self.fail(key, f"||y - A x|| = {actual!r} but the trace ends at {expected!r}")
        optimal = checked = 0
        for key, name, ms, r, out in tracer.solves:
            if name == "solvers.brute_force_solve" or ms.n > BRUTE_CHECK_MAX_N:
                continue
            best = float(np.max(np.abs(all_column_dots(r, ms))))
            slack = REL_TOL * max(1.0, best)
            if out.score > best + slack:
                self.fail(key, f"{name} scored {out.score!r} above the brute maximum {best!r}")
            if name == "solvers.qaoa_solve":
                checked += 1
                optimal += out.score >= best - slack
        return optimal, checked

    def recheck(self) -> None:
        """Rerun the first trials of every arm untimed, under a tracer, and check them."""
        from tracer import Tracer

        trials = []
        for arm in self.workload.arms:
            slots = [(arm, t, s) for t in range(self.rounds)
                     for s in range(arm.offset, arm.offset + arm.per_round)]
            trials.extend(slots[:RECHECK_TRIALS])
        tracer = Tracer()
        with tracer.installed():
            records = self.run(trials, tracer)
        self.reconcile(records, "untimed rerun")
        self.check_events(tracer)

    def check_ledger(self) -> None:
        """Compare with, then extend, the record of earlier runs of this code and seed."""
        build = f"{source_digest()} {platform.python_version()} {np.__version__} {scipy.__version__}"
        tag = hashlib.sha256(build.encode()).hexdigest()[:16]
        path = LEDGER_DIR / f"{self.workload.name}-seed{self.seed}-{tag}.json"
        old = json.loads(path.read_text()) if path.is_file() else {}
        for key, rec in self.records.items():
            earlier = old.get(key, {})
            diff = repeat_mismatch(earlier, rec)
            if diff:
                self.fail(key, f"differs from an earlier run with the same seed: {diff}")
            old[key] = {**earlier, **{k: rec[k] for k in REPEATED if k in rec}}
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(json.dumps(old, sort_keys=True))
        os.replace(tmp, path)

    # ---- the two modes ------------------------------------------------------

    def measured(self) -> dict[str, tuple[float, str]]:
        records = self.timed(range(self.rounds))
        self.check_agreement(records)
        n = len(records)
        # the highest rank with at least 10 trials beyond it; the slowest if none has
        tail_rank = n - 11 if n > 10 else n - 1
        self.notes.append(f"trial_s_tail is p{100 * (tail_rank + 1) / n:.1f} "
                          f"of {n} trials; trial_s_p50 is the median of {n} trials")
        metrics = {}
        for field, label in (("seconds", None), ("wall_s", "wall clock, unscaled")):
            times = sorted(rec[field] for rec in records.values())
            timing = {
                "trials_per_s": (n / sum(times), "1/s"),
                "trial_s_p50": (statistics.median(times), "s"),
                "trial_s_tail": (times[tail_rank], "s"),
            }
            if label:
                self.notes.append(label + ": " + ", ".join(
                    f"{name} = {value:.6g} {unit}" for name, (value, unit) in timing.items()))
            else:
                metrics.update(timing)
        metrics["success_rate"] = (sum(r["success"] for r in records.values()) / n, "ratio")
        return metrics

    def traced(self) -> dict[str, tuple[float, str]]:
        from tracer import Tracer
        from workloads import ALL_ARMS, required_layers

        rounds = range(math.ceil(self.rounds / 2))
        plain = self.timed(rounds)
        tracer = Tracer()
        with tracer.installed():
            traced = self.timed(rounds, tracer)
        self.check_agreement(plain)
        self.check_agreement(traced)
        for name in sorted(required_layers(self.workload)):
            if tracer.calls[name] == 0:
                self.errors.append(f"traced run recorded no call of {name}")
        optimal, checked = self.check_events(tracer)
        plain_rate = len(plain) / sum(r["seconds"] for r in plain.values())
        traced_rate = len(traced) / sum(r["seconds"] for r in traced.values())
        self.notes.append(f"tracing overhead: {plain_rate:.4g} trials/s untraced, "
                          f"{traced_rate:.4g} traced, over {len(traced)} trials each")
        return layer_metrics(tracer, plain, traced, optimal, checked, plain_rate, traced_rate,
                             ALL_ARMS)


def run_trial(plan, seed: int) -> tuple[bool, int, float, str | None]:
    """One run_single call: (success, iterations, wall seconds, error or None)."""
    from isingpursuit.experiment import TrialTimeout, run_single

    start = time.perf_counter()
    try:
        _, result, ok = run_single(plan, seed)
        return ok, len(result.trace), time.perf_counter() - start, None
    except TrialTimeout as exc:
        err = f"hit the time cap: {exc}"
    except Exception as exc:  # a trial that raises is counted as failed, not fatal
        err = f"raised {type(exc).__name__}: {exc}"
    return False, 0, time.perf_counter() - start, err


def repeat_mismatch(old: dict, new: dict) -> str:
    for field in REPEATED:
        if field in old and field in new and old[field] != new[field]:
            return f"{field} {old[field]} then {new[field]}"
    return ""


def layer_metrics(tracer, plain, traced, optimal, checked, plain_rate, traced_rate, all_arms):
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts
    qaoa_solves = [out for _, name, ms, _, out in tracer.solves if name == "solvers.qaoa_solve"]
    coverage = [out.diagnostics.get("candidates", 0) / (1 << ms.n)
                for _, name, ms, _, out in tracer.solves if name == "solvers.qaoa_solve"]

    def per(num, den):
        return num / den if den else 0.0

    m = {
        "qaoa.optimize.calls": (calls["qaoa.optimize"], "count"),
        "qaoa.optimize.self_s": (self_s["qaoa.optimize"], "s"),
        "qaoa.eval_us": (per(1e6 * self_s["qaoa.optimize"], counts["evaluations"]), "us"),
        "qaoa.evals_per_solve": (per(counts["evaluations"], len(qaoa_solves)), "count"),
        "qaoa.bytes_per_eval_computed": (per(counts["eval_bytes"], counts["evaluations"]), "B"),
        "qaoa.ansatz_state.self_s": (self_s["qaoa.ansatz_state"], "s"),
        "qaoa.sample_candidates.self_s": (self_s["qaoa.sample_candidates"], "s"),
    }
    for name in ("brute_force_solve", "chain_dp_solve", "qaoa_solve"):
        m[f"solvers.{name}.calls"] = (calls[f"solvers.{name}"], "count")
        m[f"solvers.{name}.self_s"] = (self_s[f"solvers.{name}"], "s")
    m.update({
        "solvers.candidates_per_solve": (per(counts["candidates"], len(qaoa_solves)), "count"),
        "solvers.coverage": (per(sum(coverage), len(coverage)), "ratio"),
        "solvers.optimal_frac": (per(optimal, checked), "ratio"),
        "measurement.all_column_dots.calls": (calls["measurement.all_column_dots"], "count"),
        "measurement.all_column_dots.self_s": (self_s["measurement.all_column_dots"], "s"),
        "measurement.all_column_dots.us_per_call": (
            per(1e6 * self_s["measurement.all_column_dots"], calls["measurement.all_column_dots"]),
            "us"),
        "measurement.column_dot.calls": (calls["measurement.column_dot"], "count"),
        "measurement.measure.self_s": (self_s["measurement.measure"], "s"),
        "measurement.nearest_neighbor_patterns.self_s": (
            self_s["measurement.nearest_neighbor_patterns"], "s"),
        "measurement.random_quadruplet_patterns.self_s": (
            self_s["measurement.random_quadruplet_patterns"], "s"),
        "hamiltonian.build_hamiltonian.calls": (calls["hamiltonian.build_hamiltonian"], "count"),
        "hamiltonian.build_hamiltonian.self_s": (self_s["hamiltonian.build_hamiltonian"], "s"),
        "hamiltonian.terms_per_build": (
            per(counts["terms"], calls["hamiltonian.build_hamiltonian"]), "count"),
        "hamiltonian.diagonal.calls": (calls["hamiltonian.diagonal"], "count"),
        "hamiltonian.diagonal.self_s": (self_s["hamiltonian.diagonal"], "s"),
        "pursuit.matching_pursuit.self_s": (self_s["pursuit.matching_pursuit"], "s"),
        "pursuit.iterations_per_trial": (
            per(sum(r["iterations"] for r in traced.values()), len(traced)), "count"),
        "experiment.self_s": (self_s["experiment.run_single"], "s"),
        "signal.random_sparse_signal.self_s": (self_s["signal.random_sparse_signal"], "s"),
    })
    for arm in all_arms:
        times = [r["seconds"] for r in plain.values() if r["arm"] == arm]
        m[f"experiment.arm.{arm}.trials_per_s"] = (per(len(times), sum(times)), "1/s")
    m["trace.untraced_trials_per_s"] = (plain_rate, "1/s")
    m["trace.traced_trials_per_s"] = (traced_rate, "1/s")
    m["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "ratio")
    return m


def source_digest() -> str:
    """Hash of the package and benchmark sources: ledgers of other code never match."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "isingpursuit").glob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unresolved ({name})"


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "workers": 1,
    }


if __name__ == "__main__":
    sys.exit(main())
