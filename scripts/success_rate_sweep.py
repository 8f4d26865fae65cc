"""Success-rate sweep: chain-DP baseline vs QAOA over parameter counts.

Runs paired trials (every configuration sees the same random signals) and
prints one success rate per configuration, optionally writing the per-trial
records to CSV.  With --patterns quad the QAOA rows use quadruplet
measurements while the baseline stays on nearest-neighbor pairs, which is
the comparison where the sampled search can pull ahead.
"""

import argparse
import time

from isingpursuit import ExperimentPlan, SolverSpec, reports_to_csv, run_sweep


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6)
    parser.add_argument("--sparsity", type=int, default=3)
    parser.add_argument("--trials", type=int, default=100)
    parser.add_argument("--patterns", choices=("nn", "quad"), default="quad")
    parser.add_argument("--params", type=int, nargs="+", default=[5, 9, 15, 21],
                        help="QAOA parameter counts to sweep (2*ceil(c/2) angles each)")
    parser.add_argument("--restarts", type=int, default=2)
    parser.add_argument("--max-evals", type=int, default=60)
    parser.add_argument("--shots", type=int, default=1024)
    parser.add_argument("--budget", type=int, default=None,
                        help="pursuit iterations; default is one per spike")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--out", type=str, default=None, help="CSV output path")
    args = parser.parse_args()

    plan = ExperimentPlan(
        n=args.n,
        sparsity=args.sparsity,
        trial_count=args.trials,
        pattern_kind=args.patterns,
        solver=SolverSpec("qaoa", args.params[0], args.restarts,
                          args.max_evals, args.shots),
        master_seed=args.seed,
        max_iterations=args.budget if args.budget is not None else args.sparsity,
        workers=args.workers,
    )

    start = time.perf_counter()
    reports = run_sweep(plan, args.params)
    elapsed = time.perf_counter() - start

    width = max(len(r.config_id) for r in reports)
    for report in reports:
        capped = sum(t.capped for t in report.trials)
        note = f"  ({capped} trials hit the time cap)" if capped else ""
        print(f"{report.config_id:<{width}}  rate {report.rate:.2f}{note}")
    print(f"\n{len(reports)} configurations x {args.trials} trials in {elapsed:.1f}s")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write(reports_to_csv(reports))
        print(f"per-trial records written to {args.out}")


if __name__ == "__main__":
    main()
