"""Reconstruct one random sparse signal with each support-detection backend.

Walks the full pipeline by hand: draw a signal, build a pattern set, measure
the marginals, then run matching pursuit once per solver and print the
recovered spikes next to the truth.  Useful for eyeballing how the sampled
QAOA search compares with the two exact searches on a single instance.
"""

import argparse

from isingpursuit import (
    PursuitConfig,
    SolverSpec,
    SparseSignal,
    make_patterns,
    make_solver,
    matching_pursuit,
    measure,
    random_sparse_signal,
    recovery_success,
)


def solver_table(args) -> dict:
    # chain DP only applies to the pair-chain Hamiltonians
    backends = ("brute", "qaoa", "chain") if args.patterns == "nn" else ("brute", "qaoa")
    return {
        name: make_solver(
            SolverSpec(name, 2 * args.depth, args.restarts, args.max_evals, args.shots), args.seed
        )
        for name in backends
    }


def describe(signal: SparseSignal) -> str:
    return ", ".join(f"{pos} ({val:+.4f})" for pos, val in sorted(signal.spikes))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=6, help="index space is 2^n bins")
    parser.add_argument("--sparsity", type=int, default=2)
    parser.add_argument("--patterns", choices=("nn", "quad"), default="nn")
    parser.add_argument("--quadruplets", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--depth", type=int, default=3)
    parser.add_argument("--restarts", type=int, default=4)
    parser.add_argument("--max-evals", type=int, default=120)
    parser.add_argument("--shots", type=int, default=1024)
    args = parser.parse_args()

    signal = random_sparse_signal(args.n, args.sparsity, seed=args.seed)
    ms = make_patterns(args.patterns, args.n, args.quadruplets, args.seed)
    y = measure(signal, ms)

    print(f"truth: {describe(signal)}")
    print(f"patterns: {args.patterns}, M = {len(ms)} marginals\n")

    for name, solve in solver_table(args).items():
        cfg = PursuitConfig(solver=solve, max_iterations=4 * args.sparsity)
        result = matching_pursuit(y, ms, cfg)
        ok = recovery_success(signal, result)
        print(f"[{name}]")
        print(f"  recovered: {describe(result.recovered)}")
        print(f"  iterations: {len(result.trace)}, "
              f"stop: {result.termination.value}, "
              f"final residual: {result.trace[-1].residual_norm:.3e}")
        print(f"  all true positions found: {ok}\n")


if __name__ == "__main__":
    main()
