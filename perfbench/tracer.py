"""Spans and counters recorded around the package's public functions.

The tracer wraps every public function of the layer modules and installs
the wrapper at each use site: `experiment`, `solvers` and `pursuit` import
functions by name, so replacing only the defining module's attribute would
leave their calls unrecorded.  A span's self time is its duration minus the
durations of the wrapped calls made inside it.  Nothing under `src/`
changes; the originals are restored when the `installed()` block exits.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import numpy as np

PACKAGE = "isingpursuit"
LAYERS = ("signal", "measurement", "hamiltonian", "solvers", "qaoa", "pursuit", "experiment")
# Called once per objective evaluation; its time stays inside qaoa.optimize.
UNWRAPPED = {"qaoa.uniform_state"}
SOLVERS = ("solvers.brute_force_solve", "solvers.chain_dp_solve", "solvers.qaoa_solve")


def state_bytes_per_eval(n: int, p: int) -> int:
    """Computed from array sizes, not measured: each of the p phase layers and
    p*n single-qubit mixer updates reads and writes the complex128 state once,
    and the expectation reads the state and the float64 diagonal once."""
    d = 1 << n
    return 2 * 16 * d * p * (n + 1) + (16 + 8) * d


class Tracer:
    """Per-function calls and self time, plus the counters the benchmark reports.

    `solves` keeps (trial, solver, measurement set, residual, outcome) per
    solver call and `pursuits` keeps (trial, marginals, measurement set,
    result) per matching-pursuit call, for the checks made after a run;
    `current` names the trial running now.
    """

    def __init__(self):
        self.current: str | None = None
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.solves: list = []
        self.pursuits: list = []
        self._children: list[float] = []

    def _after(self, name: str, args: tuple, kwargs: dict, out) -> None:
        if name == "qaoa.optimize":
            H, p = args[0], kwargs.get("p", args[1] if len(args) > 1 else None)
            self.counts["evaluations"] += out.evaluations
            self.counts["eval_bytes"] += out.evaluations * state_bytes_per_eval(H.n, p)
        elif name in SOLVERS:
            ms, r = args[0], args[1]
            self.solves.append((self.current, name, ms, np.array(r, dtype=float), out))
            self.counts["candidates"] += out.diagnostics.get("candidates", 0)
        elif name == "hamiltonian.build_hamiltonian":
            self.counts["terms"] += len(out.terms)
        elif name == "pursuit.matching_pursuit":
            self.pursuits.append((self.current, np.array(args[0], dtype=float), args[1], out))

    def span(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.calls[name] += 1
                self.self_s[name] += elapsed - self._children.pop()
                if self._children:
                    self._children[-1] += elapsed
            self._after(name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Replace every public layer function at every use site in the package."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[id(obj)] = self.span(name, obj)
        saved = []
        modules = [m for key, m in list(sys.modules.items())
                   if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    saved.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        hamiltonian = sys.modules[f"{PACKAGE}.hamiltonian"]
        cls = hamiltonian.IsingHamiltonian
        original_diagonal = cls.diagonal
        cls.diagonal = self.span("hamiltonian.diagonal", original_diagonal)
        try:
            yield self
        finally:
            cls.diagonal = original_diagonal
            for mod, attr, obj in saved:
                setattr(mod, attr, obj)
