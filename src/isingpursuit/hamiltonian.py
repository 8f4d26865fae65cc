"""Diagonal Ising Hamiltonians as weighted Pauli-Z strings.

Each measurement pattern expands into a tensor product of (I+Z)/2 per
bit fixed to 0, (I-Z)/2 per bit fixed to 1, and I on free bits.  Scaling
the expansions by the residual entries and summing gives a generalized
Ising Hamiltonian whose diagonal equals A^T r: the spin value on bit b
is 1 - 2b, so bit 0 maps to +1 and bit 1 to -1.

`IsingHamiltonian.diagonal` adds each term as one table through the
measurement module's table kernel: the term on support S adds coeff times
the 2**|S| spin products over S's bits.  Every index still receives
+coeff or -coeff exactly, term by term in dict order, so the result is bit
for bit a per-term sign product.

`build_hamiltonian` runs no per-entry Python loop, yet sums bit for bit as
the dict loop `terms[S] = terms.get(S, 0.0) + sign * r_i / 2**k` over the
patterns with r_i != 0.0.  Each measurement set caches an expansion plan
(`MeasurementSet._expansion_plan`) that gives every (pattern, support)
entry a row, its support's, and a column, its rank among that support's
entries in pattern order.  A call scatters the addends into zero blocks of
such rows and runs np.add.accumulate along them: a strictly sequential sum
in the loop's order, starting from the +0.0 in column 0 as terms.get does.
(np.sum and np.add.reduceat would not do: they sum runs of 8 or more
pairwise.)  Patterns with r_i == 0.0 add +-0.0 instead of being skipped,
which changes nothing, because a sum started at +0.0 never holds -0.0 and
x + 0.0 == x otherwise.  Keys go in the loop's order, that is by the first
entry of a pattern with r_i != 0.0 that names them, and the pruning is the
loop's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .measurement import MeasurementSet, _add_table

# Exact cancellations occur for complete value-assignment groups; drop the dust.
COEFF_PRUNE_TOL = 1e-15


@dataclass
class IsingHamiltonian:
    """Map from Z-string supports (frozensets of 1-based qubits) to coefficients."""

    n: int
    terms: dict[frozenset[int], float] = field(default_factory=dict)

    def __post_init__(self):
        for support in self.terms:
            for j in support:
                if not 1 <= j <= self.n:
                    raise ValueError(f"qubit {j} outside [1, {self.n}]")

    def evaluate(self, z: int) -> float:
        """Diagonal entry at basis index z: sum of coeff * prod of spin values."""
        total = 0.0
        for support, coeff in self.terms.items():
            sign = 1
            for j in support:
                if (z >> (self.n - j)) & 1:
                    sign = -sign
            total += coeff * sign
        return total

    def diagonal(self) -> np.ndarray:
        """All 2**n diagonal entries at once (vectorized evaluate)."""
        diag = np.zeros(1 << self.n)
        for support, coeff in self.terms.items():
            _add_table(diag, self.n, tuple(sorted(support)), coeff * _signs(len(support)))
        return diag

    def negated(self) -> "IsingHamiltonian":
        return IsingHamiltonian(self.n, {s: -c for s, c in self.terms.items()})

    def max_support_size(self) -> int:
        return max((len(s) for s in self.terms), default=0)

    def __add__(self, other: "IsingHamiltonian") -> "IsingHamiltonian":
        if self.n != other.n:
            raise ValueError(f"cannot add Hamiltonians on {self.n} and {other.n} qubits")
        merged = dict(self.terms)
        for support, coeff in other.terms.items():
            merged[support] = merged.get(support, 0.0) + coeff
        return IsingHamiltonian(self.n, _pruned(merged))

    def dump(self) -> str:
        """One line per term, "coeff  Z_i Z_j ...", sorted by support."""
        lines = []
        for support in sorted(self.terms, key=lambda s: (len(s), sorted(s))):
            zs = " ".join(f"Z_{j}" for j in sorted(support))
            lines.append(f"{self.terms[support]:+.12g}  {zs}".rstrip())
        return "\n".join(lines)


@lru_cache(maxsize=None)
def _signs(k: int) -> np.ndarray:
    """The 2**k spin products (-1)**popcount(v), read-only."""
    signs = np.ones(1)
    for _ in range(k):
        signs = np.concatenate([signs, -signs])
    signs.flags.writeable = False
    return signs


def _pruned(terms: dict[frozenset[int], float]) -> dict[frozenset[int], float]:
    return {s: c for s, c in terms.items() if abs(c) >= COEFF_PRUNE_TOL}


def build_hamiltonian(ms: MeasurementSet, r: np.ndarray) -> IsingHamiltonian:
    """Assemble H = A^T r so that H.evaluate(z) == column_dot(z, r, ms).

    Pattern i with k fixed bits contributes r_i / 2**k to every subset of
    its fixed positions, signed by the product of (1 - 2*value) over the
    subset.  Like supports merge additively; near-zero results are pruned.

    The sum is bit for bit the dict loop that skips patterns with r_i == 0.0
    and adds each other pattern's signed terms to terms.get(S, 0.0) (see the
    module docstring): each support's addends fill one row of the plan's
    blocks after a leading +0.0, in pattern order, and np.add.accumulate
    sums the row strictly left to right.  A skipped pattern's +-0.0 addends
    are exact no-ops.  Supports keep the order in which an entry of an
    unskipped pattern first names them.
    """
    if len(r) != len(ms.patterns):
        raise ValueError(f"residual length {len(r)} != pattern count {len(ms.patterns)}")
    r = np.asarray(r, dtype=float)
    plan = ms._expansion_plan
    flat = np.zeros(plan.blocks[-1][1])
    flat[plan.slot] = plan.sign * (r / plan.scale)[plan.pattern]
    totals = np.concatenate([
        np.add.accumulate(flat[start:stop].reshape(-1, width), axis=1)[:, -1]
        for start, stop, width in plan.blocks
    ])
    live = np.flatnonzero((r != 0.0)[plan.pattern])
    first = np.full(len(plan.supports), len(plan.pattern))
    np.minimum.at(first, plan.support[live], live)
    # a support no live entry names totals +0.0, so pruning drops it
    order = np.argsort(first)
    order = order[np.abs(totals[order]) >= COEFF_PRUNE_TOL].tolist()
    terms = dict(zip([plan.supports[s] for s in order], totals[order].tolist()))
    return IsingHamiltonian(ms.n, terms)
