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
for bit a per-term sign product.  `build_hamiltonian` caches each pattern's
expansion into (support, sign) pairs by its constraint tuple and keeps the
dict loop, so it yields the same terms, values and order as enumerating the
subsets afresh on every call.
"""

from __future__ import annotations

import itertools
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


@lru_cache(maxsize=64)
def _subsets(bits: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """Every subset of the positions, by size and then in combinations order."""
    return tuple(
        frozenset(subset)
        for size in range(len(bits) + 1)
        for subset in itertools.combinations(bits, size)
    )


# Room for every nearest-neighbour pattern at any n <= 63 (4 * 62 of them);
# random quadruplet patterns only recur within one measurement set.
@lru_cache(maxsize=256)
def _expansion(
    constraints: tuple[tuple[int, int], ...],
) -> tuple[tuple[frozenset[int], ...], tuple[int, ...]]:
    """A pattern's Z-string supports, each with the sign (-1)**(number of its
    bits fixed to 1).  Patterns on the same positions share the supports."""
    values = tuple(val for _, val in constraints)
    signs = tuple(
        (-1) ** sum(subset)
        for size in range(len(values) + 1)
        for subset in itertools.combinations(values, size)
    )
    return _subsets(tuple(bit for bit, _ in constraints)), signs


def _pruned(terms: dict[frozenset[int], float]) -> dict[frozenset[int], float]:
    return {s: c for s, c in terms.items() if abs(c) >= COEFF_PRUNE_TOL}


def build_hamiltonian(ms: MeasurementSet, r: np.ndarray) -> IsingHamiltonian:
    """Assemble H = A^T r so that H.evaluate(z) == column_dot(z, r, ms).

    Pattern i with k fixed bits contributes r_i / 2**k to every subset of
    its fixed positions, signed by the product of (1 - 2*value) over the
    subset.  Like supports merge additively; near-zero results are pruned.
    """
    if len(r) != len(ms.patterns):
        raise ValueError(f"residual length {len(r)} != pattern count {len(ms.patterns)}")
    terms: dict[frozenset[int], float] = {}
    for p, ri in zip(ms.patterns, r):
        if ri == 0.0:
            continue
        base = float(ri) / (1 << p.k)
        supports, signs = _expansion(p.constraints)
        for support, sign in zip(supports, signs):
            terms[support] = terms.get(support, 0.0) + sign * base
    return IsingHamiltonian(ms.n, _pruned(terms))
