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

`build_hamiltonian` works on the set's table runs (see the measurement
module): a run on k positions holds a 2**k table of residuals, 0.0 where no
pattern fills a slot, and its expansion is the table's k-bit Walsh-Hadamard
transform scaled by 2**-k.  Only the filled slots enter the sum, so a run
of m patterns costs m * 2**k products, as many as expanding each pattern
alone.  The cached `MeasurementSet._transform_plan` groups the runs by table
size and pattern count, holds each pattern's row of the transform and names
every entry's support.  Both sums have a defined order: np.add.accumulate
sums each transform entry over the run's patterns in set order (np.sum's
order depends on the memory layout, a matrix product's on the BLAS), and
np.bincount adds the entries, run by run, to totals started at +0.0.  Keys
go in the order in which the set's runs first name them, whatever r holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .measurement import MeasurementSet, _add_table, _signs

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

    @classmethod
    def _unchecked(cls, n: int, terms: dict[frozenset[int], float]) -> "IsingHamiltonian":
        """Skip __post_init__'s check, for supports already known to lie in [1, n]."""
        H = cls.__new__(cls)
        H.n, H.terms = n, terms
        return H

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

    def max_support_size(self) -> int:
        return max((len(s) for s in self.terms), default=0)

    def dump(self) -> str:
        """One line per term, "coeff  Z_i Z_j ...", sorted by support."""
        lines = []
        for support in sorted(self.terms, key=lambda s: (len(s), sorted(s))):
            zs = " ".join(f"Z_{j}" for j in sorted(support))
            lines.append(f"{self.terms[support]:+.12g}  {zs}".rstrip())
        return "\n".join(lines)


def build_hamiltonian(ms: MeasurementSet, r: np.ndarray) -> IsingHamiltonian:
    """Assemble H = A^T r so that H.evaluate(z) == column_dot(z, r, ms).

    Pattern i with k fixed bits contributes r_i / 2**k to every subset of
    its fixed positions, signed by the product of (1 - 2*value) over the
    subset.  Like supports merge additively; near-zero results are pruned.

    Each run of patterns on the same k positions contributes the scaled
    Walsh-Hadamard transform of its residual table, summed over the run's
    patterns (see the module docstring).  Keys go in the order in which the
    set's runs name them.
    """
    if len(r) != len(ms.patterns):
        raise ValueError(f"residual length {len(r)} != pattern count {len(ms.patterns)}")
    r = np.asarray(r, dtype=float)
    supports, ids, groups = ms._transform_plan
    entries = np.empty(len(ids))
    for index, rows, places in groups:
        entries[places] = np.add.accumulate(r[index][:, :, None] * rows, axis=1)[:, -1]
    totals = np.bincount(ids, weights=entries)
    keep = np.flatnonzero(np.abs(totals) >= COEFF_PRUNE_TOL).tolist()
    # the set bounded every support when it was built
    return IsingHamiltonian._unchecked(
        ms.n, dict(zip([supports[i] for i in keep], totals[keep].tolist())))
