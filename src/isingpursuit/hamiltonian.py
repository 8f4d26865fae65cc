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
for bit a per-term sign product.  The diagonal is made on the first call and
kept on the Hamiltonian, read-only: a QAOA solve reads it in `optimize` and
again for its sampled states, and computes it once.

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

The built Hamiltonian holds that totals vector and its prune mask, and makes
the `terms` dict only when `terms` is first read: the kept supports in that
order, each with its total as a float.  The chain solver reads the vector
and mask directly through the set's chain slots and never makes the dict.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress

import numpy as np

from .measurement import MeasurementSet, _add_table, _per_pattern, _signs
from .signal import _check_dense_size

# Exact cancellations occur for complete value-assignment groups; drop the dust.
COEFF_PRUNE_TOL = 1e-15


class IsingHamiltonian:
    """Map from Z-string supports (frozensets of 1-based qubits) to coefficients.

    A Hamiltonian from `build_hamiltonian` holds the builder's per-support
    totals and prune mask, and makes its `terms` dict when `terms` is first
    read (see the module docstring).  Every Hamiltonian makes its diagonal
    on the first `diagonal()` call and keeps it, read-only, so its terms
    are not to change after that call.
    """

    _diagonal: np.ndarray | None = None

    def __init__(self, n: int, terms: dict[frozenset[int], float] | None = None):
        self.n = n
        self.terms = {} if terms is None else terms
        for support in self.terms:
            for j in support:
                if not 1 <= j <= n:
                    raise ValueError(f"qubit {j} outside [1, {n}]")

    @classmethod
    def _built(cls, n: int, supports: tuple[frozenset[int], ...], totals: np.ndarray,
               keep: np.ndarray) -> "IsingHamiltonian":
        """The terms on the supports that keep selects, made when first read;
        the supports are already known to lie in [1, n]."""
        H = cls.__new__(cls)
        H.n, H._supports, H._totals, H._keep = n, supports, totals, keep
        return H

    @cached_property
    def terms(self) -> dict[frozenset[int], float]:
        # only a built Hamiltonian gets here: __init__ sets terms itself
        keep = self._keep.tolist()
        return dict(zip(compress(self._supports, keep), compress(self._totals.tolist(), keep)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __repr__(self) -> str:
        return f"IsingHamiltonian(n={self.n!r}, terms={self.terms!r})"

    def diagonal(self) -> np.ndarray:
        """All 2**n diagonal entries, for n <= DENSE_VECTOR_CAP: made from the
        terms on the first call, then kept on the Hamiltonian and returned
        read-only by every call."""
        if self._diagonal is None:
            _check_dense_size(self.n)
            diag = np.zeros(1 << self.n)
            for support, coeff in self.terms.items():
                _add_table(diag, self.n, tuple(sorted(support)), coeff * _signs(len(support)))
            diag.flags.writeable = False
            self._diagonal = diag
        return self._diagonal

    def max_support_size(self) -> int:
        return max((len(s) for s in self.terms), default=0)


def build_hamiltonian(ms: MeasurementSet, r: np.ndarray) -> IsingHamiltonian:
    """Assemble H = A^T r, so that H.diagonal()[z] and column_dot(z, r, ms)
    agree to rounding for every basis index z.

    Pattern i with k fixed bits contributes r_i / 2**k to every subset of
    its fixed positions, signed by the product of (1 - 2*value) over the
    subset.  Like supports merge additively; near-zero results are pruned.
    Each table run adds its scaled Walsh-Hadamard transform, and keys go in
    the order the runs name them (see the module docstring).
    """
    r = _per_pattern(r, ms)
    supports, ids, groups = ms._transform_plan
    entries = np.empty(len(ids))
    for index, rows, places in groups:
        entries[places] = np.add.accumulate(r[index][:, :, None] * rows, axis=1)[:, -1]
    totals = np.bincount(ids, weights=entries)
    # the set bounded every support when it was built
    return IsingHamiltonian._built(ms.n, supports, totals, np.abs(totals) >= COEFF_PRUNE_TOL)
