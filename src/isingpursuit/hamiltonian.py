"""Diagonal Ising Hamiltonians as weighted Pauli-Z strings.

Each measurement pattern expands into a tensor product of (I+Z)/2 per
bit fixed to 0, (I-Z)/2 per bit fixed to 1, and I on free bits.  Scaling
the expansions by the residual entries and summing gives a generalized
Ising Hamiltonian whose diagonal equals A^T r: the spin value on bit b
is 1 - 2b, so bit 0 maps to +1 and bit 1 to -1.

`IsingHamiltonian.diagonal` is the Walsh-Hadamard transform of the kept
totals, each placed at its support's bit mask (Fino and Algazi, IEEE Trans.
Comput. C-25, 1142 (1976)): n stages of 2**n adds, not a 2**n add per term.
Stage j pairs the entries that differ in qubit j, w[2i] = v[i] + v[i + h]
and w[2i + 1] = v[i] - v[i + h] for h = 2**(n-1), so every entry sums its
signed totals in one fixed tree.  The diagonal is made on the first call
and kept on the Hamiltonian, read-only.  `normalized` divides it once by its
spread max|d - mean d| into a second Hamiltonian that keeps the quotient:
a QAOA solve evolves that one, reading the quotient for its ramp's states
and again for their expectations.

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

Every Hamiltonian holds int64 support masks (the measurement module's
`_bit_masks` of its qubits), float64 totals and a keep mask, and makes the
`terms` dict only when `terms` is first read: each kept mask's `_mask_bits`,
in order, as a frozenset, with its total as a float.  The builder keeps its
plan's masks, summed totals and prune mask, a dict's keys are read into masks
and its coefficients copied and all kept, and `normalized` divides the
totals.  No chain or QAOA solve makes the dict.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .measurement import MeasurementSet, _bit_masks, _mask_bits, _per_pattern
from .signal import _check_bit_count, _check_dense_size, _read_float, _read_int

# Exact cancellations occur for complete value-assignment groups; drop the dust.
COEFF_PRUNE_TOL = 1e-15


class IsingHamiltonian:
    """Map from Z-string supports (frozensets of 1-based qubits) to
    coefficients, held as masks, totals and a keep mask (see the module
    docstring).  A dict given here is copied.  n and every qubit are read by
    _read_int, so a key of integral floats is the support of their ints; a key
    names each qubit once, and no two keys one support.  n is checked by
    _check_bit_count, as signals and pattern sets check theirs, and every
    coefficient is read by _read_float, which keeps inf and NaN.  The diagonal
    is made on the first `diagonal()` call and kept, read-only.
    """

    _diagonal: np.ndarray | None = None

    def __init__(self, n: int, terms: dict[frozenset[int], float] | None = None):
        n, terms = _read_int(n, "n"), {} if terms is None else terms
        _check_bit_count(n)
        masks: dict[int, None] = {}  # in key order
        for support in terms:
            qubits = []
            for j in support:
                if type(j) is not int or not 1 <= j <= n:  # plain ints in range need no reading
                    j = _read_int(j, "qubit")
                    if not 1 <= j <= n:
                        raise ValueError(f"qubit {j} outside [1, {n}]")
                if j in qubits:
                    raise ValueError(f"qubit {j} named twice in one support")
                qubits.append(j)
            mask = int(_bit_masks(n, qubits))
            if mask in masks:
                raise ValueError(f"support {_mask_bits(n, mask)} named twice")
            masks[mask] = None
        self.n, self._keep = n, np.ones(len(terms), bool)
        self._masks = np.fromiter(masks, np.int64, len(masks))
        self._totals = np.fromiter((_read_float(c, "coefficient", finite=False)
                                    for c in terms.values()), float, len(terms))

    @classmethod
    def _built(cls, n: int, masks: np.ndarray, totals: np.ndarray,
               keep: np.ndarray) -> "IsingHamiltonian":
        """The terms on the int64 masks that keep selects, made when first
        read; the masks already lie below 2**n; totals is float64."""
        H = cls.__new__(cls)
        H.n, H._masks, H._totals, H._keep = n, masks, totals, keep
        return H

    @cached_property
    def terms(self) -> dict[frozenset[int], float]:
        masks, totals = self._masks[self._keep].tolist(), self._totals[self._keep].tolist()
        return dict(zip([frozenset(_mask_bits(self.n, mask)) for mask in masks], totals))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.terms) == (other.n, other.terms)

    def __repr__(self) -> str:
        return f"IsingHamiltonian(n={self.n!r}, terms={self.terms!r})"

    def diagonal(self) -> np.ndarray:
        """All 2**n diagonal entries, for n <= DENSE_VECTOR_CAP, by the module
        docstring's transform (2n ufunc calls), kept from the first call and
        returned read-only.  A -0.0 total can leave -0.0: -0.0 - +0.0 is -0.0."""
        if self._diagonal is None:
            _check_dense_size(self.n)
            v, w, h = np.zeros(1 << self.n), np.empty(1 << self.n), 1 << (self.n - 1)
            v[self._masks[self._keep]] = self._totals[self._keep]
            for _ in range(self.n):
                np.add(v[:h], v[h:], w[0::2])
                np.subtract(v[:h], v[h:], w[1::2])
                v, w = w, v
            v.flags.writeable = False
            self._diagonal = v
        return self._diagonal

    def normalized(self) -> tuple["IsingHamiltonian", float]:
        """This Hamiltonian divided by the spread s = max|d - mean d| of its
        diagonal d, and s: a Hamiltonian over the same n whose kept,
        read-only diagonal is d / s, bit for bit, made here once, and whose
        totals are each total / s (the diagonal of its terms agrees with the
        kept one to rounding).

        The spread is taken on d / 2**e, then multiplied by 2**e, with e
        the least power that keeps 2**n * max|d| / 2**e below 2**1023: so
        neither the mean nor any entry's distance from it can overflow for a
        finite diagonal.  e is 0 unless max|d| nears 1e308 / 2**n, and s
        is bit for bit max|d - mean d| wherever that is finite: dividing by
        2**e is exact above the subnormal range, and the entries it rounds
        lie far below every ulp of so wide a spread.  numpy's warnings are
        off: s itself overflows when the spread passes the float range, and
        a diagonal holding inf or NaN makes it NaN.  Where s is zero (a flat
        diagonal) or not finite, s is 1.0, and the diagonal keeps its raw
        values.
        """
        d = self.diagonal()
        with np.errstate(over="ignore", invalid="ignore"):
            e = max(0, math.frexp(float(np.abs(d).max()))[1] + self.n + 1 - 1024)
            shrunk = np.ldexp(d, -e)
            scale = float(np.ldexp(np.abs(shrunk - shrunk.mean()).max(), e))
        if not (math.isfinite(scale) and scale > 0.0):
            scale = 1.0
        scaled = self._built(self.n, self._masks, self._totals / scale, self._keep)
        diag = d / scale
        diag.flags.writeable = False
        scaled._diagonal = diag
        return scaled, scale

    def max_support_size(self) -> int:
        return int(np.bitwise_count(self._masks[self._keep]).max(initial=0))


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
    masks, ids, groups = ms._transform_plan
    entries = np.empty(len(ids))
    for index, rows, places in groups:
        entries[places] = np.add.accumulate(r[index][:, :, None] * rows, axis=1)[:, -1]
    totals = np.bincount(ids, weights=entries)
    # the set bounded every support when it was built
    return IsingHamiltonian._built(ms.n, masks, totals, np.abs(totals) >= COEFF_PRUNE_TOL)
