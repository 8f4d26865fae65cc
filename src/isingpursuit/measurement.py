"""Structured binary measurement patterns and implicit-matrix marginals.

A pattern fixes the values of a chosen uplet of index bits; the measurement
matrix row it describes is 1 at every index consistent with those fixed bits
and 0 elsewhere.  The matrix itself is never stored: measuring, column dot
products and column norms all work directly off the bit constraints.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .signal import INDEX_BITS_CAP, SparseSignal

# Explicit 0/1 matrices are a test oracle only; anything bigger stays implicit.
DENSE_MATRIX_CAP = 10


@dataclass(frozen=True)
class Pattern:
    """One measurement row: a list of (bit position, fixed value) constraints.

    Bit positions are 1-based with bit 1 the most significant.  An empty
    constraint list is the all-ones row.
    """

    constraints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        bits = [b for b, _ in self.constraints]
        if len(set(bits)) != len(bits):
            raise ValueError("constrained bit positions must be pairwise distinct")
        for bit, val in self.constraints:
            if bit < 1:
                raise ValueError(f"bit positions are 1-based, got {bit}")
            if val not in (0, 1):
                raise ValueError(f"fixed value must be 0 or 1, got {val}")

    @property
    def k(self) -> int:
        return len(self.constraints)

    def mask_want(self, n: int) -> tuple[int, int]:
        """(mask, want) such that z matches iff z & mask == want."""
        mask = 0
        want = 0
        for bit, val in self.constraints:
            shift = n - bit
            mask |= 1 << shift
            want |= val << shift
        return mask, want


@dataclass(frozen=True)
class MeasurementSet:
    """An ordered list of patterns over a common n-bit index space."""

    n: int
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        if self.n > INDEX_BITS_CAP:
            raise ValueError(
                f"n={self.n} exceeds {INDEX_BITS_CAP}, the width of the int64 pattern masks"
            )
        if not self.patterns:
            raise ValueError("a measurement set needs at least one pattern")
        for p in self.patterns:
            for bit, _ in p.constraints:
                if bit > self.n:
                    raise ValueError(f"bit {bit} outside [1, {self.n}]")

    def __len__(self) -> int:
        return len(self.patterns)

    @cached_property
    def _masks_wants(self) -> tuple[np.ndarray, np.ndarray]:
        masks = np.empty(len(self.patterns), dtype=np.int64)
        wants = np.empty(len(self.patterns), dtype=np.int64)
        for i, p in enumerate(self.patterns):
            masks[i], wants[i] = p.mask_want(self.n)
        return masks, wants

    def match_vector(self, z: int) -> np.ndarray:
        """Boolean vector over patterns: the implicit column of A at index z."""
        masks, wants = self._masks_wants
        return (z & masks) == wants

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "patterns": [
                [{"bit": b, "val": v} for b, v in p.constraints] for p in self.patterns
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementSet":
        patterns = tuple(
            Pattern(tuple((int(c["bit"]), int(c["val"])) for c in row))
            for row in data["patterns"]
        )
        return cls(n=int(data["n"]), patterns=patterns)

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        return cls.from_dict(json.loads(text))


def value_assignment_group(positions: tuple[int, ...]) -> tuple[Pattern, ...]:
    """All 2**k patterns fixing the given positions, in binary value order."""
    k = len(positions)
    return tuple(
        Pattern(tuple(zip(positions, values)))
        for values in itertools.product((0, 1), repeat=k)
    )


def nearest_neighbor_patterns(n: int) -> MeasurementSet:
    """All four value assignments for each adjacent bit pair: M = 4(n-1).

    Ordering is pair-major, value-combination minor (00, 01, 10, 11), so
    marginal indices are stable across runs.
    """
    if n < 2:
        raise ValueError(f"nearest-neighbor patterns need n >= 2, got {n}")
    patterns: list[Pattern] = []
    for i in range(1, n):
        patterns.extend(value_assignment_group((i, i + 1)))
    return MeasurementSet(n=n, patterns=tuple(patterns))


def random_quadruplet_patterns(n: int, q: int, seed=None) -> MeasurementSet:
    """q distinct random bit quadruplets, each with all 16 value assignments.

    M = 16q.  Quadruplets are drawn uniformly over the C(n, 4) position
    subsets, without repetition across the set.
    """
    if n < 4:
        raise ValueError(f"quadruplet patterns need n >= 4, got {n}")
    if q < 1:
        raise ValueError(f"quadruplet count must be >= 1, got {q}")
    total = math.comb(n, 4)
    if q > total:
        raise ValueError(f"cannot draw {q} distinct quadruplets from C({n},4) = {total}")
    rng = np.random.default_rng(seed)
    if total <= 1_000_000:
        combos = list(itertools.combinations(range(1, n + 1), 4))
        picked = rng.choice(total, size=q, replace=False)
        quadruplets = [combos[i] for i in picked]
    else:
        seen: set[tuple[int, ...]] = set()
        quadruplets = []
        while len(quadruplets) < q:
            quad = tuple(sorted(int(b) + 1 for b in rng.choice(n, size=4, replace=False)))
            if quad not in seen:
                seen.add(quad)
                quadruplets.append(quad)
    patterns: list[Pattern] = []
    for quad in quadruplets:
        patterns.extend(value_assignment_group(quad))
    return MeasurementSet(n=n, patterns=tuple(patterns))


def complete_patterns(n: int) -> MeasurementSet:
    """All 2**n patterns fixing every bit: the identity measurement."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n > DENSE_MATRIX_CAP:
        raise ValueError(f"complete pattern set has 2**{n} rows (cap {DENSE_MATRIX_CAP})")
    return MeasurementSet(n=n, patterns=value_assignment_group(tuple(range(1, n + 1))))


def pattern_matches(p: Pattern, z: int, n: int) -> bool:
    """Whether index z satisfies every constraint: the implicit entry A[i, z]."""
    return all((z >> (n - bit)) & 1 == val for bit, val in p.constraints)


def measure(signal: SparseSignal, ms: MeasurementSet) -> np.ndarray:
    """Marginals y = A x: y[i] sums spike values consistent with pattern i."""
    if signal.n != ms.n:
        raise ValueError(f"signal has n={signal.n} but measurement set has n={ms.n}")
    masks, wants = ms._masks_wants
    y = np.zeros(len(ms.patterns))
    for pos, val in signal.spikes:
        y[(pos & masks) == wants] += val
    return y


def column_dot(z: int, r: np.ndarray, ms: MeasurementSet) -> float:
    """Signed correlation of column z with r: the entry (A^T r)_z."""
    if len(r) != len(ms.patterns):
        raise ValueError(f"residual length {len(r)} != pattern count {len(ms.patterns)}")
    return float(np.sum(r[ms.match_vector(z)]))


def column_norm_sq(z: int, ms: MeasurementSet) -> int:
    """Squared norm of the binary column z = number of patterns matching z.

    A return of 0 means the column is absent from the measurement set.
    """
    return int(np.count_nonzero(ms.match_vector(z)))


def all_column_dots(r: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """The full vector A^T r over all 2**n indices (exhaustive, small n only)."""
    if len(r) != len(ms.patterns):
        raise ValueError(f"residual length {len(r)} != pattern count {len(ms.patterns)}")
    zs = np.arange(1 << ms.n, dtype=np.int64)
    acc = np.zeros(1 << ms.n)
    masks, wants = ms._masks_wants
    for mask, want, ri in zip(masks, wants, r):
        acc[(zs & mask) == want] += ri
    return acc


def dense_matrix(ms: MeasurementSet) -> np.ndarray:
    """Materialize A as an (M, 2**n) 0/1 array.  Test oracle only."""
    if ms.n > DENSE_MATRIX_CAP:
        raise ValueError(f"dense A at n={ms.n} exceeds cap {DENSE_MATRIX_CAP}")
    zs = np.arange(1 << ms.n, dtype=np.int64)
    masks, wants = ms._masks_wants
    return ((zs[None, :] & masks[:, None]) == wants[:, None]).astype(float)
