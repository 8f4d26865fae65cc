"""Sparse signals over a 2**n index space.

Positions are integers in [0, 2**n) read as n-bit strings with bit 1 the
most significant (leftmost) bit.  This convention is shared by the
measurement and hamiltonian modules and must not drift.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

# The largest n whose 2**n positions are materialized: random_sparse_signal
# draws from the full range up to it and by rejection above it.
DENSE_VECTOR_CAP = 20
# Spike amplitudes are bounded away from zero so that "position recovered"
# stays well-defined downstream.
SPIKE_VALUE_RANGE = (0.1, 1.0)
# Indices and pattern masks are int64, so an n-bit index needs n <= 63.
INDEX_BITS_CAP = 63


def _check_bit_count(n: int) -> None:
    if n < 1:
        raise ValueError(f"bit count must be >= 1, got {n}")
    if n > INDEX_BITS_CAP:
        raise ValueError(f"n={n} exceeds {INDEX_BITS_CAP}, the width of the int64 index masks")


@dataclass(frozen=True)
class SparseSignal:
    """A sparse vector of length 2**n as (position, value) spikes.

    Positions are pairwise distinct and values nonzero.  Empty spike lists
    are allowed so that reconstruction results can represent "nothing
    recovered"; the random generator always emits at least one spike.
    """

    n: int
    spikes: tuple[tuple[int, float], ...]

    def __post_init__(self):
        _check_bit_count(self.n)
        d = 1 << self.n
        positions = [p for p, _ in self.spikes]
        if len(set(positions)) != len(positions):
            raise ValueError("spike positions must be pairwise distinct")
        for pos, val in self.spikes:
            if not 0 <= pos < d:
                raise ValueError(f"position {pos} outside [0, {d})")
            if val == 0.0 or not np.isfinite(val):
                raise ValueError(f"spike value at position {pos} is zero or not finite: {val}")

    def positions(self) -> set[int]:
        return {p for p, _ in self.spikes}

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "spikes": [{"pos": p, "val": v} for p, v in self.spikes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "SparseSignal":
        spikes = tuple((int(s["pos"]), float(s["val"])) for s in data["spikes"])
        return cls(n=int(data["n"]), spikes=spikes)

    @classmethod
    def from_json(cls, text: str) -> "SparseSignal":
        return cls.from_dict(json.loads(text))


def random_sparse_signal(n: int, s: int, seed=None) -> SparseSignal:
    """Draw s spikes at distinct uniform positions with values uniform over
    SPIKE_VALUE_RANGE."""
    _check_bit_count(n)
    d = 1 << n
    if not 1 <= s <= d:
        raise ValueError(f"sparsity must satisfy 1 <= s <= 2**{n}, got {s}")
    rng = np.random.default_rng(seed)
    if n <= DENSE_VECTOR_CAP:
        positions = rng.choice(d, size=s, replace=False)
    else:
        # rejection sampling; fine whenever s << 2**n, which is the sparse regime
        chosen: set[int] = set()
        while len(chosen) < s:
            chosen.add(int(rng.integers(0, d)))
        positions = sorted(chosen)
    values = rng.uniform(*SPIKE_VALUE_RANGE, size=s)
    spikes = tuple((int(p), float(v)) for p, v in zip(positions, values))
    return SparseSignal(n=n, spikes=spikes)

