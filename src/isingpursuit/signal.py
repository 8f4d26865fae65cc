"""Sparse signals over a 2**n index space.

Positions are integers in [0, 2**n) read as n-bit strings with bit 1 the
most significant (leftmost) bit.  This convention is shared by the
measurement and hamiltonian modules and must not drift.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# The largest n of any 2**n-entry array, checked by _check_dense_size; random_sparse_signal
# draws from the full range up to it and by rejection above it.
DENSE_VECTOR_CAP = 20
# Spike amplitudes are bounded away from zero so that "position recovered"
# stays well-defined downstream.
SPIKE_VALUE_RANGE = (0.1, 1.0)
# Indices and pattern masks are int64, so an n-bit index needs n <= 63.  Signals,
# pattern sets and plans all check it through _check_bit_count.
INDEX_BITS_CAP = 63


def _check_bit_count(n: int) -> None:
    if _read_count(n, "bit count") > INDEX_BITS_CAP:
        raise ValueError(f"n={n} exceeds {INDEX_BITS_CAP}, the width of the int64 pattern masks")


def _check_dense_size(n: int) -> None:
    _check_bit_count(n)
    if n > DENSE_VECTOR_CAP:
        raise ValueError(f"n={n} exceeds {DENSE_VECTOR_CAP}, the cap on arrays of 2**n entries")


def _check_sparsity(n: int, s: int) -> None:
    """n as _check_bit_count checks it, and 1 <= s <= 2**min(n, DENSE_VECTOR_CAP):
    above the cap, random_sparse_signal's rejection draw holds s positions in a set."""
    _check_bit_count(n)
    bits = min(n, DENSE_VECTOR_CAP)
    if not 1 <= s <= 1 << bits:
        raise ValueError(f"sparsity must satisfy 1 <= s <= 2**{bits}, got {s}")


def _read_int(value, name: str) -> int:
    """An integer field: a Python or numpy integer, or a float with an integral
    value such as 3.0, as JSON may write one; never a bool."""
    if type(value) is int:
        return value
    if (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            or isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _read_count(value, name: str) -> int:
    """A count: an integer as _read_int reads one, of at least 1."""
    value = _read_int(value, name)
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def _read_seed(value, name: str = "seed") -> int:
    """A seed: an integer as _read_int reads one, of at least 0, as
    np.random.default_rng takes one; also any count that may be 0, such as
    optimize's restarts."""
    value = _read_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _read_fields(record, reader, *names: str, optional: tuple[str, ...] = ()) -> None:
    """Read each named field of a frozen dataclass through reader (_read_int
    or _read_count) and keep what it returns; a field named in `optional`
    may also hold None."""
    for name in names + optional:
        value = getattr(record, name)
        if value is not None or name not in optional:
            object.__setattr__(record, name, reader(value, name))


def _json_fields(record, name: str, *keys: str) -> tuple:
    """The values of keys in record, a JSON object holding every one of them."""
    if not isinstance(record, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(record).__name__}")
    for key in keys:
        if key not in record:
            raise ValueError(f"{name} has no field {key!r}")
    return tuple(record[key] for key in keys)


def _json_list(value, name: str):
    """value, which must be a JSON list (or a tuple)."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a JSON list, got {type(value).__name__}")
    return value


def _is_finite(value) -> bool:
    """math.isfinite, and False for an integer beyond the float range."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _read_float(value, name: str, finite: bool = True) -> float:
    """A number field as a float: a Python or numpy int or float, never a bool.
    It must be finite as a float; with finite False, inf and nan are kept for
    the caller's range check, but an integer beyond the float range is not."""
    if type(value) is float and math.isfinite(value):
        return value
    if type(value) is int or isinstance(value, (float, np.integer, np.floating)):
        if _is_finite(value) or not finite and type(value) is not int:
            return float(value)
        raise ValueError(f"{name} must be a number, got {value!r}, which is not finite")
    raise ValueError(f"{name} must be a number, got {value!r}")


@dataclass(frozen=True)
class SparseSignal:
    """A sparse vector of length 2**n as (position, value) spikes.

    Positions are pairwise distinct and values nonzero.  Empty spike lists
    are allowed so that reconstruction results can represent "nothing
    recovered"; the random generator always emits at least one spike.  Any
    sequence of pairs is kept as a tuple of pairs, n and each position read
    by _read_int and each value by _read_float, so numpy scalars are kept as
    Python numbers and a bool is refused.
    """

    n: int
    spikes: tuple[tuple[int, float], ...]

    def __post_init__(self):
        _read_fields(self, _read_int, "n")
        object.__setattr__(self, "spikes", tuple((_read_int(p, "pos"), _read_float(v, "val"))
                                                 for p, v in self.spikes))
        _check_bit_count(self.n)
        d = 1 << self.n
        positions = [p for p, _ in self.spikes]
        if len(set(positions)) != len(positions):
            raise ValueError("spike positions must be pairwise distinct")
        for pos, val in self.spikes:
            if not 0 <= pos < d:
                raise ValueError(f"position {pos} outside [0, {d})")
            if val == 0.0:
                raise ValueError(f"spike value at position {pos} is zero")

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
        n, spikes = _json_fields(data, "signal", "n", "spikes")
        return cls(n, tuple(_json_fields(spike, "spike", "pos", "val")
                            for spike in _json_list(spikes, "spikes")))

    @classmethod
    def from_json(cls, text: str) -> "SparseSignal":
        return cls.from_dict(json.loads(text))


def random_sparse_signal(n: int, s: int, seed=None) -> SparseSignal:
    """Draw s spikes at distinct uniform positions with values uniform over
    SPIKE_VALUE_RANGE; n and s are read by _read_int first, and a seed that
    is not None by _read_seed."""
    n, s = _read_int(n, "n"), _read_int(s, "s")
    seed = None if seed is None else _read_seed(seed)
    _check_sparsity(n, s)
    d = 1 << n
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
    return SparseSignal(n=n, spikes=tuple(zip(positions, values)))

