"""Structured binary measurement patterns and implicit-matrix marginals.

A pattern fixes the values of a chosen uplet of index bits; the measurement
matrix row it describes is 1 at every index consistent with those fixed bits
and 0 elsewhere.  The matrix itself is never stored: measuring, column dot
products and column norms all work directly off the bit constraints.

A^T r over all 2**n indices is a sum of small tables: a pattern fixing k
bits adds r_i at the one entry of a 2**k table, indexed by those bits' values,
that it matches.  `_add_table` adds such a table to the 2**n accumulator in
one broadcast add, viewing the accumulator as a block array (one axis per
run of free bits, one per run of fixed bits) so that it needs no index
arrays and no masks.  `all_column_dots` adds one table per run of
consecutive patterns on the same bits with distinct values.  This is bit
for bit the one-masked-pass-per-pattern sum: an index matches at most one
pattern of a run, so it receives the same nonzero addends in the same
order, and the 0.0 added at unmatched entries changes nothing, because the
accumulator starts at +0.0 and a sum can only be -0.0 when both addends are.
When fewer than FOLD_BITS free bits follow the last fixed bit of a large
space, the table is first spread over those last bits, so that numpy's
innermost loop stays long; the spread table may hold +0.0 for -0.0, which
is exact for the same reason.

The Hamiltonian builder reads the same runs as Walsh-Hadamard transforms
(`_transform_plan`), and `nearest_neighbor_patterns` builds its set once
per n, so the masks, table runs and plan of a nearest-neighbour set are made
once per process.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .signal import INDEX_BITS_CAP, SparseSignal

# The largest n of complete_patterns, whose 2**n patterns form an explicit matrix.
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

    @classmethod
    def _unchecked(cls, constraints: tuple[tuple[int, int], ...]) -> "Pattern":
        """Skip __post_init__'s check, for constraints already known to be valid."""
        p = cls.__new__(cls)
        object.__setattr__(p, "constraints", constraints)
        return p

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

    @cached_property
    def _table_runs(self) -> tuple[tuple[int, int, tuple[int, ...], np.ndarray | None], ...]:
        """(start, stop, bits, slots) per maximal run of consecutive patterns on
        the same sorted bit positions with pairwise distinct values.  Pattern
        start + i fills entry slots[i] of the run's 2**k table; slots is None
        when the run is the whole value-assignment group in binary order."""
        runs: list[list] = []
        for i, p in enumerate(self.patterns):
            fixed = sorted(p.constraints)
            bits = tuple(b for b, _ in fixed)
            slot = 0
            for _, val in fixed:
                slot = 2 * slot + val
            if runs and runs[-1][2] == bits and slot not in runs[-1][3]:
                runs[-1][1] = i + 1
                runs[-1][3].append(slot)
            else:
                runs.append([i, i + 1, bits, [slot]])
        return tuple(
            (start, stop, bits,
             None if slots == list(range(1 << len(bits))) else np.array(slots))
            for start, stop, bits, slots in runs
        )

    @cached_property
    def _transform_plan(self) -> tuple[tuple[frozenset[int], ...], np.ndarray,
                                       tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
        """(supports, ids, groups) for the Hamiltonian builder.  Entry s of a
        run's transform belongs to the positions whose table bits s sets; ids
        names that support for every entry, run by run, and supports go in the
        order the runs first name them.  A group holds the runs with the same
        table size k and pattern count m: their (runs, m) indices into r, the
        (runs, m, 2**k) transform rows (-1)**popcount(slot & s) / 2**k of
        their patterns, and the (runs, 2**k) places of their entries in ids."""
        ids: dict[frozenset[int], int] = {}
        named: dict[tuple[int, ...], list[int]] = {}
        support_ids: list[int] = []
        groups: dict[tuple[int, int], list[tuple[int, int, np.ndarray]]] = {}
        for start, stop, bits, slots in self._table_runs:
            k = len(bits)
            if bits not in named:
                named[bits] = [ids.setdefault(frozenset(b for i, b in enumerate(bits)
                                                        if s >> (k - 1 - i) & 1), len(ids))
                               for s in range(1 << k)]
            groups.setdefault((k, stop - start), []).append(
                (start, len(support_ids), np.arange(1 << k) if slots is None else slots))
            support_ids.extend(named[bits])
        plan = []
        for (k, m), runs in groups.items():
            starts, firsts, slots = (np.array(column) for column in zip(*runs))
            values = np.arange(1 << k)
            rows = np.ldexp(_signs(k)[slots[:, :, None] & values], -k)
            plan.append((starts[:, None] + np.arange(m), rows, firsts[:, None] + values))
        return tuple(ids), np.array(support_ids), tuple(plan)

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


@lru_cache(maxsize=None)
def _signs(k: int) -> np.ndarray:
    """The 2**k spin products (-1)**popcount(v), read-only."""
    signs = np.ones(1)
    for _ in range(k):
        signs = np.concatenate([signs, -signs])
    signs.flags.writeable = False
    return signs


@lru_cache(maxsize=1024)
def _block_shapes(n: int, bits: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Shapes that view a 2**n vector and a 2**k table over the sorted
    positions `bits` as broadcast-compatible block arrays: each run of free
    bits is one axis (size 1 in the table), each run of fixed bits another."""
    shape: list[int] = []
    table_shape: list[int] = []
    prev = 0
    for bit in bits:
        if bit > prev + 1:
            shape.append(1 << (bit - prev - 1))
            table_shape.append(1)
        if prev and bit == prev + 1:
            shape[-1] *= 2
            table_shape[-1] *= 2
        else:
            shape.append(2)
            table_shape.append(2)
        prev = bit
    if prev < n:
        shape.append(1 << (n - prev))
        table_shape.append(1)
    return tuple(shape), tuple(table_shape)


# numpy runs a broadcast add one innermost block at a time.  With fewer than
# FOLD_BITS free bits after the last fixed one, that block holds a handful of
# entries and the per-block overhead dominates (about 6x slower at n=16).
# Below 2 * FOLD_BITS bits the whole add is too short for folding to pay.
FOLD_BITS = 6


@lru_cache(maxsize=1024)
def _fold(n: int, bits: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]] | None:
    """(m, table_bits, block_bits) that widen a short innermost block to the
    last FOLD_BITS bits: the table is first spread over an m-bit space whose
    low FOLD_BITS bits stand for those bits, then added on `block_bits`, the
    fixed bits above them plus every bit in them.  None when no fold is due."""
    if n < 2 * FOLD_BITS or not bits or n - bits[-1] >= FOLD_BITS:
        return None
    low = n - FOLD_BITS
    high = tuple(bit for bit in bits if bit <= low)
    table_bits = tuple(range(1, len(high) + 1)) + tuple(
        len(high) + bit - low for bit in bits if bit > low
    )
    return len(high) + FOLD_BITS, table_bits, high + tuple(range(low + 1, n + 1))


def _add_blocks(acc: np.ndarray, n: int, bits: tuple[int, ...], table: np.ndarray) -> None:
    shape, table_shape = _block_shapes(n, bits)
    view = acc.reshape(shape)
    view += table.reshape(table_shape)


def _add_table(acc: np.ndarray, n: int, bits: tuple[int, ...], table: np.ndarray) -> None:
    """acc[z] += table[v] for every index z, where v reads z's bits at the
    sorted positions `bits`, the first one most significant.  One broadcast
    add over block views of both arrays: no index arrays, no masks.  A short
    innermost block is first folded into a larger table (see `_fold`), which
    turns a -0.0 entry into +0.0: exact as long as acc holds no -0.0."""
    fold = _fold(n, bits)
    if fold is not None:
        m, table_bits, bits = fold
        spread = np.zeros(1 << m)
        _add_blocks(spread, m, table_bits, table)
        table = spread
    _add_blocks(acc, n, bits, table)


def value_assignment_group(positions: tuple[int, ...]) -> tuple[Pattern, ...]:
    """All 2**k patterns fixing the given positions, in binary value order.

    The first pattern checks the positions; the values are 0 or 1 by
    construction, so the others skip the check.
    """
    values = itertools.product((0, 1), repeat=len(positions))
    first = Pattern(tuple(zip(positions, next(values))))
    return (first,) + tuple(Pattern._unchecked(tuple(zip(positions, v))) for v in values)


def nearest_neighbor_patterns(n: int) -> MeasurementSet:
    """All four value assignments for each adjacent bit pair: M = 4(n-1).

    Ordering is pair-major, value-combination minor (00, 01, 10, 11), so
    marginal indices are stable across runs.  The set is built once per n
    and shared, together with its cached masks, table runs and transform
    plan; it is frozen, so callers cannot tell the difference.
    """
    if n < 2:
        raise ValueError(f"nearest-neighbor patterns need n >= 2, got {n}")
    return _nearest_neighbor_patterns(n)


# Memoised apart from the public function, which stays a plain function so
# that perfbench's tracer, which wraps plain functions only, still sees it.
@lru_cache(maxsize=None)
def _nearest_neighbor_patterns(n: int) -> MeasurementSet:
    patterns: list[Pattern] = []
    for i in range(1, n):
        patterns.extend(value_assignment_group((i, i + 1)))
    return MeasurementSet(n=n, patterns=tuple(patterns))


def random_quadruplet_patterns(n: int, q: int, seed=None) -> MeasurementSet:
    """q distinct random bit quadruplets, each with all 16 value assignments.

    M = 16q.  Quadruplets are drawn uniformly over the C(n, 4) position
    subsets, without repetition across the set; n is checked against
    INDEX_BITS_CAP first, so the subset list holds at most C(63, 4) = 595,665.
    """
    if n < 4:
        raise ValueError(f"quadruplet patterns need n >= 4, got {n}")
    if n > INDEX_BITS_CAP:
        raise ValueError(f"n={n} exceeds {INDEX_BITS_CAP}, the width of the int64 pattern masks")
    if q < 1:
        raise ValueError(f"quadruplet count must be >= 1, got {q}")
    total = math.comb(n, 4)
    if q > total:
        raise ValueError(f"cannot draw {q} distinct quadruplets from C({n},4) = {total}")
    rng = np.random.default_rng(seed)
    combos = list(itertools.combinations(range(1, n + 1), 4))
    quadruplets = [combos[i] for i in rng.choice(total, size=q, replace=False)]
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


def measure(signal: SparseSignal, ms: MeasurementSet) -> np.ndarray:
    """Marginals y = A x: y[i] sums spike values consistent with pattern i."""
    if signal.n != ms.n:
        raise ValueError(f"signal has n={signal.n} but measurement set has n={ms.n}")
    y = np.zeros(len(ms.patterns))
    for pos, val in signal.spikes:
        y[ms.match_vector(pos)] += val
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
    r = np.asarray(r, dtype=float)
    acc = np.zeros(1 << ms.n)
    for start, stop, bits, slots in ms._table_runs:
        if slots is None:
            table = r[start:stop]
        else:
            table = np.zeros(1 << len(bits))
            table[slots] = r[start:stop]
        _add_table(acc, ms.n, bits, table)
    return acc
