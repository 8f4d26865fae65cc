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

Z-string expansions of the patterns are cached on the set too
(`_expansion_plan`, used by the Hamiltonian builder), and
`nearest_neighbor_patterns` builds its set once per n, so the masks, table
runs and plan of a nearest-neighbour set are made once per process.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

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


class ExpansionPlan(NamedTuple):
    """Every pattern's Z-string expansion, one entry per (pattern, subset of
    its fixed positions), in pattern order and, within a pattern, by subset
    size and then in combinations order over its constraint tuple.  Entry e
    adds sign[e] * r[pattern[e]] / scale[pattern[e]] to the term on
    supports[support[e]].

    The addends go into a flat zero buffer of row-major blocks, each given
    by its (start, stop, width) in `blocks`.  A support owns one block row, and
    entry e sits at slot[e], one column past the number of earlier entries
    on its support, so that every row starts with +0.0."""

    supports: tuple[frozenset[int], ...]  # one per block row
    support: np.ndarray
    pattern: np.ndarray
    sign: np.ndarray  # (-1.0)**(number of the subset's bits fixed to 1)
    scale: np.ndarray  # 2.0**k per pattern
    slot: np.ndarray
    blocks: tuple[tuple[int, int, int], ...]


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
    def _expansion_plan(self) -> ExpansionPlan:
        split = [tuple(zip(*p.constraints)) or ((), ()) for p in self.patterns]  # (bits, values)
        ids: dict[frozenset[int], int] = {}
        rows: dict[tuple[int, ...], np.ndarray] = {}
        for bits, _ in split:
            if bits not in rows:
                rows[bits] = np.array([ids.setdefault(s, len(ids)) for s in _subsets(bits)])
        first_seen = np.concatenate([rows[bits] for bits, _ in split])
        # Rows go in order of their entry count, cut into blocks where the
        # count passes a power of two, so padding at most doubles a block.
        counts = np.bincount(first_seen)
        row_order = np.argsort(counts, kind="stable")
        row = np.empty_like(row_order)
        row[row_order] = np.arange(len(row_order))
        counts = counts[row_order]
        starts = np.flatnonzero(np.diff(np.frexp(counts - 1)[1], prepend=-1))
        stops = np.append(starts[1:], len(counts))
        widths = counts[stops - 1] + 1
        row_width = np.repeat(widths, stops - starts)
        row_start = np.cumsum(row_width) - row_width
        support_ids = row[first_seen]
        # an entry's rank: the number of earlier entries on its support
        rank = np.empty_like(support_ids)
        rank[np.argsort(support_ids, kind="stable")] = (
            np.arange(len(support_ids)) - np.repeat(np.cumsum(counts) - counts, counts)
        )
        ks = np.array([len(bits) for bits, _ in split])
        supports = tuple(ids)
        return ExpansionPlan(
            supports=tuple(supports[i] for i in row_order.tolist()),
            support=support_ids,
            pattern=np.repeat(np.arange(len(ks)), 1 << ks),
            sign=np.concatenate([_parities(values) for _, values in split]),
            scale=np.ldexp(1.0, ks),
            slot=row_start[support_ids] + rank + 1,
            blocks=tuple(zip(row_start[starts].tolist(),
                             (row_start + row_width)[stops - 1].tolist(), widths.tolist())),
        )

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


@lru_cache(maxsize=64)
def _subsets(bits: tuple[int, ...]) -> tuple[frozenset[int], ...]:
    """Every subset of the positions, by size and then in combinations order."""
    return tuple(
        frozenset(subset)
        for size in range(len(bits) + 1)
        for subset in itertools.combinations(bits, size)
    )


@lru_cache(maxsize=64)
def _parities(values: tuple[int, ...]) -> np.ndarray:
    """(-1.0)**(number of ones) of every subset of the values, in the order of
    `_subsets`: the signs of a pattern's Z-string terms.  Read-only."""
    signs = np.array([
        (-1.0) ** sum(subset)
        for size in range(len(values) + 1)
        for subset in itertools.combinations(values, size)
    ])
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
    """All 2**k patterns fixing the given positions, in binary value order."""
    k = len(positions)
    return tuple(
        Pattern(tuple(zip(positions, values)))
        for values in itertools.product((0, 1), repeat=k)
    )


def nearest_neighbor_patterns(n: int) -> MeasurementSet:
    """All four value assignments for each adjacent bit pair: M = 4(n-1).

    Ordering is pair-major, value-combination minor (00, 01, 10, 11), so
    marginal indices are stable across runs.  The set is built once per n
    and shared, together with its cached masks, table runs and expansion
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
