"""Structured binary measurement patterns and implicit-matrix marginals.

A pattern fixes the values of a chosen uplet of index bits; the measurement
matrix row it describes is 1 at every index consistent with those fixed bits
and 0 elsewhere.  The matrix is never stored: a `MeasurementSet` is n and two
int64 arrays, each pattern's mask of fixed bits and want of fixed values (an
index z matches iff z & mask == want), and measuring, column dots and the
table runs below all read them.  `_bit_masks` is the one rule that turns
1-based positions into a mask, here and in the hamiltonian module.

A^T r over all 2**n indices is a sum of small tables: a pattern fixing k
bits adds r_i at the one entry of a 2**k table, indexed by those bits' values,
that it matches.  `_add_table` adds such a table to the 2**n accumulator in
one broadcast add, viewing the accumulator as a block array (one axis per
run of free bits, one per run of fixed bits) so that it needs no index
arrays and no masks.  `all_column_dots` adds one table per run of
consecutive patterns: a run continues while the mask stays the same and the
want has not yet appeared in it.  This is bit
for bit the one-masked-pass-per-pattern sum: an index matches at most one
pattern of a run, so it receives the same nonzero addends in the same
order, and the 0.0 added at unmatched entries changes nothing, because the
accumulator starts at +0.0 and a sum can only be -0.0 when both addends are.
When fewer than FOLD_BITS free bits follow the last fixed bit of a large
space, the table is first spread over those last bits, so that numpy's
innermost loop stays long; the spread table may hold +0.0 for -0.0, which
is exact for the same reason.

Sliding-window sets, whose runs are the whole value-assignment groups on
bits (1..k), (2..k+1), ..., (n-k+1..n) in that order (nearest-neighbour
sets are k = 2), take prefix stages instead (`_window_stages`): the sum over
the first j runs depends only on bits 1..j+k-1, so stage j extends stage
j-1 by one low bit with 2**k strided adds of one table entry each, and only
the last stage spans 2**n entries.  Every index still receives the same
addends in the same order, from a +0.0 start, so the result is bit for bit
the table kernel's.

The Hamiltonian builder reads the same runs as Walsh-Hadamard transforms
(`_transform_plan`), which name each support by its int64 bit mask alone; H's
diagonal and the chain solver (`_chain_slots`) read those masks, and
`nearest_neighbor_patterns` builds its set once per n, so the table runs,
plan and slots of a nearest-neighbour set are made once per process.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .signal import (SparseSignal, _check_bit_count, _check_dense_size, _json_fields, _json_list,
                     _read_count, _read_int, _read_seed)

# The largest n of complete_patterns, whose 2**n patterns form an explicit matrix.
DENSE_MATRIX_CAP = 10


@dataclass(frozen=True)
class Pattern:
    """One measurement row: a list of (bit position, fixed value) constraints,
    kept as a tuple of pairs, each bit and value read by _read_int.

    Bit positions are 1-based with bit 1 the most significant.  An empty
    constraint list is the all-ones row.
    """

    constraints: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple((_read_int(b, "bit"), _read_int(v, "val"))
                                                      for b, v in self.constraints))
        bits = [b for b, _ in self.constraints]
        if len(set(bits)) != len(bits):
            raise ValueError("constrained bit positions must be pairwise distinct")
        for bit, val in self.constraints:
            if bit < 1:
                raise ValueError(f"bit positions are 1-based, got {bit}")
            if val not in (0, 1):
                raise ValueError(f"fixed value must be 0 or 1, got {val}")


def _bit_masks(n: int, positions, where=True) -> np.ndarray:
    """The int64 masks of 1-based positions along positions' last axis: the
    sum of 1 << (n - b) over the positions b at which `where` holds, so that
    bit 1 is the most significant of n bits.  `where` broadcasts with
    positions; an empty last axis gives 0."""
    places = np.left_shift(1, n - np.asarray(positions, dtype=np.int64))
    return np.bitwise_or.reduce(np.where(where, places, 0), axis=-1)


def _mask_bits(n: int, mask: int) -> list[int]:
    """The 1-based positions of a mask's set bits in ascending order, by a
    walk over them from the highest: position 1 is 1 << (n - 1)."""
    bits = []
    while mask:
        bits.append(n + 1 - mask.bit_length())
        mask ^= 1 << (n - bits[-1])
    return bits


@lru_cache(maxsize=None)
def _binary_values(k: int) -> np.ndarray:
    """Row v: the k bits of v as bools, the first the most significant; shared, never written."""
    return np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1) & 1 == 1


@dataclass(frozen=True, init=False)
class MeasurementSet:
    """An ordered list of patterns over a common n-bit index space, held as n
    and each pattern's int64 mask and want (see the module docstring).

    `MeasurementSet(n, patterns)` reads n by _read_int, checks every bit
    against it and keeps the patterns, as a tuple.  The generators build
    their sets with `_groups`, in numpy, and such a set makes its `patterns`,
    each in ascending bit order, only when they are read: by `to_dict`,
    equality, hashing or `repr`."""

    def _read_back(self) -> tuple[Pattern, ...]:
        """A `_groups` set's patterns, read back from its masks and wants."""
        return tuple(Pattern(tuple((b, want >> (self.n - b) & 1) for b in _mask_bits(self.n, mask)))
                     for mask, want in zip(self._masks.tolist(), self._wants.tolist()))

    n: int
    patterns: tuple[Pattern, ...] = cached_property(_read_back)  # unless __init__ keeps them

    def __init__(self, n: int, patterns: tuple[Pattern, ...]):
        n, patterns = _read_int(n, "n"), tuple(patterns)
        _check_bit_count(n)
        if not patterns:
            raise ValueError("a measurement set needs at least one pattern")
        outside = next((b for p in patterns for b, _ in p.constraints if b > n), None)
        if outside is not None:
            raise ValueError(f"bit {outside} outside [1, {n}]")
        masks = [_bit_masks(n, [b for b, _ in p.constraints]) for p in patterns]
        wants = [_bit_masks(n, [b for b, v in p.constraints if v]) for p in patterns]
        vars(self).update(n=n, patterns=patterns, _masks=np.array(masks), _wants=np.array(wants))

    @classmethod
    def _groups(cls, n: int, positions: np.ndarray) -> "MeasurementSet":
        """The value-assignment groups on the rows of a (G, k) array of 1-based
        positions, already checked against n, each in binary value order."""
        ms = cls.__new__(cls)
        k = positions.shape[1]
        vars(ms).update(n=n, _masks=np.repeat(_bit_masks(n, positions), 1 << k),
                        _wants=_bit_masks(n, positions[:, None], _binary_values(k)).ravel())
        return ms

    def __len__(self) -> int:
        return len(self._masks)

    @cached_property
    def _table_runs(self) -> tuple[tuple[int, int, tuple[int, ...], np.ndarray | None], ...]:
        """(start, stop, bits, slots) per run of consecutive patterns, by one
        rule: a run continues while the mask stays the same and the want has
        not yet appeared in it.  bits are the mask's positions in ascending
        order.  Pattern start + i fills entry slots[i] of the run's 2**k
        table, its want's bits read at those positions, the first one most
        significant; slots is None when the run is the whole value-assignment
        group in binary order."""
        n, masks, wants = self.n, self._masks, self._wants
        starts, seen, last = [], set(), None
        for i, (mask, want) in enumerate(zip(masks.tolist(), wants.tolist())):
            if mask != last or want in seen:
                starts.append(i)
                seen, last = set(), mask
            seen.add(want)
        slots = np.zeros_like(masks)
        for shift in range(n - 1, -1, -1):  # from bit 1 down
            bit = masks >> shift & 1
            slots = slots << bit | wants >> shift & bit
        runs = []
        for start, stop in zip(starts, starts[1:] + [len(masks)]):
            bits, run = tuple(_mask_bits(n, int(masks[start]))), slots[start:stop]
            whole = len(run) == 1 << len(bits) and (run == np.arange(len(run))).all()
            runs.append((start, stop, bits, None if whole else run))
        return tuple(runs)

    @cached_property
    def _window_width(self) -> int | None:
        """k when the table runs are the whole value-assignment groups in
        binary order on the sliding windows (1..k), (2..k+1), ..., (n-k+1..n),
        one run per window in that order, with k >= 1; None otherwise."""
        runs = self._table_runs
        k = len(runs[0][2])
        if k == 0 or len(runs) != self.n - k + 1:
            return None
        for first, (_, _, bits, slots) in enumerate(runs, start=1):
            if slots is not None or bits != tuple(range(first, first + k)):
                return None
        return k

    @cached_property
    def _transform_plan(self) -> tuple[np.ndarray, np.ndarray,
                                       tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]]:
        """(masks, ids, groups) for the Hamiltonian builder.  Entry s of a
        run's transform belongs to the positions whose table bits s sets; ids
        names that support for every entry, run by run, and masks (int64) go in
        the order the runs first name them.  A group holds the runs with the same
        table size k and pattern count m: their (runs, m) indices into r, the
        (runs, m, 2**k) transform rows (-1)**popcount(slot & s) / 2**k of
        their patterns, and the (runs, 2**k) places of their entries in ids."""
        ids: dict[int, int] = {}
        support_ids: list[int] = []
        groups: dict[tuple[int, int], list[tuple[int, int, np.ndarray]]] = {}
        for start, stop, bits, slots in self._table_runs:
            k = len(bits)
            groups.setdefault((k, stop - start), []).append(
                (start, len(support_ids), np.arange(1 << k) if slots is None else slots))
            masks = _bit_masks(self.n, bits, _binary_values(k))  # entry s: bits where s is 1
            support_ids.extend(ids.setdefault(mask, len(ids)) for mask in masks.tolist())
        plan = []
        for (k, m), runs in groups.items():
            starts, firsts, slots = (np.array(column) for column in zip(*runs))
            values = np.arange(1 << k)
            rows = np.ldexp((-1.0) ** np.bitwise_count(slots[:, :, None] & values), -k)
            plan.append((starts[:, None] + np.arange(m), rows, firsts[:, None] + values))
        return np.fromiter(ids, np.int64, len(ids)), np.array(support_ids), tuple(plan)

    @cached_property
    def _chain_slots(self) -> np.ndarray:
        """Each `_transform_plan` mask's cell in the chain solver's flat list
        of 2n + 2: 0 for the constant, i for the field at site i (1 << (n - i)),
        2n - i for the coupling of sites (i, i+1) (3 << (n - i - 1)), and
        2n + 1 for a support that no chain holds."""
        n = self.n
        cells = {0: 0} | {1 << (n - i): i for i in range(1, n + 1)}
        cells |= {3 << (n - i - 1): 2 * n - i for i in range(1, n)}
        return np.array([cells.get(mask, 2 * n + 1) for mask in self._transform_plan[0].tolist()],
                        dtype=np.intp)

    def _read_index(self, z) -> int:
        """z as an index in [0, 2**n): an integer as _read_int reads one."""
        if type(z) is not int or not 0 <= z < 1 << self.n:
            z = _read_int(z, "index")
            if not 0 <= z < 1 << self.n:
                raise ValueError(f"index {z} outside [0, {1 << self.n})")
        return z

    def match_vector(self, z: int) -> np.ndarray:
        """Boolean vector over patterns: the implicit column of A at index z,
        which must be an integer in [0, 2**n)."""
        return (self._read_index(z) & self._masks) == self._wants

    def to_dict(self) -> dict:
        patterns = [[{"bit": b, "val": v} for b, v in p.constraints] for p in self.patterns]
        return {"n": self.n, "patterns": patterns}

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "MeasurementSet":
        n, rows = _json_fields(data, "pattern set", "n", "patterns")
        return cls(n, (Pattern(tuple(_json_fields(c, "constraint", "bit", "val")
                                     for c in _json_list(row, "pattern")))
                       for row in _json_list(rows, "patterns")))

    @classmethod
    def from_json(cls, text: str) -> "MeasurementSet":
        return cls.from_dict(json.loads(text))


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


_NEAREST_NEIGHBOR_SETS: dict[int, MeasurementSet] = {}


def nearest_neighbor_patterns(n: int) -> MeasurementSet:
    """All four value assignments for each adjacent bit pair: M = 4(n-1).

    Ordering is pair-major, value-combination minor (00, 01, 10, 11), so
    marginal indices are stable across runs.  The set is built once per n
    and shared, together with its cached masks, table runs, transform plan
    and chain slots; it is frozen, so callers cannot tell the difference.  n
    is read by _read_int and checked against INDEX_BITS_CAP before the set is
    built from its pairs' positions.
    """
    n = _read_int(n, "n")
    if n < 2:
        raise ValueError(f"nearest-neighbor patterns need n >= 2, got {n}")
    _check_bit_count(n)
    if n not in _NEAREST_NEIGHBOR_SETS:
        _NEAREST_NEIGHBOR_SETS[n] = MeasurementSet._groups(n, np.arange(1, n)[:, None] + [0, 1])
    return _NEAREST_NEIGHBOR_SETS[n]


def _check_quadruplets(n: int, q: int) -> None:
    """n >= 4 and 1 <= q <= C(n, 4): q distinct quadruplets can be drawn."""
    if n < 4:
        raise ValueError(f"quadruplet patterns need n >= 4, got {n}")
    _read_count(q, "quadruplet count")
    total = math.comb(n, 4)
    if q > total:
        raise ValueError(f"cannot draw {q} distinct quadruplets from C({n},4) = {total}")


def random_quadruplet_patterns(n: int, q: int, seed=None) -> MeasurementSet:
    """q distinct random bit quadruplets, each with all 16 value assignments.

    M = 16q.  Quadruplets are drawn uniformly over the C(n, 4) position
    subsets, without repetition across the set; n is checked against
    INDEX_BITS_CAP first, so the subset list holds at most C(63, 4) = 595,665.
    n and q are read by _read_int before either check, and a seed that is
    not None by _read_seed.
    """
    n, q = _read_int(n, "n"), _read_int(q, "q")
    seed = None if seed is None else _read_seed(seed)
    _check_quadruplets(n, q)
    _check_bit_count(n)
    rng = np.random.default_rng(seed)
    combos = list(itertools.combinations(range(1, n + 1), 4))
    quadruplets = [combos[i] for i in rng.choice(len(combos), size=q, replace=False)]
    return MeasurementSet._groups(n, np.array(quadruplets))


def complete_patterns(n: int) -> MeasurementSet:
    """All 2**n patterns fixing every bit: the identity measurement."""
    n = _read_int(n, "n")
    if n > DENSE_MATRIX_CAP:
        raise ValueError(f"complete pattern set has 2**{n} rows (cap {DENSE_MATRIX_CAP})")
    _check_bit_count(n)
    return MeasurementSet._groups(n, np.arange(1, n + 1)[None])


def measure(signal: SparseSignal, ms: MeasurementSet) -> np.ndarray:
    """Marginals y = A x: y[i] sums spike values consistent with pattern i."""
    if signal.n != ms.n:
        raise ValueError(f"signal has n={signal.n} but measurement set has n={ms.n}")
    y = np.zeros(len(ms))
    for pos, val in signal.spikes:
        y[ms.match_vector(pos)] += val
    return y


def _per_pattern(v, ms: MeasurementSet, name: str = "residual") -> np.ndarray:
    """v as a float array, checked to be a vector with one entry per pattern of ms."""
    v = np.asarray(v, dtype=float)
    if v.shape != (len(ms),):
        raise ValueError(f"{name} must be a length-{len(ms)} vector, got shape {v.shape}")
    return v


def column_dot(z: int, r: np.ndarray, ms: MeasurementSet) -> float:
    """Signed correlation of column z with r: the entry (A^T r)_z, for an
    index z that match_vector reads."""
    return float(np.add.reduce(_per_pattern(r, ms)[ms.match_vector(z)]))


def column_dots(zs: list[int], r: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """column_dot(z, r, ms) for every index z in zs, bit for bit, in one pass;
    each z is read as match_vector reads it.

    The (len(zs), patterns) match matrix names each index's addends in
    pattern order.  The rows with the same match count m are gathered into
    one (rows, m) array of r's entries, and one np.add.reduce along axis 1
    sums each row with the pairwise sum that column_dot's 1-D reduce runs.
    np.add.reduceat over the rows laid end to end would not: it sums each
    segment in another order, and differs in the last bit on most random
    segmentings.
    """
    r = _per_pattern(r, ms)
    zs = np.array([ms._read_index(z) for z in zs], dtype=np.int64)
    match = (zs[:, None] & ms._masks) == ms._wants
    counts = np.count_nonzero(match, axis=1)
    dots = np.empty(len(match))
    for m in set(counts.tolist()):
        rows = np.flatnonzero(counts == m)
        picked = np.nonzero(match[rows])[1].reshape(len(rows), m)
        dots[rows] = np.add.reduce(r[picked], axis=1)
    return dots


def _extend_stage(out: np.ndarray, prev: np.ndarray, table: list[float]) -> None:
    """out[2w + b] = prev[w] + table[2u + b] for u the low k-1 bits of w,
    where table holds 2**k entries: one strided add of a Python float per
    table entry."""
    size = len(table)
    for v, entry in enumerate(table):
        np.add(prev[v >> 1::size >> 1], entry, out[v::size])


def _window_stages(r: np.ndarray, n: int, k: int) -> np.ndarray:
    """A^T r for a sliding-window set of width k (see `_window_width`).

    Stage j holds, for every value of bits 1..j+k-1, the sum of the first j
    runs' entries: stage 1 is 0.0 + r's first table (the +0.0 start turns
    -0.0 into +0.0, as the table kernel's zero accumulator does), and stage
    j adds run j's entry, read on bits j..j+k-1, to stage j-1's entry on
    bits 1..j+k-2.  The stages alternate between the output's two halves so
    that stage n-k fills its second half; the last stage then writes the
    first half from that stage's first quarter, and the second half from a
    copy of its last quarter.  The peak is 1.25 * 2**n floats.
    """
    size = 1 << k
    out = np.empty(1 << n)
    if n == k:
        return np.add(0.0, r, out)
    half = 1 << (n - 1)

    def stage(j: int) -> np.ndarray:
        length = 1 << (j + k - 1)
        return out[half:half + length] if (n - k - j) % 2 == 0 else out[:length]

    tables = r.tolist()
    prev = np.add(0.0, r[:size], stage(1))
    for j in range(2, n - k + 1):
        cur = stage(j)
        _extend_stage(cur, prev, tables[(j - 1) * size:j * size])
        prev = cur
    table = tables[(n - k) * size:]
    _extend_stage(out[:half], prev[:half // 2], table)
    _extend_stage(out[half:], prev[half // 2:].copy(), table)
    return out


def all_column_dots(r: np.ndarray, ms: MeasurementSet) -> np.ndarray:
    """The full vector A^T r over all 2**n indices, for n <= DENSE_VECTOR_CAP.

    A sliding-window set (nearest-neighbour sets among them) takes the
    prefix stages of `_window_stages`; every other set adds one table per
    run with `_add_table`.  Both give every index the same addends in the
    same order from +0.0, so both are bit for bit the one-masked-pass-per-
    pattern sum.
    """
    _check_dense_size(ms.n)
    r = _per_pattern(r, ms)
    k = ms._window_width
    if k is not None:
        return _window_stages(r, ms.n, k)
    acc = np.zeros(1 << ms.n)
    for start, stop, bits, slots in ms._table_runs:
        if slots is None:
            table = r[start:stop]
        else:
            table = np.zeros(1 << len(bits))
            table[slots] = r[start:stop]
        _add_table(acc, ms.n, bits, table)
    return acc
