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

from .signal import (SparseSignal, _check_bit_count, _check_dense_size, _read_count, _read_fields,
                     _read_int, _read_seed)

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
    """An ordered list of patterns over a common n-bit index space, kept as a
    tuple: the cached masks, runs and plans below read it.  n is read by
    _read_int, as every integer field of a record is."""

    n: int
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        _read_fields(self, _read_int, "n")
        object.__setattr__(self, "patterns", tuple(self.patterns))
        _check_bit_count(self.n)
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
            masks = [0]  # masks[s]: the first position is the top bit of s
            for b in reversed(bits):
                masks += [mask | 1 << (self.n - b) for mask in masks]
            groups.setdefault((k, stop - start), []).append(
                (start, len(support_ids), np.arange(1 << k) if slots is None else slots))
            support_ids.extend(ids.setdefault(mask, len(ids)) for mask in masks)
        plan = []
        for (k, m), runs in groups.items():
            starts, firsts, slots = (np.array(column) for column in zip(*runs))
            values = np.arange(1 << k)
            rows = np.ldexp(_signs(k)[slots[:, :, None] & values], -k)
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
        masks, wants = self._masks_wants
        return (self._read_index(z) & masks) == wants

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
        patterns = tuple(Pattern(tuple((c["bit"], c["val"]) for c in row))
                         for row in data["patterns"])
        return cls(n=data["n"], patterns=patterns)

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

    The first pattern checks the positions, and the others take them as it
    read them; the values are 0 or 1 by construction, so the others skip
    the check.
    """
    values = itertools.product((0, 1), repeat=len(positions))
    first = Pattern(tuple(zip(positions, next(values))))
    positions = tuple(b for b, _ in first.constraints)
    return (first,) + tuple(Pattern._unchecked(tuple(zip(positions, v))) for v in values)


_NEAREST_NEIGHBOR_SETS: dict[int, MeasurementSet] = {}


def nearest_neighbor_patterns(n: int) -> MeasurementSet:
    """All four value assignments for each adjacent bit pair: M = 4(n-1).

    Ordering is pair-major, value-combination minor (00, 01, 10, 11), so
    marginal indices are stable across runs.  The set is built once per n
    and shared, together with its cached masks, table runs, transform plan
    and chain slots; it is frozen, so callers cannot tell the difference.  n
    is read by _read_int and checked against INDEX_BITS_CAP before any
    pattern is built.
    """
    n = _read_int(n, "n")
    if n < 2:
        raise ValueError(f"nearest-neighbor patterns need n >= 2, got {n}")
    _check_bit_count(n)
    if n not in _NEAREST_NEIGHBOR_SETS:
        patterns = [p for i in range(1, n) for p in value_assignment_group((i, i + 1))]
        _NEAREST_NEIGHBOR_SETS[n] = MeasurementSet(n=n, patterns=tuple(patterns))
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
    patterns: list[Pattern] = []
    for quad in quadruplets:
        patterns.extend(value_assignment_group(quad))
    return MeasurementSet(n=n, patterns=tuple(patterns))


def complete_patterns(n: int) -> MeasurementSet:
    """All 2**n patterns fixing every bit: the identity measurement."""
    n = _read_int(n, "n")
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


def _per_pattern(v, ms: MeasurementSet, name: str = "residual") -> np.ndarray:
    """v as a float array, checked to be a vector with one entry per pattern of ms."""
    v = np.asarray(v, dtype=float)
    if v.shape != (len(ms.patterns),):
        raise ValueError(f"{name} must be a length-{len(ms.patterns)} vector, got shape {v.shape}")
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
    masks, wants = ms._masks_wants
    match = (np.array([ms._read_index(z) for z in zs], dtype=np.int64)[:, None] & masks) == wants
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
