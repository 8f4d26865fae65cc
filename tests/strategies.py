"""Hypothesis strategies and fixed inputs that several test modules share.

Test modules import from here and from `oracles`, never from each other.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)

# 1 under the default profile, 5 under --hypothesis-profile=ci.
DEPTH = settings.default.max_examples // 100

# Residual and coefficient entries: signed zeros, subnormals and values of
# every scale up to 1e3.
SCALED_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-60, 20)),
)
# Diagonal and amplitude entries: signed zeros, subnormals and huge values.
EXTREME_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.0**50, -(2.0**50)]),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-1074, 50)),
)
# Few distinct values, many of them equal or zero: entries that tie, so that
# tie rules decide.
TIED = st.sampled_from([0.0, 0.0, 0.5, -0.5, 1.0, -1.0, 2.0])
# Zero and negative angles, tiny and huge magnitudes.
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, -np.pi, 2.0**50, -(2.0**50)]),
    st.floats(-20.0, 20.0, allow_nan=False),
    st.builds(lambda m, e: m * 2.0**e, st.floats(-1.0, 1.0), st.integers(-1074, 50)),
)

# Every sign combination of a zero amplitude.  The sign of each zero that
# comes out follows from the exact operands: in an RX gate, i * -sin(t / 2)
# and -i * sin(t / 2) give different zeros.
SIGNED_ZEROS = np.array([complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)])


def wide_values(rng: np.random.Generator, shape) -> np.ndarray:
    """Normal draws, each scaled by 2**e for e in [-60, 50) when rng says so."""
    x = rng.normal(size=shape)
    if rng.random() < 0.5:
        x *= 2.0 ** rng.integers(-60, 50, size=shape)
    return x


def overwrite(draw, a: np.ndarray, values) -> None:
    """Put a few drawn values at drawn flat positions of a."""
    flat = a.reshape(-1)
    for _ in range(draw(st.integers(0, 8))):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(values)


@st.composite
def states(draw, n):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = wide_values(rng, 1 << n) + 1j * wide_values(rng, 1 << n)
    overwrite(draw, psi.view(float), EXTREME_ENTRIES)
    return psi


@st.composite
def hamiltonians(draw, max_n=5):
    """1 to 6 terms on at most max_n qubits, each on up to 4 of them, with
    coefficients in [-2, 2] away from zero."""
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(1, 6))
    terms = {}
    for _ in range(m):
        size = draw(st.integers(0, min(4, n)))
        support = frozenset(
            draw(st.lists(st.integers(1, n), min_size=size, max_size=size, unique=True))
        )
        terms[support] = draw(
            st.floats(-2, 2).filter(lambda c: abs(c) > 1e-6)
        )
    return IsingHamiltonian(n, terms)


@st.composite
def wide_hamiltonians(draw, entries):
    """Up to 12 distinct supports, each on up to 6 of at most 12 qubits,
    with coefficients drawn from `entries`."""
    n = draw(st.integers(1, 12))
    supports = draw(st.lists(
        st.frozensets(st.integers(1, n), max_size=min(n, 6)), max_size=12, unique=True,
    ))
    return IsingHamiltonian(n, {s: draw(entries) for s in supports})


@st.composite
def measurement_sets(draw, max_n=8):
    """A nearest-neighbour set, up to 3 random quadruplets, or 1 to 8 ad hoc
    patterns, on 1 to max_n bits; ad hoc patterns fix any number of bits,
    none included."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(("nn", "quad", "adhoc")))
    if kind == "nn" and n >= 2:
        return nearest_neighbor_patterns(n)
    if kind == "quad" and n >= 4:
        q = draw(st.integers(1, min(3, math.comb(n, 4))))
        return random_quadruplet_patterns(n, q, seed=draw(st.integers(0, 2**31)))
    patterns = []
    for _ in range(draw(st.integers(1, 8))):
        bits = draw(st.lists(st.integers(1, n), unique=True, max_size=n))
        patterns.append(Pattern(tuple((b, draw(st.integers(0, 1))) for b in bits)))
    return MeasurementSet(n, tuple(patterns))


@st.composite
def built_hamiltonians(draw):
    """build_hamiltonian on a set from `measurement_sets` and a residual of
    every scale with signed zeros and subnormals."""
    ms = draw(measurement_sets())
    r = wide_values(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), len(ms))
    overwrite(draw, r, SCALED_ENTRIES)
    return build_hamiltonian(ms, r)


@st.composite
def pattern_lists(draw, n):
    """Blocks of patterns on a few shared position sets: whole groups in
    binary order on up to 5 positions, and on up to 8 positions partial
    groups, single patterns among them, with repeated values and unsorted
    constraint tuples.  Blocks on one position set may interleave."""
    position_sets = draw(st.lists(
        st.lists(st.integers(1, n), unique=True, max_size=min(n, 8)), min_size=2, max_size=3,
    ))
    patterns = []
    for _ in range(draw(st.integers(2, 8))):
        positions = draw(st.sampled_from(position_sets))
        k = len(positions)
        if k <= 5 and draw(st.booleans()):
            values = range(1 << k)
            positions = sorted(positions)
        else:
            values = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=1,
                                   max_size=min(1 << k, 8)))
        for v in values:
            fixed = [(b, (v >> (k - 1 - i)) & 1) for i, b in enumerate(positions)]
            patterns.append(Pattern(tuple(draw(st.permutations(fixed)))))
    return patterns
