"""chain_dp_solve against the numpy-array form of the chain dynamic program
in `oracles`: the same position, score and diagnostics, compared by repr,
on nearest-neighbour sets of every size up to the index-width cap.  The
fused max/min sweep is also checked on raw chains, signed zeros included,
against the oracle's max sweep run twice, once on the negated chain.  The
slot scatter that reads a built Hamiltonian's chain coefficients is checked
against the oracle's term-by-term split of its terms on every draw of the
solver's property, pruned terms and empty Hamiltonians among them; the
solver also runs on quadruplet sets whose non-chain terms prune away, and
refuses those whose non-chain terms survive, without making the terms
dict.  The plan's support masks and their chain slots are checked against
the frozenset rule of `oracles.chain_slot` at every nearest-neighbour width
and on quadruplet sets."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit import solvers
from isingpursuit.hamiltonian import build_hamiltonian
from isingpursuit.measurement import nearest_neighbor_patterns, random_quadruplet_patterns
from isingpursuit.solvers import (
    ChainStructureError,
    _chain_extrema,
    _chain_params,
    chain_dp_solve,
)

from oracles import (_chain_max_arrays, _chain_params_arrays, chain_dp_solve_arrays,
                     plan_masks_and_slots)
from strategies import DEPTH, SCALED_ENTRIES, TIED

# Tied entries give fields and couplings that tie, so the DP's tie rule
# decides the position.
RESIDUAL_ENTRIES = st.sampled_from([SCALED_ENTRIES, TIED, st.one_of(SCALED_ENTRIES, TIED)])


@st.composite
def chain_cases(draw):
    ms = nearest_neighbor_patterns(draw(st.integers(2, 63)))
    entries = draw(RESIDUAL_ENTRIES)
    r = draw(st.lists(entries, min_size=len(ms), max_size=len(ms)))
    return ms, np.array(r)


def fingerprint(out) -> str:
    """repr of the outcome, with numpy scalars as the floats they hold."""
    plain = {k: v if isinstance(v, str) else float(v) for k, v in out.diagnostics.items()}
    return repr((out.position, float(out.score), plain))


def chain_terms(const, fields, couplings, n) -> str:
    """repr of the constant, fields 1..n and couplings 1..n-1 as floats: the
    entries the sweep reads, whatever either form keeps at index 0."""
    return repr((float(const), [float(v) for v in fields[1:n + 1]],
                 [float(v) for v in couplings[1:n]]))


@settings(max_examples=100 * DEPTH)
@given(chain_cases())
@example((nearest_neighbor_patterns(5), np.zeros(16)))
@example((nearest_neighbor_patterns(4), np.array([1.0, 0.0, 0.0, 1.0] * 3)))
# all zero: min_value is +0.0, and every choice ties at all 62 sites
@example((nearest_neighbor_patterns(2), np.zeros(4)))
@example((nearest_neighbor_patterns(63), np.zeros(248)))
# h = 1 at z=3 and -1 at z=0: |max| == |min|, so the position is the max's
@example((nearest_neighbor_patterns(2), np.array([-1.0, 0.0, 0.0, 1.0])))
# zero fields, h = -1 at z=1 and z=2: the min's tie rule picks z=1
@example((nearest_neighbor_patterns(2), np.array([0.0, -1.0, -1.0, 0.0])))
# couplings +0.5, -0.5, ... and no fields: max 31 and min -31, each twice
@example((nearest_neighbor_patterns(63), np.concatenate(
    [0.5 * (-1.0) ** i * np.array([1.0, -1.0, -1.0, 1.0]) for i in range(62)])))
# a constant residual on every pair: every field and coupling prunes away
@example((nearest_neighbor_patterns(5), np.full(16, 0.5)))
# the pairs (1, 2) and (3, 4) constant, (2, 3) not: only its terms are kept
@example((nearest_neighbor_patterns(4), np.array([1.0] * 4 + [0.0, 1.0, 2.0, -1.0] + [-2.0] * 4)))
# everything cancels: an empty Hamiltonian
@example((nearest_neighbor_patterns(3), np.zeros(8)))
def test_chain_dp_matches_the_array_oracle(case):
    ms, r = case
    H = build_hamiltonian(ms, r)
    scattered = chain_terms(*_chain_params(H, ms._chain_slots), ms.n)
    assert scattered == chain_terms(*_chain_params_arrays(H), ms.n)
    assert fingerprint(chain_dp_solve(ms, r)) == fingerprint(chain_dp_solve_arrays(ms, r))


@pytest.mark.parametrize("kind", ["nn", "quad"])
def test_chain_slots_follow_the_frozenset_rule_at_every_width(kind):
    # every nearest-neighbour width up to the index-width cap, where qubit 1
    # is 1 << 62; quadruplet sets hold non-adjacent pairs and larger supports
    if kind == "nn":
        sets = [nearest_neighbor_patterns(n) for n in range(2, 64)]
    else:
        sets = [random_quadruplet_patterns(n, min(n, math.comb(n, 4)), seed=seed)
                for n in (4, 5, 6, 10, 16, 40, 63) for seed in range(2)]
    for ms in sets:
        assert (ms._transform_plan[0].tolist(), ms._chain_slots.tolist()) == plan_masks_and_slots(ms)


def two_pass_extrema(const, fields, couplings, n):
    """The oracle's max sweep on the chain and on its negation."""
    fields, couplings = np.array(fields), np.array(couplings)
    z_max, v_max = _chain_max_arrays(const, fields, couplings, n)
    z_min, neg_min = _chain_max_arrays(-const, -fields, -couplings, n)
    return z_max, float(v_max), z_min, float(0.0 - neg_min)


SIGNED = st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0, 5e-324, -5e-324])


@st.composite
def raw_chains(draw):
    n = draw(st.integers(1, 63))
    entries = draw(st.sampled_from([SIGNED, SCALED_ENTRIES, st.one_of(SIGNED, SCALED_ENTRIES)]))
    fields = draw(st.lists(entries, min_size=n, max_size=n))
    couplings = draw(st.lists(entries, min_size=n - 1, max_size=n - 1))
    # index 0 of both lists is unused: fields[i] is site i, couplings[i] pairs (i, i+1)
    return draw(entries), [0.0, *fields], [0.0, *couplings], n


@settings(max_examples=100 * DEPTH)
@given(raw_chains())
# -0.0 constant and field: const + min sums to -0.0, which must come out
# +0.0, as the two-pass form's 0.0 - max(-h) gives
@example((-0.0, [0.0, -0.0], [0.0], 1))
# Every comparison the sweep records ties, in both lanes, at all 62 sites:
# all +0.0 or all -0.0 fields and couplings read the choices given bit 0;
# a first field of -1 (+1) sends the max (min) lane to bit 1 at site 1, so
# that lane reads the tied choices given bit 1 instead.
@example((0.0, [0.0] * 64, [0.0] * 63, 63))
@example((-0.0, [0.0] + [-0.0] * 63, [0.0] + [-0.0] * 62, 63))
@example((0.0, [0.0, -1.0] + [0.0] * 62, [0.0] * 63, 63))
@example((0.0, [0.0, 1.0] + [0.0] * 62, [0.0] * 63, 63))
# Equal fields and zero couplings: no comparison ties, and the two lanes
# record opposite choices at every site, bit 0 for the max, bit 1 for the min
@example((0.0, [0.0] + [0.5] * 63, [0.0] * 63, 63))
def test_fused_sweep_matches_two_max_sweeps(chain):
    fused = _chain_extrema(*chain)
    assert repr(fused) == repr(two_pass_extrema(*chain))


@settings(max_examples=20 * DEPTH)
@given(st.integers(0, 2**32 - 1), st.lists(st.integers(-8, 8), min_size=3, max_size=3))
def test_quad_sets_whose_non_chain_terms_prune_away_solve(seed, per_run):
    # one integer residual per quadruplet: each run's transform is its
    # constant, and every other entry sums to exactly zero and is pruned
    ms = random_quadruplet_patterns(6, 3, seed=seed)
    r = np.repeat(np.array(per_run, dtype=float), 16)
    assert build_hamiltonian(ms, r).max_support_size() == 0
    assert fingerprint(chain_dp_solve(ms, r)) == fingerprint(chain_dp_solve_arrays(ms, r))


def kept_non_chain_case(kept, seed):
    """A quadruplet set, and a constant residual plus one Walsh function of
    the first quadruplet's table: of its non-constant terms only the support
    on the positions `kept` indexes survives."""
    ms = random_quadruplet_patterns(6, 3, seed=seed)
    mask = sum(1 << (3 - i) for i in kept)
    parity = np.array([bin(s & mask).count("1") % 2 for s in range(16)])
    r = np.ones(len(ms))
    r[:16] += (-1.0) ** parity
    return ms, r


@pytest.mark.parametrize("kept", [(0, 2), (0, 1, 2, 3)], ids=["non-adjacent", "order-4"])
@pytest.mark.parametrize("seed", range(4))
def test_a_kept_non_chain_term_is_refused_on_every_call(kept, seed):
    ms, r = kept_non_chain_case(kept, seed)
    H = build_hamiltonian(ms, r)
    first = sorted(ms.patterns[0].constraints)
    support = frozenset(first[i][0] for i in kept)
    assert [s for s in H.terms if s] == [support]
    with pytest.raises(ChainStructureError) as oracle:
        _chain_params_arrays(H)
    assert str(oracle.value).startswith(("non-adjacent coupling", "interaction of order 4"))
    for _ in range(2):  # a refused support is not remembered as a slot
        with pytest.raises(ChainStructureError, match=re.escape(str(oracle.value))):
            chain_dp_solve(ms, r)


def test_chain_dp_solve_never_makes_the_terms_dict(monkeypatch):
    built = []

    def build_and_record(ms, r):
        built.append(build_hamiltonian(ms, r))
        return built[-1]

    monkeypatch.setattr(solvers, "build_hamiltonian", build_and_record)
    ms = nearest_neighbor_patterns(48)
    chain_dp_solve(ms, np.random.default_rng(0).normal(size=len(ms)))
    with pytest.raises(ChainStructureError):
        chain_dp_solve(*kept_non_chain_case((0, 2), 0))
    assert len(built) == 2
    assert not any("terms" in vars(H) for H in built)
