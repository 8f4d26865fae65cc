"""Property tests for the checks where inputs enter the system: non-finite
marginals and spike values, marginals whose squared norm overflows, chain
residuals whose sweep overflows, marginals that are not one vector entry per
pattern, the 63-bit width of the index masks, the cap on 2**n-entry arrays,
integer fields of the JSON loaders, of records built in Python and of the
generators, the counts of the QAOA entry points, empty solver budgets and
every other count below one, QAOA angles and Hamiltonian coefficients that
are not numbers, Hamiltonian keys that name a qubit or a support twice,
diagonals whose spread QAOA cannot divide by or whose mean overflows, and a
solver choice whose column no pattern measures."""

import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit import qaoa
from isingpursuit.cli import _read_marginals
from isingpursuit.experiment import ExperimentPlan
from isingpursuit.hamiltonian import IsingHamiltonian, build_hamiltonian
from isingpursuit.measurement import (
    MeasurementSet,
    Pattern,
    all_column_dots,
    complete_patterns,
    nearest_neighbor_patterns,
    random_quadruplet_patterns,
)
from isingpursuit.pursuit import DegenerateColumnError, PursuitConfig, matching_pursuit
from isingpursuit.signal import DENSE_VECTOR_CAP, INDEX_BITS_CAP, SparseSignal, random_sparse_signal
from isingpursuit.solvers import (
    BACKENDS,
    SolverOutcome,
    SolverSpec,
    brute_force_solve,
    chain_dp_solve,
    qaoa_solve,
)

from oracles import column_norm_sq

NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])
BUDGETS = ("param_count", "restarts", "max_evals", "shots")


@given(st.integers(2, 8), st.data())
def test_non_finite_marginals_are_rejected(n, data):
    ms = nearest_neighbor_patterns(n)
    y = np.array(data.draw(st.lists(st.floats(-10, 10), min_size=len(ms), max_size=len(ms))))
    y[data.draw(st.integers(0, len(ms) - 1))] = data.draw(NON_FINITE)
    with pytest.raises(ValueError, match="marginals must be finite"):
        matching_pursuit(y, ms, PursuitConfig(solver=brute_force_solve, max_iterations=4))


@given(st.integers(2, 8), st.data())
def test_marginals_whose_squared_norm_overflows_are_rejected(n, data):
    # ||y||**2 = inf used to make the default tolerance inf, and the pursuit
    # returned an empty recovery marked tolerance_met
    ms = nearest_neighbor_patterns(n)
    u = np.array(data.draw(st.lists(st.floats(-1, 1), min_size=len(ms), max_size=len(ms))))
    u[data.draw(st.integers(0, len(ms) - 1))] = data.draw(st.sampled_from([-1.0, 1.0]))
    # y = u scaled to a squared norm a relative 1e-6 above or below the float64 maximum
    above = data.draw(st.booleans())
    scale = math.sqrt(sys.float_info.max) * math.sqrt(1 + (1e-6 if above else -1e-6))
    y = u * (scale / math.sqrt(math.fsum(u * u)))
    assert np.isfinite(y).all()
    cfg = PursuitConfig(solver=brute_force_solve, max_iterations=1)
    if above:
        with pytest.raises(ValueError, match="marginals must be finite"):
            matching_pursuit(y, ms, cfg)
    else:
        assert len(matching_pursuit(y, ms, cfg).trace) == 1


@given(st.integers(1, INDEX_BITS_CAP), st.data())
def test_non_finite_spike_values_are_rejected(n, data):
    positions = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4,
                                   unique=True))
    values = [data.draw(st.floats(0.1, 1.0)) for _ in positions]
    # an integer beyond the float range used to raise numpy's TypeError
    beyond_floats = st.sampled_from([10**400, -10**400])
    values[data.draw(st.integers(0, len(values) - 1))] = data.draw(
        st.one_of(NON_FINITE, beyond_floats))
    with pytest.raises(ValueError, match="not finite"):
        SparseSignal(n, tuple(zip(positions, values)))


@st.composite
def overflowing_chains(draw):
    ms = nearest_neighbor_patterns(draw(st.integers(2, 6)))
    entries = st.sampled_from([1.7e308, -1.7e308, 1.0])
    return ms, np.array(draw(st.lists(entries, min_size=len(ms), max_size=len(ms))))


@given(overflowing_chains())
# the sweep's max is inf and its min NaN; position 1 used to come back as
# if it were the argmax
@example((nearest_neighbor_patterns(4), np.array(
    [1.0, 1.7e308, 1.7e308, 1.0, 1.0, 1.0, 1.7e308, 1.0, 1.7e308, 1.0, 1.0, 1.7e308])))
def test_chain_sweeps_that_overflow_to_nan_are_refused(case):
    ms, r = case
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            out = chain_dp_solve(ms, r)
        except ValueError as exc:
            assert str(exc).startswith("chain sweep overflowed: max_value=")
            return
    assert not math.isnan(out.diagnostics["max_value"])
    assert not math.isnan(out.diagnostics["min_value"])


WIDTH_CHECKED = {
    "SparseSignal": lambda n: SparseSignal(n, ()),
    "random_sparse_signal": lambda n: random_sparse_signal(n, 1, seed=n),
    "MeasurementSet": lambda n: MeasurementSet(n, (Pattern(((n, 1),)),)),
    "nearest_neighbor_patterns": nearest_neighbor_patterns,
    "random_quadruplet_patterns": lambda n: random_quadruplet_patterns(n, 1, seed=n),
    "ExperimentPlan": lambda n: ExperimentPlan(n, 1, solver=SolverSpec("chain")),
    "IsingHamiltonian": lambda n: IsingHamiltonian(n, {}),
}


@pytest.mark.parametrize("build", WIDTH_CHECKED.values(), ids=WIDTH_CHECKED.keys())
@settings(max_examples=12)
@given(n=st.integers(INDEX_BITS_CAP - 3, INDEX_BITS_CAP + 40))
@example(n=INDEX_BITS_CAP)
@example(n=INDEX_BITS_CAP + 1)
def test_index_width_is_63_bits(build, n):
    if n <= INDEX_BITS_CAP:
        assert build(n).n == n
    else:
        with pytest.raises(ValueError, match=f"n={n} exceeds {INDEX_BITS_CAP}"):
            build(n)


@pytest.mark.parametrize("build", WIDTH_CHECKED.values(), ids=WIDTH_CHECKED.keys())
def test_every_width_check_gives_the_same_message(build):
    # the cap is checked in one place: signal._check_bit_count
    with pytest.raises(ValueError) as info:
        build(INDEX_BITS_CAP + 1)
    assert str(info.value) == "n=64 exceeds 63, the width of the int64 pattern masks"


@pytest.mark.parametrize("n", [0, -1])
def test_measurement_sets_need_at_least_one_bit(n):
    # MeasurementSet used to check only the upper end of the range
    with pytest.raises(ValueError, match=f"bit count must be >= 1, got {n}"):
        MeasurementSet(n, (Pattern(()),))


def _dense_inputs(n: int):
    """An n-bit nearest-neighbour set, a residual with no zero entry, its H."""
    ms = nearest_neighbor_patterns(n)
    r = np.linspace(-1.0, 2.0, len(ms))
    return ms, r, build_hamiltonian(ms, r)


ONE_LAYER = qaoa.QaoaParams((0.3,), (0.7,))
# Everything that builds a 2**n array, directly or inside, and a plan that would.
DENSE_ARRAYS = {
    "all_column_dots": lambda ms, r, H: all_column_dots(r, ms),
    "brute_force_solve": lambda ms, r, H: brute_force_solve(ms, r),
    "IsingHamiltonian.diagonal": lambda ms, r, H: H.diagonal(),
    "uniform_state": lambda ms, r, H: qaoa.uniform_state(H.n),
    "ansatz_state": lambda ms, r, H: qaoa.ansatz_state(H, ONE_LAYER),
    "optimize": lambda ms, r, H: qaoa.optimize(H, 1, restarts=1, max_evals=2, seed=0),
    "qaoa_solve": lambda ms, r, H: qaoa_solve(ms, r, SolverSpec("qaoa", 2, 1, 2, 8), seed=0),
    "ExperimentPlan": lambda ms, r, H: ExperimentPlan(H.n, 1, solver=SolverSpec("qaoa")),
}
# the kernels themselves, which still run at the cap
AT_THE_CAP = ("all_column_dots", "IsingHamiltonian.diagonal", "uniform_state")


@pytest.mark.parametrize("name", DENSE_ARRAYS)
def test_every_2_to_the_n_array_stops_at_one_cap_before_it_is_allocated(name):
    # qaoa_solve used to fill H's diagonal, 16 MB at n = 21, and reach a
    # traced peak of about 185 MB before the qubit cap raised
    call = DENSE_ARRAYS[name]
    inputs = _dense_inputs(DENSE_VECTOR_CAP + 1)
    with pytest.raises(ValueError):  # once untraced, so that lazy imports do not count
        call(*inputs)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as info:
            call(*inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert str(info.value) == "n=21 exceeds 20, the cap on arrays of 2**n entries"
    if name in AT_THE_CAP:
        assert len(call(*_dense_inputs(DENSE_VECTOR_CAP))) == 1 << DENSE_VECTOR_CAP


@given(st.integers(2, 8), st.data())
def test_marginals_must_be_one_vector_entry_per_pattern(n, data):
    # a (M, 1) column used to pass with brute force and fail in numpy with the others
    ms = nearest_neighbor_patterns(n)
    shape = data.draw(st.lists(st.integers(0, len(ms) + 1), max_size=3).map(tuple)
                      .filter(lambda shape: shape != (len(ms),)))
    cfg = PursuitConfig(solver=brute_force_solve, max_iterations=4)
    with pytest.raises(ValueError, match=f"marginals must be a length-{len(ms)} vector"):
        matching_pursuit(np.zeros(shape), ms, cfg)


def _signal(n=6, pos=3):
    return SparseSignal.from_dict({"n": n, "spikes": [{"pos": pos, "val": 0.5}]})


def _patterns(n=6, bit=2, val=1):
    return MeasurementSet.from_dict({"n": n, "patterns": [[{"bit": bit, "val": val}]]})


# (loader, constructor or generator, field, integers the field may hold):
# each record reads its fields when built, so a loader and a constructor
# refuse alike, and each generator reads its counts before any range check
INTEGER_FIELDS = {
    "signal-n": (lambda v: _signal(n=v), "n", st.integers(2, INDEX_BITS_CAP)),
    "signal-pos": (lambda v: _signal(pos=v), "pos", st.integers(0, 63)),
    "patterns-n": (lambda v: _patterns(n=v), "n", st.integers(2, INDEX_BITS_CAP)),
    "patterns-bit": (lambda v: _patterns(bit=v), "bit", st.integers(1, 6)),
    "patterns-val": (lambda v: _patterns(val=v), "val", st.integers(0, 1)),
    "SparseSignal-n": (lambda v: SparseSignal(v, ((3, 0.5),)), "n",
                       st.integers(2, INDEX_BITS_CAP)),
    "SparseSignal-pos": (lambda v: SparseSignal(6, ((v, 0.5),)), "pos", st.integers(0, 63)),
    "Pattern-bit": (lambda v: Pattern(((v, 1),)), "bit", st.integers(1, 6)),
    "Pattern-val": (lambda v: Pattern(((2, v),)), "val", st.integers(0, 1)),
    "MeasurementSet-n": (lambda v: MeasurementSet(v, (Pattern(((2, 1),)),)), "n",
                         st.integers(2, INDEX_BITS_CAP)),
    "random_sparse_signal-n": (lambda v: random_sparse_signal(v, 1, seed=0), "n",
                               st.integers(1, INDEX_BITS_CAP)),
    "random_sparse_signal-s": (lambda v: random_sparse_signal(6, v, seed=0), "s",
                               st.integers(1, 64)),
    "nearest_neighbor_patterns-n": (nearest_neighbor_patterns, "n", st.integers(2, INDEX_BITS_CAP)),
    "random_quadruplet_patterns-n": (lambda v: random_quadruplet_patterns(v, 1, seed=0), "n",
                                     st.integers(4, 12)),
    "random_quadruplet_patterns-q": (lambda v: random_quadruplet_patterns(6, v, seed=0), "q",
                                     st.integers(1, 15)),
    "complete_patterns-n": (complete_patterns, "n", st.integers(1, 8)),
    "uniform_state-n": (lambda v: qaoa.uniform_state(v).tobytes(), "n", st.integers(1, 12)),
    "IsingHamiltonian-n": (lambda v: IsingHamiltonian(v, {frozenset({1}): 0.5}), "n",
                           st.integers(1, INDEX_BITS_CAP)),
    "IsingHamiltonian-qubit": (lambda v: IsingHamiltonian(6, {frozenset({v, 2}): 0.5}), "qubit",
                               st.integers(1, 6)),
}
NOT_INTEGERS = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.floats().filter(lambda x: not x.is_integer()),
)


@pytest.mark.parametrize("field", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS.keys())
@given(value=NOT_INTEGERS)
@example(value=6.9)
@example(value=True)
@example(value="3")
def test_loaders_reject_integer_fields_that_are_not_integers(field, value):
    # int() used to truncate 6.9 to 6 and read true as 1; built in Python, a
    # position or bit of 6.9 was kept and failed later in numpy, and
    # SparseSignal(6, ((True, 0.5),)) was a spike at position 1
    load, name, _ = field
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        load(value)


@pytest.mark.parametrize("field", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS.keys())
@given(data=st.data())
def test_loaders_read_integral_floats_as_integers(field, data):
    load, _, integers = field
    value = data.draw(integers)
    assert load(float(value)) == load(value)


@pytest.mark.parametrize("field", INTEGER_FIELDS.values(), ids=INTEGER_FIELDS.keys())
@given(data=st.data())
def test_loaders_read_numpy_integers_as_integers(field, data):
    load, _, integers = field
    value = data.draw(integers)
    assert load(data.draw(st.sampled_from([np.int64, np.uint8]))(value)) == load(value)


@pytest.mark.parametrize("qubit", [1.0, np.float32(1.0), np.int64(1)])
def test_a_hamiltonian_reads_integral_qubits_as_ints(qubit):
    # a support frozenset({1.0}) passed the range check, then diagonal() raised a TypeError
    H = IsingHamiltonian(3, {frozenset({qubit, 3}): np.float32(0.5)})
    twin = IsingHamiltonian(3, {frozenset({1, 3}): 0.5})
    assert H == twin and [type(j) for support in H.terms for j in support] == [int, int]
    assert H.diagonal().tobytes() == twin.diagonal().tobytes()


@pytest.mark.parametrize("n, support, qubit", [(3, (2, 2), 2), (2, (1, 1), 1),
                                               (4, (3, 1, 3.0), 3), (63, (np.int64(1), 1), 1)],
                         ids=["n3", "n2", "integral-float", "numpy-int-n63"])
def test_a_hamiltonian_refuses_a_qubit_named_twice(n, support, qubit):
    # the mask summed the qubit's bit twice: at n = 3, {(2, 2): 1.0} had Z_1's
    # diagonal, and at n = 2, {(1, 1): 1.0} raised an IndexError in diagonal()
    with pytest.raises(ValueError, match=f"^qubit {qubit} named twice in one support$"):
        IsingHamiltonian(n, {support: 1.0})


def test_a_hamiltonian_reads_any_iterable_of_qubits_as_a_frozenset_named_once():
    # a key of plain ints in range used to come back as given, so (1, 2) and
    # (2, 1) were two terms on one support
    H = IsingHamiltonian(3, {(2, 1): 1.0, range(3, 4): 2.0})
    assert [type(s) for s in H.terms] == [frozenset, frozenset]
    assert H.terms == {frozenset({1, 2}): 1.0, frozenset({3}): 2.0}
    with pytest.raises(ValueError, match=r"^support \[1, 2\] named twice$"):
        IsingHamiltonian(3, {(1, 2): 1.0, (2, 1.0): 2.0})


# Booleans, strings, null, non-finite floats and integers beyond the float
# range: no JSON value a float field may hold.
NOT_NUMBERS = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    NON_FINITE,
    st.integers(min_value=2**1024).map(lambda v: v * (-1) ** (v % 2)),
)
NUMBERS = st.one_of(st.integers(-2**53, 2**53), st.floats(allow_nan=False, allow_infinity=False))


@given(value=st.one_of(NOT_NUMBERS, st.lists(st.floats(-1.0, 1.0), max_size=2)))
@example(value=True)
@example(value="0.5")
@example(value=None)
@example(value=10**400)
def test_spike_values_must_be_json_numbers(value):
    # float() used to read true as 1.0 and "0.5" as 0.5
    with pytest.raises(ValueError, match="^val must be a number, got "):
        SparseSignal.from_dict({"n": 6, "spikes": [{"pos": 3, "val": value}]})


@given(NUMBERS.filter(lambda v: v != 0))
def test_spike_values_read_every_finite_json_number_as_a_float(value):
    (spike,) = SparseSignal.from_dict({"n": 6, "spikes": [{"pos": 3, "val": value}]}).spikes
    assert type(spike[1]) is float and spike == (3, float(value))


@given(st.lists(NUMBERS, min_size=1, max_size=20), st.data())
def test_marginals_files_must_hold_json_numbers(marginals, data):
    assert _read_marginals(marginals) == [float(v) for v in marginals]
    marginals[data.draw(st.integers(0, len(marginals) - 1))] = data.draw(NOT_NUMBERS)
    with pytest.raises(ValueError, match="^marginal must be a number, got "):
        _read_marginals(marginals)


@given(st.sampled_from(BUDGETS), st.integers(-2**31, 0), st.sampled_from(BACKENDS))
def test_empty_solver_budgets_are_rejected(budget, value, backend):
    with pytest.raises(ValueError, match=f"{budget} must be >= 1, got {value}"):
        SolverSpec(backend, **{budget: value})


@given(st.sampled_from(BUDGETS), st.integers(1, 2**31))
def test_positive_solver_budgets_are_kept(budget, value):
    assert getattr(SolverSpec("qaoa", **{budget: value}), budget) == value


TWO_QUBITS = IsingHamiltonian(2, {frozenset({1}): 1.0})
# (call, name in the message) for every count that must be at least 1
COUNTS = {
    "optimize-p": (lambda v: qaoa.optimize(TWO_QUBITS, v), "p"),
    "optimize-max_evals": (lambda v: qaoa.optimize(TWO_QUBITS, 1, max_evals=v), "max_evals"),
    "sample_candidates-shots": (lambda v: qaoa.sample_candidates(qaoa.uniform_state(2), v),
                                "shots"),
    **{f"SolverSpec-{name}": (lambda v, name=name: SolverSpec("qaoa", **{name: v}), name)
       for name in BUDGETS},
    **{f"ExperimentPlan-{name}": (lambda v, name=name: ExperimentPlan(6, 2, **{name: v}), name)
       for name in ("trial_count", "workers", "max_iterations")},
    "ExperimentPlan-quadruplets": (
        lambda v: ExperimentPlan(6, 2, pattern_kind="quad", quadruplets=v), "quadruplet count"),
    "PursuitConfig-max_iterations": (lambda v: PursuitConfig(brute_force_solve, v),
                                     "max_iterations"),
    "random_quadruplet_patterns-q": (lambda v: random_quadruplet_patterns(6, v),
                                     "quadruplet count"),
    "IsingHamiltonian-n": (lambda v: IsingHamiltonian(v, {}), "bit count"),
}


@pytest.mark.parametrize("count", COUNTS.values(), ids=COUNTS.keys())
@given(value=st.integers(-2**31, 0))
@example(value=0)
def test_every_count_below_one_gets_the_same_message(count, value):
    # optimize(H, p=0) used to say "depth must be >= 1"
    call, name = count
    with pytest.raises(ValueError, match=f"^{name} must be >= 1, got {value}$"):
        call(value)


def _plan(**fields):
    return ExperimentPlan(**{"n": 6, "sparsity": 2, **fields})


# (constructor, field, integers the field may hold) for every integer field
# of a solver spec, a plan and a pursuit config built in Python
SPEC_FIELDS = {
    **{f"SolverSpec-{name}": (lambda v, name=name: SolverSpec("qaoa", **{name: v}), name,
                              st.integers(1, 2**31)) for name in BUDGETS},
    "ExperimentPlan-n": (lambda v: _plan(n=v), "n", st.integers(2, DENSE_VECTOR_CAP)),
    **{f"ExperimentPlan-{name}": (lambda v, name=name: _plan(**{name: v}), name, integers)
       for name, integers in (("sparsity", st.integers(1, 64)),
                              ("trial_count", st.integers(1, 2**31)),
                              ("quadruplets", st.integers(1, 2**31)),
                              ("master_seed", st.integers(0, 2**62)),
                              ("max_iterations", st.integers(1, 2**31)),
                              ("workers", st.integers(1, 2**31)))},
    "PursuitConfig-max_iterations": (lambda v: PursuitConfig(brute_force_solve, v),
                                     "max_iterations", st.integers(1, 2**31)),
}
# a plan leaves these to their defaults when None; a pursuit config needs its budget
OPTIONAL_FIELDS = tuple(SPEC_FIELDS[f"ExperimentPlan-{name}"]
                        for name in ("quadruplets", "max_iterations"))


@pytest.mark.parametrize("field", SPEC_FIELDS.values(), ids=SPEC_FIELDS.keys())
@given(value=st.one_of(NOT_INTEGERS, st.sampled_from([np.True_, np.float64(2.5)])))
@example(value=True)
@example(value=2.5)
@example(value=1.5)
def test_specs_and_plans_reject_integer_fields_that_are_not_integers(field, value):
    # param_count=True ran depth 1; shots=2.5 and restarts=1.5 failed inside
    # a trial, and n=6.0 at its first shift; PursuitConfig(solve, True) ran
    # one pursuit step, and 2.5 failed inside matching_pursuit
    build, name, _ = field
    if value is None and field in OPTIONAL_FIELDS:
        assert getattr(build(value), name) is None
        return
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        build(value)


@pytest.mark.parametrize("field", SPEC_FIELDS.values(), ids=SPEC_FIELDS.keys())
@given(data=st.data())
def test_specs_and_plans_keep_integral_numbers_as_ints(field, data):
    build, name, integers = field
    value = data.draw(integers)
    kinds = [np.int64, np.uint64] + [float, np.float64] * (value <= 2**53)
    spec = build(data.draw(st.sampled_from(kinds))(value))
    assert spec == build(value) and type(getattr(spec, name)) is int


@pytest.mark.parametrize("call, name", [
    (lambda H: qaoa.optimize(H, True), "p"),
    (lambda H: qaoa.optimize(H, 2.5), "p"),
    (lambda H: qaoa.optimize(H, 1, restarts=1.5), "restarts"),
    (lambda H: qaoa.optimize(H, 1, max_evals=True), "max_evals"),
    (lambda H: qaoa.sample_candidates(qaoa.uniform_state(H.n), 2.5), "shots"),
    (lambda H: qaoa.sample_candidates(qaoa.uniform_state(H.n), np.True_), "shots"),
], ids=["bool-p", "fractional-p", "fractional-restarts", "bool-max-evals",
        "fractional-shots", "numpy-bool-shots"])
def test_qaoa_counts_must_be_integers(call, name):
    # optimize(H, True) ran a depth-1 circuit, and the fractional counts
    # raised numpy's TypeError, which named no argument
    H = IsingHamiltonian(2, {frozenset({1}): 1.0})
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call(H)


ANGLE_READERS = {
    "gammas": lambda value: qaoa.QaoaParams((0.3, value), (0.2,)),
    "betas": lambda value: qaoa.QaoaParams((0.1,), (0.3, value)),
    "gamma": lambda value: qaoa.apply_phase_layer(qaoa.uniform_state(2), TWO_QUBITS, value),
    "t": lambda value: qaoa.decompose_evolution(TWO_QUBITS, value),
}


@pytest.mark.parametrize("name", ANGLE_READERS)
@given(value=NOT_NUMBERS)
@example(value="0.1")
@example(value=True)
@example(value=math.nan)
def test_qaoa_angles_must_be_finite_numbers(name, value):
    # float() used to read "0.1" as 0.1 and True as 1.0, and kept NaN angles;
    # apply_phase_layer and decompose_evolution ran True as 1, gave a NaN
    # state or RZ angle for NaN and inf, and raised a TypeError for "1"
    with pytest.raises(ValueError, match=f"^{name} must be a number, got "):
        ANGLE_READERS[name](value)


@given(value=st.one_of(st.booleans(), st.text(max_size=4), st.none(),
                       st.integers(min_value=2**1024)))
@example(value="1")
@example(value=True)
def test_hamiltonian_coefficients_must_be_numbers(value):
    # np.fromiter used to read "1" and True as 1.0; inf and NaN stay accepted
    with pytest.raises(ValueError, match="^coefficient must be a number, got "):
        IsingHamiltonian(2, {frozenset({1}): 0.5, frozenset({2}): value})
    for kept in (math.inf, math.nan):
        assert repr(IsingHamiltonian(2, {frozenset({1}): kept}).terms[frozenset({1})]) == repr(kept)


@given(st.integers(-2**31, 0))
def test_optimize_rejects_an_empty_evaluation_budget(max_evals):
    H = IsingHamiltonian(2, {frozenset({1, 2}): 1.0})
    with pytest.raises(ValueError, match=f"max_evals must be >= 1, got {max_evals}"):
        qaoa.optimize(H, 1, restarts=1, max_evals=max_evals)
    with pytest.raises(ValueError, match=f"max_evals must be >= 1, got {max_evals}"):
        qaoa.optimize(H, 1, restarts=0, max_evals=max_evals, init=ONE_LAYER)


@pytest.mark.parametrize("coefficients", [
    {frozenset({1}): 1e308, frozenset({2}): 1e308},  # the diagonal is [inf, 0, 0, -inf]
    {frozenset({1}): math.nan},
], ids=["overflow", "nan"])
@pytest.mark.parametrize("seed", [None, 1])
def test_optimize_refuses_a_diagonal_that_is_not_finite(coefficients, seed):
    # every expectation is NaN, so no start or grid row is best, of H or of
    # the ramp's -H; this used to raise a TypeError
    H = IsingHamiltonian(2, coefficients)
    for schedule in qaoa.SCHEDULES:
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="diagonal is not finite"):
            qaoa.optimize(H, 1, restarts=1, max_evals=5, seed=seed, schedule=schedule)


@pytest.mark.parametrize("schedule", qaoa.SCHEDULES)
@given(restarts=st.integers(-2**70, -1))
@example(restarts=-3)
def test_optimize_refuses_a_negative_restart_count(schedule, restarts):
    # beside a warm start, -3 used to run as no restarts at all, and the
    # ramp took it
    H = IsingHamiltonian(2, {frozenset({1}): 1.0})
    init = ONE_LAYER if schedule == "search" else None
    with pytest.raises(ValueError, match=f"^restarts must be >= 0, got {restarts}$"):
        qaoa.optimize(H, 1, restarts=restarts, init=init, schedule=schedule)


# n = 1, one pattern per value of bit 1: H's diagonal is r, as built
ONE_BIT = MeasurementSet(1, (Pattern(((1, 0),)), Pattern(((1, 1),))))


def test_a_flat_diagonal_with_a_kept_term_evolves_raw():
    # the Z term, -5.7e-14, survives pruning but vanishes in 1000 +- 5.7e-14
    r = np.array([1000.0, np.nextafter(1000.0, 2000.0)])
    H = build_hamiltonian(ONE_BIT, r)
    assert H.max_support_size() == 1 and np.all(H.diagonal() == 1000.0)
    scaled, scale = H.normalized()
    assert scale == 1.0 and scaled.diagonal().tobytes() == H.diagonal().tobytes()
    out = qaoa_solve(ONE_BIT, r, SolverSpec("qaoa", 2, 1, 10, 8), seed=0)
    assert out.diagnostics["scale"] == 1.0 and out.position in (0, 1)


def test_a_finite_diagonal_whose_mean_overflows_is_normalised():
    # the diagonal is [1.7e308, 1.5e308]: finite, but its sum overflows, and
    # a RuntimeWarning from the mean would fail this test; it used to evolve
    # raw, and qaoa_solve raised "diagonal is not finite"
    r = np.array([1.7e308, 1.5e308])
    H = build_hamiltonian(ONE_BIT, r)
    assert np.isfinite(H.diagonal()).all()
    scaled, scale = H.normalized()
    assert scale == (1.7e308 / 4 - 1.5e308 / 4) / 2 * 4  # the spread of d / 4, times 4
    assert scaled.diagonal().tobytes() == (H.diagonal() / scale).tobytes()
    out = qaoa_solve(ONE_BIT, r, SolverSpec("qaoa", 2, 1, 10, 8), seed=0)
    assert out.diagnostics["scale"] == scale and out.position in (0, 1)


def test_qaoa_solve_refuses_a_diagonal_that_is_not_finite():
    # Z_1 and Z_2 at 0.85e308 over a constant of 1.7e308: index 0 is inf
    ms = MeasurementSet(2, (Pattern(((1, 0),)), Pattern(((2, 0),))))
    r = np.array([1.7e308, 1.7e308])
    H = build_hamiltonian(ms, r)
    with np.errstate(over="ignore"):  # the diagonal overflows as it is made
        assert H.diagonal()[0] == np.inf
    assert H.normalized()[1] == 1.0  # and its spread without a warning
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="diagonal is not finite"):
        qaoa_solve(ms, r, SolverSpec("qaoa", 2, 1, 5, 8), seed=0)


# every public entry that takes a seed as a number, and the plan's master
# seed; sample_candidates takes the SeedSequence that qaoa_solve spawns, so it
# is not one of them
SEEDED = {
    "random_sparse_signal": (lambda v: random_sparse_signal(6, 1, seed=v), "seed"),
    "random_quadruplet_patterns": (lambda v: random_quadruplet_patterns(6, 1, seed=v), "seed"),
    "qaoa_solve": (lambda v: qaoa_solve(ONE_BIT, np.array([1.0, 0.5]), SolverSpec("qaoa", 2),
                                        seed=v), "seed"),
    "ExperimentPlan": (lambda v: ExperimentPlan(6, 2, master_seed=v), "master_seed"),
    "optimize": (lambda v: qaoa.optimize(IsingHamiltonian(1, {frozenset({1}): 1.0}), 1,
                                         restarts=1, max_evals=3, seed=v), "seed"),
}


@pytest.mark.parametrize("entry", SEEDED.values(), ids=SEEDED.keys())
@given(value=st.one_of(st.integers(-2**70, -1), st.sampled_from([2.5, True, "3"])))
@example(value=-1)
def test_a_seed_is_a_non_negative_integer_named_in_the_error(entry, value):
    # a negative seed used to reach np.random.default_rng, whose error names
    # no argument
    call, name = entry
    message = (f"{name} must be >= 0, got {value}" if type(value) is int
               else f"{name} must be an integer, got {value!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
    call(0)
    call(np.int64(7))
    call(2.0)


@given(st.integers(1, 8), st.data())
def test_a_solver_choice_no_pattern_measures_is_an_error(n, data):
    # every pattern fixes `bit` to 0, so no pattern measures an index with it set
    bit = data.draw(st.integers(1, n))
    patterns = []
    for _ in range(data.draw(st.integers(1, 6))):
        others = sorted(data.draw(st.sets(st.integers(1, n))) - {bit})
        values = data.draw(st.lists(st.integers(0, 1), min_size=len(others),
                                    max_size=len(others)))
        patterns.append(Pattern(((bit, 0),) + tuple(zip(others, values))))
    ms = MeasurementSet(n, tuple(patterns))
    z = data.draw(st.integers(0, (1 << n) - 1)) | 1 << (n - bit)
    assert column_norm_sq(z, ms) == 0
    cfg = PursuitConfig(solver=lambda ms_, r_: SolverOutcome(z, 1.0), max_iterations=3)
    with pytest.raises(DegenerateColumnError, match=f"solver chose index {z} matching no"):
        matching_pursuit(np.ones(len(ms)), ms, cfg)
