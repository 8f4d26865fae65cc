"""The single phase and mixer layers of `qaoa` against the per-qubit steps
in `oracles`, bit for bit; `simulate_gates` against the selector form in
`oracles`, whose RX gates are per-qubit mixer steps, on circuits of CX, RZ
and RX gates on 1 to 12 qubits, RX-only ones among them; and a gate list
against its gates one call each.  `_evolve` and `_energies` meet the
per-qubit kernel in `test_workspace.py`."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isingpursuit.hamiltonian import IsingHamiltonian
from isingpursuit.qaoa import Gate, apply_phase_layer, simulate_gates

from oracles import (
    apply_mixer_layer,
    mix_rows,
    phase_rows,
    simulate_gates_selectors,
)
from strategies import (
    ANGLES,
    DEPTH,
    EXTREME_ENTRIES,
    SIGNED_ZEROS,
    states,
    wide_hamiltonians,
)


SIGNED_ZERO_FIELD = IsingHamiltonian(2, {frozenset({1}): -0.0, frozenset({1, 2}): 2.0})


@settings(max_examples=200 * DEPTH)
@given(wide_hamiltonians(EXTREME_ENTRIES).flatmap(lambda H: st.tuples(st.just(H), states(H.n))),
       ANGLES, ANGLES)
@example((SIGNED_ZERO_FIELD, SIGNED_ZEROS), -0.75, 0.5)
@example((SIGNED_ZERO_FIELD, np.array([0.5, -0.0, 1.25, -2.0])), -0.75, 0.5)  # a float64 state
@example((SIGNED_ZERO_FIELD, SIGNED_ZEROS), -2, 0.5)  # an int gamma
@example((SIGNED_ZERO_FIELD, SIGNED_ZEROS), np.float64(-0.0), 0.5)  # a numpy-scalar gamma
def test_single_layers_are_bitwise_the_per_qubit_steps(H_state, gamma, beta):
    H, psi = H_state
    with np.errstate(all="ignore"):
        phased = phase_rows(psi[None], H.diagonal(), np.array([gamma]))[0]
        assert apply_phase_layer(psi, H, gamma).tobytes() == phased.tobytes()
        mixed = mix_rows(psi[None], H.n, np.array([beta]))[0]
        assert apply_mixer_layer(psi, beta).tobytes() == mixed.tobytes()


@st.composite
def rx_circuits(draw):
    n = draw(st.integers(1, 12))
    gates = draw(st.lists(st.builds(Gate.rx, st.integers(1, n), ANGLES), max_size=30))
    return draw(states(n)), gates


@settings(max_examples=100 * DEPTH)
@given(rx_circuits(), st.data())
def test_one_gate_list_equals_its_gates_one_call_each(circuit, data):
    """CX, RZ and RX all write through views of one copy of the state."""
    psi, gates = circuit
    n = len(psi).bit_length() - 1
    for _ in range(data.draw(st.integers(0, 10))):
        if n > 1 and data.draw(st.booleans()):
            control, target = data.draw(st.permutations(range(1, n + 1)))[:2]
            gate = Gate.cx(control, target)
        else:
            gate = Gate.rz(data.draw(st.integers(1, n)), data.draw(ANGLES))
        gates.insert(data.draw(st.integers(0, len(gates))), gate)
    stepwise = psi
    with np.errstate(all="ignore"):
        for g in gates:
            stepwise = simulate_gates(stepwise, [g])
        assert simulate_gates(psi, gates).tobytes() == stepwise.tobytes()


@st.composite
def gate_circuits(draw):
    n = draw(st.integers(1, 12))
    qubits = st.integers(1, n)
    kinds = [st.builds(Gate.rz, qubits, ANGLES), st.builds(Gate.rx, qubits, ANGLES)]
    if n > 1:
        kinds.append(st.permutations(range(1, n + 1)).map(lambda qs: Gate.cx(qs[0], qs[1])))
    return draw(states(n)), draw(st.lists(st.one_of(kinds), max_size=30))


@settings(max_examples=200 * DEPTH)
@given(gate_circuits())
@example((SIGNED_ZEROS, [Gate.rz(2, -0.0), Gate.cx(2, 1), Gate.rx(1, 0.5), Gate.rz(1, 3.0)]))
@example((np.arange(8) * (1.0 + 0.5j), [Gate.cx(3, 1), Gate.cx(1, 2), Gate.rz(3, 0.25)]))
# RX alone: one x_mix_rows step of the selector form per gate
@example((SIGNED_ZEROS, [Gate.rx(1, 0.5)]))
@example((SIGNED_ZEROS, [Gate.rx(1, 0.5), Gate.rx(2, -0.0), Gate.rx(1, 0.5)]))
def test_cx_and_rz_are_bitwise_the_selector_form(circuit):
    psi, gates = circuit
    with np.errstate(all="ignore"):
        assert simulate_gates(psi, gates).tobytes() == simulate_gates_selectors(psi, gates).tobytes()
