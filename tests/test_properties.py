"""Property-based contracts of circuits, operators and the simulator.

Circuits come from the program's seeded generator over drawn widths,
depths, seeds and gate sets; the round trip also draws its angles.
"""
from __future__ import annotations

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from oracles import simulate_oracle

from qcevolve.circuit import (
    Circuit,
    Gate,
    Role,
    deserialize,
    export_qasm,
    random_circuit,
    serialize,
    shared_cell,
    theta_cells,
    validate,
)
from qcevolve.engine import CROSSOVER_METHODS
from qcevolve.gates import GateKind
from qcevolve.operators import (
    MUTATION_METHODS,
    MutationContext,
    crossover_blockwise,
    crossover_multi_point,
    crossover_single_point,
)
from qcevolve.simulator import run_gates, zero_state

ONE_QUBIT = [k for k in GateKind if k.arity == 1]
TWO_QUBIT = [k for k in GateKind if k.arity == 2]

gate_sets = st.builds(
    lambda one, two: frozenset(one) | frozenset(two),
    st.sets(st.sampled_from(ONE_QUBIT), min_size=1),
    st.sets(st.sampled_from(TWO_QUBIT)),
)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def circuits(draw, max_qubits: int = 6, max_depth: int = 12) -> Circuit:
    n = draw(st.integers(1, max_qubits))
    depth = draw(st.integers(1, max_depth))
    rng = np.random.default_rng(draw(seeds))
    return random_circuit(n, depth, draw(gate_sets), rng)


@given(circuits(), circuits(), seeds, st.sampled_from(CROSSOVER_METHODS))
def test_crossover_children_validate(a, b, seed, method):
    rng = np.random.default_rng(seed)
    if method == "single_point":
        children = crossover_single_point(a, b, rng)
    elif method == "blockwise":
        children = crossover_blockwise(a, b, rng)
    else:
        depth = max(a.depth, b.depth)
        if depth < 3:
            return
        children = crossover_multi_point(a, b, int(rng.integers(2, depth)), rng)
    for child in children:
        validate(child)


@given(circuits(), seeds, st.sampled_from(MUTATION_METHODS), gate_sets)
def test_mutations_validate(circuit, seed, method, gate_set):
    ctx = MutationContext(gate_set=gate_set, min_qubits=1, max_qubits=7, max_depth=13)
    validate(method(circuit, np.random.default_rng(seed), ctx))


angles = st.floats(allow_nan=False, allow_infinity=False)


@given(circuits(), st.data())
def test_serialize_round_trip_is_exact(circuit, data):
    # any finite angle, subnormals and -0.0 included, survives the text form
    cells = theta_cells(circuit)
    grid = [list(row) for row in circuit.grid]
    for r, c in cells:
        g = grid[r][c]
        grid[r][c] = Gate(g.kind, g.role, data.draw(angles), g.partner)
    circuit = Circuit(circuit.n_qubits, tuple(tuple(row) for row in grid))
    text = serialize(circuit)
    back = deserialize(text)
    assert back == circuit
    assert [(g.theta, repr(g.theta)) for row in back.grid for g in row] == [
        (g.theta, repr(g.theta)) for row in circuit.grid for g in row
    ]
    assert serialize(back) == text


@given(circuits())
def test_qasm_has_one_statement_per_placed_gate(circuit):
    lines = export_qasm(circuit).splitlines()
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.n_qubits}];"]
    assert lines[:3] == header
    # a one-qubit gate (identity included) is one cell, a pair two cells
    placed = [g for row in circuit.grid for g in row if g.role is not Role.TARGET]
    assert len(lines) - 3 == len(placed)
    mnemonics = [s.split(" ")[0].split("(")[0] for s in lines[3:]]
    for kind in GateKind:
        assert mnemonics.count(kind.value) == sum(g.kind is kind for g in placed)


@given(circuits(max_qubits=4, max_depth=8))
def test_run_gates_matches_oracle(circuit):
    state = run_gates(zero_state(circuit.n_qubits), circuit)
    assert np.abs(state - simulate_oracle(circuit)).max() < 1e-9


@given(
    st.sampled_from([k for k in ONE_QUBIT if not k.parameterized]),
    st.sampled_from(TWO_QUBIT),
    st.sampled_from([Role.CONTROL, Role.TARGET]),
    st.integers(0, 19),
)
def test_shared_cells_equal_fresh_gates(fixed, pair_kind, role, partner):
    for shared, fresh in [
        (shared_cell(fixed), Gate(fixed)),
        (
            shared_cell(pair_kind, role, partner),
            Gate(pair_kind, role, partner=partner),
        ),
    ]:
        assert shared == fresh and hash(shared) == hash(fresh)
        assert shared is not fresh
    again = shared_cell(pair_kind, role, partner)
    assert again is shared_cell(pair_kind, role, partner)


@given(circuits())
def test_drawn_circuit_equals_its_fresh_copy(circuit):
    # the same circuit built from newly constructed Gate objects
    grid = tuple(
        tuple(Gate(g.kind, g.role, g.theta, g.partner) for g in row)
        for row in circuit.grid
    )
    copy = Circuit(circuit.n_qubits, grid)
    assert copy == circuit and hash(copy) == hash(circuit)
    assert {copy: 1}[circuit] == 1
