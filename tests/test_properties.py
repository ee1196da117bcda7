"""Property-based contracts of circuits, operators and the simulator.

Circuits come from the program's seeded generator over drawn widths,
depths, seeds and gate sets; the round trip also draws its angles. The
raw-word draws that build those circuits are checked against numpy's own.
"""
from __future__ import annotations

from math import pi

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import simulate_oracle

from qcevolve.circuit import (
    Circuit,
    _PCG64Draws,
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
from qcevolve.errors import CircuitStructureError
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


def first_bad_cell(circuit: Circuit) -> tuple[int, int] | None:
    """The first cell, row by row, that breaks a structural rule, checked
    cell by cell on its own: an angle iff the kind is parameterized; a
    one-qubit cell has the single role and no partner; a two-qubit cell
    has a control or target role and a partner row other than its own
    whose cell has the same kind, the other role and names it back."""
    n = circuit.n_qubits
    for r, row in enumerate(circuit.grid):
        for c, g in enumerate(row):
            if g.kind.parameterized != (g.theta is not None):
                return r, c
            if g.kind.arity == 1:
                if g.role is not Role.SINGLE or g.partner is not None:
                    return r, c
                continue
            p = g.partner
            if g.role is Role.SINGLE or p is None or not 0 <= p < n or p == r:
                return r, c
            other = circuit.grid[p][c]
            if (
                other.kind is not g.kind
                or other.partner != r
                or other.role in (g.role, Role.SINGLE)
            ):
                return r, c
    return None


@st.composite
def corrupted_circuits(draw) -> Circuit:
    """A drawn circuit with one cell replaced, or one field of it: its
    kind, role, angle or partner row (-1 and n_qubits included)."""
    circuit = draw(circuits())
    n = circuit.n_qubits
    r = draw(st.integers(0, n - 1))
    c = draw(st.integers(0, circuit.depth - 1))
    fields = {
        "kind": st.sampled_from(list(GateKind)),
        "role": st.sampled_from(list(Role)),
        "theta": st.sampled_from([None, 0.5]),
        "partner": st.none() | st.integers(-1, n),
    }
    changed = draw(st.sampled_from([[name] for name in fields] + [list(fields)]))
    grid = [list(row) for row in circuit.grid]
    grid[r][c] = grid[r][c]._replace(**{f: draw(fields[f]) for f in changed})
    return Circuit(n, tuple(tuple(row) for row in grid))


def pair_half(role: Role, partner: int) -> tuple[Gate]:
    return (Gate(GateKind.CX, role, partner=partner),)


# a first half naming row -1, whose last-row partner names it back
@example(Circuit(2, (pair_half(Role.CONTROL, -1), pair_half(Role.TARGET, 0))))
# a second half naming an earlier row that is paired with another row
@example(
    Circuit(
        3,
        (
            pair_half(Role.CONTROL, 1),
            pair_half(Role.TARGET, 0),
            pair_half(Role.TARGET, 0),
        ),
    )
)
@given(corrupted_circuits())
def test_validate_names_the_first_bad_cell(corrupted):
    bad = first_bad_cell(corrupted)
    if bad is None:
        validate(corrupted)
    else:
        with pytest.raises(CircuitStructureError) as exc:
            validate(corrupted)
        assert str(exc.value).startswith(f"cell {bad}: ")


@given(circuits(max_qubits=5, max_depth=8), st.integers(1, 9), seeds)
def test_stacked_run_gates_equals_per_row_runs(circuit, batch, seed):
    rng = np.random.default_rng(seed)
    dim = 2**circuit.n_qubits
    states = rng.normal(size=(batch, dim)) + 1j * rng.normal(size=(batch, dim))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    stacked = run_gates(states, circuit)
    assert stacked.shape == states.shape
    for row, state in zip(stacked, states):
        # bit for bit: the ML fitness scores a whole dataset in one stack
        assert row.tobytes() == run_gates(state.copy(), circuit).tobytes()


# ---------------------------------------------------------------------------
# raw-word draws against numpy's Generator

# the k <= 2**20 whose Lemire threshold 2**32 % k is largest: about one half
# word in 4 100 is rejected and drawn again
REJECTING_K = 1047553

draw_ops = st.one_of(
    st.tuples(
        st.just("integers"),
        st.integers(1, 2**20) | st.sampled_from([1, 2, 3, 5, 2**20, REJECTING_K]),
    ),
    st.tuples(st.just("random")),
    st.tuples(st.just("uniform")),
    st.tuples(st.just("shuffle"), st.integers(0, 20)),
)


def _serve(ops, ref: np.random.Generator, draws: _PCG64Draws) -> None:
    """Run `ops` on numpy's generator and on the raw-word draws; each pair
    of results must be equal and of the type the circuit code uses."""
    for op, *args in ops:
        if op == "integers":
            got, want = draws.integers(*args), ref.integers(*args)
            assert type(got) is int and got == want
        elif op == "random":
            got, want = draws.random(), ref.random()
            assert type(got) is float and got == want
        elif op == "uniform":
            got, want = draws.uniform(-pi, pi), ref.uniform(-pi, pi)
            assert type(got) is float and got == want
        else:
            got, want = list(range(args[0])), list(range(args[0]))
            draws.shuffle(got)
            ref.shuffle(want)
            assert got == want


@given(
    seeds,
    st.none() | st.integers(0, 2**32 - 1),
    st.integers(1, 8),
    st.lists(draw_ops, max_size=60),
)
def test_raw_word_draws_match_numpy(seed, buffered, block, ops):
    """`buffered` is None for an empty half-word buffer, else the waiting
    half word; `block` words are read at a time, so reads run short."""
    ref = np.random.default_rng(seed)
    if buffered is not None:
        state = ref.bit_generator.state
        state["has_uint32"], state["uinteger"] = 1, buffered
        ref.bit_generator.state = state
    rng = np.random.default_rng()
    rng.bit_generator.state = ref.bit_generator.state
    with _PCG64Draws(rng, block) as draws:
        _serve(ops, ref, draws)
    # the state dict holds the buffer, and the spent half word that numpy
    # leaves in `uinteger` once `has_uint32` is 0
    assert rng.bit_generator.state == ref.bit_generator.state


def test_raw_word_draws_redraw_rejected_half_words():
    seed, n = 0, 4000
    # n draws take every half of the first n / 2 words, and one of those
    # is rejected
    words = np.random.default_rng(seed).bit_generator.random_raw(n // 2)
    halves = np.concatenate([words & 0xFFFFFFFF, words >> 32])
    leftover = (halves * np.uint64(REJECTING_K)) & np.uint64(0xFFFFFFFF)
    assert (leftover < 2**32 % REJECTING_K).any()
    ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
    with _PCG64Draws(rng, 64) as draws:
        _serve([("integers", REJECTING_K)] * n, ref, draws)
    assert rng.bit_generator.state == ref.bit_generator.state
