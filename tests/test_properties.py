"""Property-based contracts of circuits, operators and the simulator.

Circuits come from the program's seeded generator over drawn widths,
depths, seeds and gate sets; the round trip also draws its angles. The
draws themselves are checked for how they split into lists, cell for cell
against a loop over the same doubles, and against the exact column
distribution that `random_circuits` documents.
"""
from __future__ import annotations

import math
from collections import Counter
from math import pi
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import column_distribution, draw_oracle, simulate_oracle

from qcevolve import circuit as circuit_module
from qcevolve import engine, simulator
from qcevolve.circuit import (
    Circuit,
    Gate,
    Role,
    deserialize,
    export_qasm,
    random_circuit,
    random_circuits,
    serialize,
    shared_cell,
    theta_cells,
    validate,
)
from qcevolve.errors import CircuitStructureError
from qcevolve.engine import CROSSOVER_METHODS, RunConfig, random_baseline
from qcevolve.fitness import (
    FD_STEP,
    Dataset,
    FidelityFitness,
    MLFitness,
    _encode_features,
    _mse_loss,
    _predictions,
)
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind
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


def _pinned_cells(n: int, depth: int) -> Circuit:
    """Identity on every row but the top two, where each column holds a CX
    with its target half on row 0: in a stack, this row holds an identity
    or a target half where the others hold gates."""
    if n < 2:
        return Circuit(1, ((shared_cell(GateKind.ID),) * depth,))
    top = (shared_cell(GateKind.CX, Role.TARGET, 1),) * depth
    second = (shared_cell(GateKind.CX, Role.CONTROL, 0),) * depth
    rest = ((shared_cell(GateKind.ID),) * depth,) * (n - 2)
    return Circuit(n, (top, second) + rest)


@pytest.mark.per_kernel
@given(
    st.integers(1, 8),
    st.integers(1, 12),
    st.sampled_from([FULL_GATE_SET, RESTRICTED_GATE_SET]),
    st.integers(0, 20),
    st.data(),
)
def test_stacked_simulation_equals_simulate(n, depth, gate_set, rows, data):
    """Every state `simulate_all` gives for a list of 1 to 21 circuits of
    one shape has the bits of `simulate` on its circuit alone. A list of two
    or more runs as one stack; a list of one runs through `run_gates`."""
    rng = np.random.default_rng(data.draw(seeds))
    circuits = [random_circuit(n, depth, gate_set, rng) for _ in range(rows)]
    circuits.insert(data.draw(st.integers(0, rows)), _pinned_cells(n, depth))
    # the path the list must not take fails if it runs
    other = "run_gates" if len(circuits) > 1 else "_run_stack"
    with mock.patch.object(simulator, other, side_effect=AssertionError(f"ran {other}")):
        states = list(simulator.simulate_all(circuits))
    assert len(states) == len(circuits)
    for state, circuit in zip(states, circuits):
        assert state.tobytes() == simulator.simulate(circuit).tobytes()


# ---------------------------------------------------------------------------
# ML training against the per-trial loop


def _reference_training(fitness: MLFitness, circuit: Circuit):
    """(accuracy, trained circuit, angles) by the per-trial loop: every loss
    is one whole run of the circuit, rebuilt with that trial's angles."""
    n = circuit.n_qubits
    encoded = np.array([_encode_features(n, x) for x in fitness.dataset.features])
    labels = fitness.dataset.labels
    signs = 1.0 - 2.0 * (np.arange(2**n) & 1)
    cells = theta_cells(circuit)

    def rebuilt(thetas: np.ndarray) -> Circuit:
        grid = [list(row) for row in circuit.grid]
        for (r, c), t in zip(cells, thetas.tolist()):
            g = grid[r][c]
            grid[r][c] = Gate(g.kind, g.role, t, g.partner)
        return Circuit(n, tuple(map(tuple, grid)))

    def predictions(c: Circuit) -> np.ndarray:
        probs = np.abs(run_gates(encoded, c)) ** 2
        return np.array([np.dot(row, signs) for row in probs])

    def loss(thetas: np.ndarray) -> float:
        return float(np.mean((predictions(rebuilt(thetas)) - (1.0 - 2.0 * labels)) ** 2))

    thetas = np.array([circuit.grid[r][c].theta for r, c in cells])
    trained = circuit
    if cells and fitness.train_steps:
        for _ in range(fitness.train_steps):
            grad = np.empty_like(thetas)
            for i in range(len(thetas)):
                up, down = thetas.copy(), thetas.copy()
                up[i] += FD_STEP
                down[i] -= FD_STEP
                grad[i] = (loss(up) - loss(down)) / (2 * FD_STEP)
            thetas = thetas - fitness.learning_rate * grad
        trained = rebuilt(thetas)
    accuracy = float(np.mean((predictions(trained) < 0).astype(int) == labels))
    return accuracy, trained, thetas


@pytest.mark.per_kernel
@given(st.integers(1, 12), st.integers(1, 64), st.integers(1, 300), seeds)
def test_stacked_readout_equals_per_row_calls(n, rows, samples, seed):
    rng = np.random.default_rng(seed)
    states = rng.normal(size=(rows, 2**n)) + 1j * rng.normal(size=(rows, 2**n))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    signs = 1.0 - 2.0 * (np.arange(2**n) & 1)
    expected = np.array([np.dot(row, signs) for row in np.abs(states) ** 2])
    # bit for bit: one call per stack stands for one np.dot per row
    assert _predictions(states).tobytes() == expected.tobytes()
    predictions = rng.uniform(-1.0, 1.0, size=(rows, samples))
    labels = rng.integers(2, size=samples)
    expected = np.array([np.mean((p - (1.0 - 2.0 * labels)) ** 2) for p in predictions])
    # and one row-wise mean for one np.mean per trial
    assert _mse_loss(predictions, labels).tobytes() == expected.tobytes()


# rotations mixed with pairs and identity cells
ml_gate_sets = st.builds(
    lambda rotations, others: frozenset(rotations) | frozenset(others),
    st.sets(st.sampled_from([GateKind.RX, GateKind.RY, GateKind.RZ]), min_size=1),
    st.sets(st.sampled_from([GateKind.ID, GateKind.CX, GateKind.CZ])),
)


@pytest.mark.per_kernel
@given(
    st.integers(1, 4),
    st.integers(1, 5),
    ml_gate_sets,
    seeds,
    st.integers(0, 3),
    st.sampled_from([0.05, 0.3, 2.0]),
    st.booleans(),
)
def test_stacked_training_equals_per_trial_loop(
    n, depth, gate_set, seed, steps, learning_rate, lamarckian
):
    rng = np.random.default_rng(seed)
    circuit = random_circuit(n, depth, gate_set, rng)
    samples = int(rng.integers(1, 9))
    features = rng.uniform(0.0, 1.0, size=(samples, int(rng.integers(1, n + 1))))
    dataset = Dataset(features, rng.integers(2, size=samples))
    fitness = MLFitness(dataset, steps, learning_rate, lamarckian)
    accuracy, trained, thetas = _reference_training(fitness, circuit)
    got = fitness.evaluate_trained(circuit)
    assert got == (accuracy, trained)
    angles = np.array([got[1].grid[r][c].theta for r, c in theta_cells(got[1])])
    # bit for bit: the stacked trials run the same gates on each row
    assert angles.tobytes() == thetas.tobytes()
    assert fitness.score(circuit) == (accuracy, trained if lamarckian else circuit)


# ---------------------------------------------------------------------------
# array draws

# gate sets a draw of at least two rows accepts: any nonempty set
wide_gate_sets = gate_sets | st.sets(st.sampled_from(TWO_QUBIT), min_size=1).map(frozenset)
bit_generators = st.sampled_from([np.random.PCG64, np.random.MT19937])


def generator_state(rng: np.random.Generator):
    """The bit generator's state as nested tuples, which compare by value
    (MT19937's state holds an array)."""

    def frozen(value):
        if isinstance(value, dict):
            return tuple(sorted((k, frozen(v)) for k, v in value.items()))
        if isinstance(value, np.ndarray):
            return value.dtype.str, value.tobytes()
        return value

    return frozen(rng.bit_generator.state)


@given(
    st.integers(0, 12),
    st.integers(0, 12),
    st.integers(2, 6),
    st.integers(1, 6),
    wide_gate_sets,
    seeds,
    bit_generators,
    st.integers(1, 200),
)
def test_draws_split_into_lists_anywhere(a, b, n, depth, gate_set, seed, bit_generator, cells):
    """A circuit takes a fixed count of doubles, in order: a list of a + b
    circuits, drawn whole at most `cells` cells at a time, is the list of a
    followed by the list of b, and leaves the generator in the same state."""
    whole = np.random.Generator(bit_generator(seed))
    parts = np.random.Generator(bit_generator(seed))
    with mock.patch.object(circuit_module, "_DRAW_CELLS", cells):
        drawn = random_circuits(a + b, n, depth, gate_set, whole)
    first = random_circuits(a, n, depth, gate_set, parts)
    assert drawn == first + random_circuits(b, n, depth, gate_set, parts)
    assert generator_state(whole) == generator_state(parts)


@given(st.integers(0, 9), st.integers(1, 9), st.integers(1, 6), wide_gate_sets, seeds)
@example(3, 20, 2, frozenset({GateKind.CX}), 0)  # the widest, pairs only
def test_draws_follow_the_documented_rules(count, n, depth, gate_set, seed):
    """Cell for cell, angle bits included, the circuits the oracle builds
    from the same doubles by the rules `random_circuits` documents."""
    assume(n > 1 or any(k.arity == 1 for k in gate_set))
    drawn = random_circuits(count, n, depth, gate_set, np.random.default_rng(seed))
    assert drawn == draw_oracle(count, n, depth, gate_set, np.random.default_rng(seed))


@given(st.integers(1, 8), st.integers(1, 8), gate_sets, seeds)
def test_random_circuit_is_a_list_of_one(n, depth, gate_set, seed):
    one, listed = np.random.default_rng(seed), np.random.default_rng(seed)
    circuit = random_circuit(n, depth, gate_set, one)
    assert [circuit] == random_circuits(1, n, depth, gate_set, listed)
    assert generator_state(one) == generator_state(listed)


@settings(max_examples=20)
@given(seeds, st.integers(2, 4), st.integers(1, 4))
def test_baseline_trace_does_not_depend_on_its_chunk(seed, n, depth):
    target = simulator.simulate(random_circuit(n, depth, FULL_GATE_SET, np.random.default_rng(seed)))
    cfg = RunConfig(population_size=9, generations=5, n_qubits=n, depth=depth)
    runs = []
    for chunk in (1, 7, 256):
        with mock.patch.object(engine, "_BASELINE_CHUNK", chunk):
            rng = np.random.default_rng(seed)
            runs.append((random_baseline(cfg, FidelityFitness(target), rng), generator_state(rng)))
    assert runs[0] == runs[1] == runs[2]


def chi_square_bound(df: int) -> float:
    """A chi-square statistic on df degrees of freedom exceeds this with
    probability about 1e-6 (the Wilson-Hilferty approximation)."""
    return df * (1 - 2 / (9 * df) + 4.75 * math.sqrt(2 / (9 * df))) ** 3


G = GateKind
DRAWN_COLUMNS = {
    "one-qubit kinds only": (3, frozenset({G.X, G.H, G.RZ})),
    "two rows": (2, frozenset({G.H, G.CZ})),
    "singles and pairs": (3, frozenset({G.X, G.RZ, G.CX, G.CZ})),
    "pair heavy, four rows": (4, frozenset({G.X, G.CX, G.CZ})),
    "pairs only, odd rows": (3, frozenset({G.CX})),
    "pairs only, four rows": (4, frozenset({G.CX, G.CZ})),
    "five rows": (5, frozenset({G.H, G.CX})),
}
# what of a column each check tallies: its kinds per row (frequencies, and
# which row a pairs-only column leaves alone, which the visit order sets),
# its roles and partners per row (uniform partners, the coin), and all of it
COLUMN_VIEWS = {
    "kinds": lambda column: tuple(kind for kind, _, _ in column),
    "roles and partners": lambda column: tuple((role, partner) for _, role, partner in column),
    "whole column": lambda column: column,
}


@pytest.mark.parametrize("view", sorted(COLUMN_VIEWS))
@pytest.mark.parametrize("case", sorted(DRAWN_COLUMNS))
def test_drawn_columns_follow_the_documented_distribution(case, view):
    """20 000 drawn columns, tallied by `view`, against the counts the
    exact distribution of tests/oracles.py predicts (chi-square)."""
    n, gate_set = DRAWN_COLUMNS[case]
    of = COLUMN_VIEWS[view]
    expected: Counter = Counter()
    for column, p in column_distribution(n, gate_set).items():
        expected[of(column)] += p
    circuits = random_circuits(2000, n, 10, gate_set, np.random.default_rng(11))
    tally = Counter(
        of(tuple((g.kind.value, g.role.value, g.partner) for g in cells))
        for c in circuits
        for cells in zip(*c.grid)
    )
    total = sum(tally.values())
    assert set(tally) <= set(expected)
    statistic = sum((tally[k] - total * p) ** 2 / (total * p) for k, p in expected.items())
    assert statistic < chi_square_bound(max(len(expected) - 1, 1))


def test_drawn_angles_are_uniform():
    circuits = random_circuits(500, 4, 10, frozenset({G.RX, G.RY, G.RZ, G.CX}), np.random.default_rng(5))
    thetas = np.array([g.theta for c in circuits for row in c.grid for g in row if g.theta is not None])
    assert ((-pi <= thetas) & (thetas < pi)).all()
    tally = np.histogram(thetas, bins=16, range=(-pi, pi))[0]
    expected = len(thetas) / 16
    assert ((tally - expected) ** 2 / expected).sum() < chi_square_bound(15)
