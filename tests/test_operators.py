import warnings
from collections import Counter

import numpy as np
import pytest

from conftest import bell_circuit
from oracles import embed_unitary

from qcevolve.gates import gate_matrix

from qcevolve.circuit import Circuit, Gate, Role, random_circuit, validate
from qcevolve.errors import ConfigurationError, QcevolveError
from qcevolve.gates import FULL_GATE_SET, GateKind
from qcevolve.operators import (
    Individual,
    MutationContext,
    crossover_blockwise,
    crossover_multi_point,
    crossover_single_point,
    mutate,
    mutate_parameter,
    mutate_qubit_count,
    mutate_swap_columns,
    mutate_swap_control,
    select_random,
    select_roulette,
    select_tournament,
    MUTATION_METHODS,
    _mutation_probabilities,
)
from qcevolve.simulator import simulate

ID = Gate(GateKind.ID)
CTX = MutationContext(gate_set=FULL_GATE_SET, min_qubits=1, max_qubits=5, max_depth=10)


def make_pop(fitnesses, rng):
    return [Individual(random_circuit(2, 2, FULL_GATE_SET, rng), f) for f in fitnesses]


def non_id_multiset(circuit):
    cells = []
    for r in range(circuit.n_qubits):
        for c in range(circuit.depth):
            g = circuit.grid[r][c]
            if g.kind is not GateKind.ID:
                cells.append((g.kind, g.role, g.theta))
    return Counter(cells)


class TestSelectRandom:
    def test_population_of_one(self, rng):
        pop = make_pop([0.5], rng)
        picked = select_random(pop, 3, rng)
        assert picked == [pop[0]] * 3

    def test_count_zero_rejected(self, rng):
        with pytest.raises(ValueError):
            select_random(make_pop([1.0, 2.0], rng), 0, rng)

    def test_uniform(self, rng):
        pop = make_pop([0.0, 10.0, 20.0], rng)
        counts = Counter(id(ind) for ind in select_random(pop, 30000, rng))
        for n in counts.values():
            assert abs(n - 10000) < 500


class TestSelectTournament:
    def test_size_one_is_uniform(self, rng):
        pop = make_pop([0.1, 0.9], rng)
        picked = select_tournament(pop, 20000, 1, rng)
        frac = sum(ind.fitness == 0.9 for ind in picked) / len(picked)
        assert abs(frac - 0.5) < 0.01

    def test_size_two_win_probability(self, rng):
        # with replacement: draws {00,01,10,11} equally likely, best wins 3/4
        pop = make_pop([0.1, 0.9], rng)
        picked = select_tournament(pop, 100000, 2, rng)
        frac = sum(ind.fitness == 0.9 for ind in picked) / len(picked)
        assert abs(frac - 0.75) < 0.01

    def test_dominates_random(self, rng):
        pop = make_pop([0.0, 0.25, 0.5, 0.75, 1.0], rng)
        t_mean = np.mean([i.fitness for i in select_tournament(pop, 100000, 2, rng)])
        r_mean = np.mean([i.fitness for i in select_random(pop, 100000, rng)])
        assert t_mean > r_mean


class TestSelectionContracts:
    def test_empty_population(self, rng):
        with pytest.raises(ValueError, match="^population is empty$"):
            select_tournament([], 1, 2, rng)
        with pytest.raises(ValueError, match="^population is empty$"):
            select_roulette([], 1, rng)

    @pytest.mark.parametrize("count", [0, -2])
    def test_count_below_one(self, count, rng):
        pop = make_pop([1.0, 2.0], rng)
        with pytest.raises(ValueError, match=f"^count {count} must be >= 1$"):
            select_tournament(pop, count, 2, rng)
        with pytest.raises(ValueError, match=f"^count {count} must be >= 1$"):
            select_roulette(pop, count, rng)

    def test_tournament_size_below_one(self, rng):
        with pytest.raises(ValueError, match="^tournament_size 0 must be >= 1$"):
            select_tournament(make_pop([1.0, 2.0], rng), 3, 0, rng)


class TestSelectRoulette:
    def test_equal_weights_uniform(self, rng):
        pop = make_pop([1.0, 1.0, 1.0], rng)
        counts = Counter(id(ind) for ind in select_roulette(pop, 30000, rng))
        for n in counts.values():
            assert abs(n - 10000) < 500

    def test_proportional(self, rng):
        pop = make_pop([1.0, 3.0], rng)
        picked = select_roulette(pop, 100000, rng)
        frac = sum(ind.fitness == 3.0 for ind in picked) / len(picked)
        assert abs(frac - 0.75) < 0.01

    @pytest.mark.parametrize("fits", [[1e308] * 3, [-1e308, 1e308]])
    def test_weights_that_overflow_name_the_range(self, rng, fits):
        pop = make_pop(fits, rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QcevolveError) as exc:
                select_roulette(pop, 2, rng)
        assert str(exc.value).startswith(
            f"roulette selection cannot weigh fitness from {min(fits):g} to 1e+308: "
        )

    def test_all_zero_uniform(self, rng):
        pop = make_pop([0.0, 0.0], rng)
        picked = select_roulette(pop, 20000, rng)
        counts = Counter(id(ind) for ind in picked)
        for n in counts.values():
            assert abs(n - 10000) < 400


def all_x_circuit(n, m):
    return Circuit(n, tuple(tuple(Gate(GateKind.X) for _ in range(m)) for _ in range(n)))


def all_h_circuit(n, m):
    return Circuit(n, tuple(tuple(Gate(GateKind.H) for _ in range(m)) for _ in range(n)))


class TestCrossoverSinglePoint:
    def test_identical_parents(self, rng):
        c = random_circuit(3, 5, FULL_GATE_SET, rng)
        c1, c2 = crossover_single_point(c, c, rng)
        assert c1 == c and c2 == c

    def test_columns_swap_at_cut(self, rng):
        a, b = all_x_circuit(2, 4), all_h_circuit(2, 4)
        for _ in range(20):
            c1, c2 = crossover_single_point(a, b, rng)
            kinds1 = [c1.grid[0][j].kind for j in range(4)]
            cut = kinds1.index(GateKind.H)
            assert all(k is GateKind.X for k in kinds1[:cut])
            assert all(k is GateKind.H for k in kinds1[cut:])
            kinds2 = [c2.grid[0][j].kind for j in range(4)]
            assert all(k is GateKind.H for k in kinds2[:cut])

    def test_depth_mismatch_padded(self, rng):
        a = random_circuit(2, 3, FULL_GATE_SET, rng)
        b = random_circuit(2, 5, FULL_GATE_SET, rng)
        c1, c2 = crossover_single_point(a, b, rng)
        assert c1.depth == 5 and c2.depth == 5

    def test_conserves_non_id_cells(self, rng):
        for _ in range(100):
            a = random_circuit(3, 4, FULL_GATE_SET, rng)
            b = random_circuit(3, 6, FULL_GATE_SET, rng)
            c1, c2 = crossover_single_point(a, b, rng)
            assert non_id_multiset(c1) + non_id_multiset(c2) == non_id_multiset(
                a
            ) + non_id_multiset(b)


class TestCrossoverMultiPoint:
    def test_identical_parents(self, rng):
        c = random_circuit(2, 5, FULL_GATE_SET, rng)
        c1, c2 = crossover_multi_point(c, c, 3, rng)
        assert c1 == c and c2 == c

    def test_per_column_alternation(self, rng):
        a, b = all_x_circuit(1, 5), all_h_circuit(1, 5)
        c1, _ = crossover_multi_point(a, b, 4, rng)
        kinds = [c1.grid[0][j].kind for j in range(5)]
        assert kinds == [GateKind.X, GateKind.H] * 2 + [GateKind.X]

    def test_two_points_on_depth_three(self, rng):
        a, b = all_x_circuit(1, 3), all_h_circuit(1, 3)
        c1, _ = crossover_multi_point(a, b, 2, rng)
        kinds = [c1.grid[0][j].kind for j in range(3)]
        assert kinds == [GateKind.X, GateKind.H, GateKind.X]

    def test_single_point_when_fewer_than_two_cuts_fit(self, rng):
        # (depth of a, depth of b, n_points): the padded depth leaves room
        # for one cut or none, or only one is asked for
        for m1, m2, n_points in [(1, 1, 2), (2, 1, 9), (1, 2, 3), (5, 4, 1), (3, 3, 1)]:
            a = random_circuit(2, m1, FULL_GATE_SET, rng)
            b = random_circuit(3, m2, FULL_GATE_SET, rng)
            multi, single = np.random.default_rng(11), np.random.default_rng(11)
            children = crossover_multi_point(a, b, n_points, multi)
            assert children == crossover_single_point(a, b, single)
            assert multi.bit_generator.state == single.bit_generator.state

    def test_zero_points_rejected(self, rng):
        a = random_circuit(2, 5, FULL_GATE_SET, rng)
        with pytest.raises(ValueError, match="n_points 0"):
            crossover_multi_point(a, a, 0, rng)

    def test_conserves_non_id_cells(self, rng):
        for _ in range(100):
            a = random_circuit(3, 6, FULL_GATE_SET, rng)
            b = random_circuit(3, 6, FULL_GATE_SET, rng)
            c1, c2 = crossover_multi_point(a, b, 3, rng)
            assert non_id_multiset(c1) + non_id_multiset(c2) == non_id_multiset(
                a
            ) + non_id_multiset(b)


class TestCrossoverBlockwise:
    def test_identical_single_qubit_gate_parents(self, rng):
        c = all_x_circuit(3, 4)
        c1, c2 = crossover_blockwise(c, c, rng)
        assert c1 == c and c2 == c

    def test_split_pair_reconstructed(self, rng):
        # CX spanning rows 0-1 in every column; a row cut at 1 breaks it
        ctrl = Gate(GateKind.CX, Role.CONTROL, partner=1)
        tgt = Gate(GateKind.CX, Role.TARGET, partner=0)
        a = Circuit(2, ((ctrl, ctrl), (tgt, tgt)))
        b = all_h_circuit(2, 2)
        for _ in range(20):
            c1, c2 = crossover_blockwise(a, b, rng)
            validate(c1)
            validate(c2)

    def test_single_row_degrades_to_single_point(self, rng):
        a, b = all_x_circuit(1, 4), all_h_circuit(1, 4)
        c1, c2 = crossover_blockwise(a, b, rng)
        validate(c1)
        validate(c2)
        kinds = {c1.grid[0][j].kind for j in range(4)}
        assert kinds <= {GateKind.X, GateKind.H}


class TestMutations:
    def test_swap_columns_depth_one(self, rng):
        c = random_circuit(2, 1, FULL_GATE_SET, rng)
        assert mutate_swap_columns(c, rng, CTX) == c

    def test_swap_control_on_bell(self, rng):
        c = bell_circuit()
        out = mutate_swap_control(c, rng, CTX)
        assert out.grid[0][1].role is Role.TARGET
        assert out.grid[1][1].role is Role.CONTROL
        # control q1 is |0> after the swap, so the CX no longer fires:
        # value frozen from the index-embedding oracle
        expected = embed_unitary(
            gate_matrix(GateKind.CX), (1, 0), 2
        ) @ embed_unitary(gate_matrix(GateKind.H), (0,), 2) @ np.array(
            [1, 0, 0, 0], dtype=complex
        )
        sq2 = 1.0 / np.sqrt(2.0)
        assert np.allclose(expected, [sq2, sq2, 0, 0])
        assert np.allclose(simulate(out), expected)

    def test_swap_control_no_controlled_gate(self, rng):
        c = all_x_circuit(2, 2)
        assert mutate_swap_control(c, rng, CTX) == c

    def test_qubit_count_remove_repairs(self):
        rng = np.random.default_rng(7)
        ctx = MutationContext(FULL_GATE_SET, min_qubits=1, max_qubits=2, max_depth=5)
        c = bell_circuit()
        seen_removed = False
        for _ in range(30):
            out = mutate_qubit_count(c, rng, ctx)
            validate(out)
            if out.n_qubits == 1:
                seen_removed = True
        assert seen_removed

    def test_parameter_jitter(self, rng):
        c = random_circuit(2, 4, frozenset({GateKind.RX}), rng)
        out = mutate_parameter(c, rng, CTX)
        diffs = [
            (r, col)
            for r in range(2)
            for col in range(4)
            if out.grid[r][col].theta != c.grid[r][col].theta
        ]
        assert len(diffs) == 1

    def test_parameter_no_parameterized_gate(self, rng):
        c = all_x_circuit(2, 2)
        assert mutate_parameter(c, rng, CTX) == c

    def test_dispatcher_validity(self, rng):
        for _ in range(500):
            c = random_circuit(int(rng.integers(1, 4)), int(rng.integers(1, 6)),
                               FULL_GATE_SET, rng)
            validate(mutate(c, rng, CTX))

    def test_zero_weight_never_applied(self, rng):
        # weight 0 on everything except swap_columns: grids only permute columns
        weights = [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]
        for _ in range(100):
            c = random_circuit(3, 4, FULL_GATE_SET, rng)
            out = mutate(c, rng, CTX, weights)
            assert out.n_qubits == c.n_qubits and out.depth == c.depth
            assert sorted(map(str, (c.column(j) for j in range(4)))) == sorted(
                map(str, (out.column(j) for j in range(4)))
            )

    def test_bad_weights(self, rng):
        c = all_x_circuit(2, 2)
        with pytest.raises(ConfigurationError):
            mutate(c, rng, CTX, [0.0] * len(MUTATION_METHODS))
        with pytest.raises(ConfigurationError):
            mutate(c, rng, CTX, [1.0, -1.0, 1.0, 1.0, 1.0, 1.0])
        # rng.choice would raise ValueError on these
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ConfigurationError, match="finite"):
                mutate(c, rng, CTX, [bad, 1.0, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ConfigurationError, match="needs 6 values"):
            mutate(c, rng, CTX, [1.0] * 5)

    def test_weights_checked_on_every_call_and_normalized_once(self, rng):
        c = all_x_circuit(2, 2)
        bad = [1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
        for _ in range(2):  # a failed check is not cached
            with pytest.raises(ConfigurationError, match="nonnegative"):
                mutate(c, rng, CTX, bad)
        weights = (2.0, 1.0, 0.0, 0.5, 1.0, 3.0)
        p = _mutation_probabilities(weights)
        assert p is _mutation_probabilities(tuple(list(weights)))
        w = np.asarray(weights)
        assert p.tobytes() == (w / w.sum()).tobytes()
        assert not p.flags.writeable

    def test_weights_whose_sum_overflows(self, rng):
        # each weight is finite, their sum is not: rng.choice would raise
        # ValueError after an overflow warning
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="with a finite sum"):
                mutate(all_x_circuit(2, 2), rng, CTX, [1e308] * len(MUTATION_METHODS))
        assert rng.bit_generator.state == state


class TestDeterminism:
    def test_same_seed_same_output(self):
        results = []
        for _ in range(2):
            rng = np.random.default_rng(99)
            a = random_circuit(3, 5, FULL_GATE_SET, rng)
            b = random_circuit(3, 5, FULL_GATE_SET, rng)
            c1, c2 = crossover_blockwise(a, b, rng)
            m = mutate(c1, rng, CTX)
            results.append((a, b, c1, c2, m))
        assert results[0] == results[1]
