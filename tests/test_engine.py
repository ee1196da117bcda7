import numpy as np
import pytest

from conftest import bell_circuit

from qcevolve.circuit import random_circuit, validate
from qcevolve.engine import (
    GenerationRecord,
    RunConfig,
    evolve,
    make_rng_streams,
    random_baseline,
)
from qcevolve.errors import ConfigurationError
from qcevolve.fitness import (
    Dataset,
    EntanglementFitness,
    FidelityFitness,
    FitnessFunction,
    MLFitness,
)
from qcevolve.gates import FULL_GATE_SET
from qcevolve.simulator import simulate


class CountingFitness(FitnessFunction):
    name = "counting"

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def evaluate(self, circuit):
        self.calls += 1
        return self.inner.evaluate(circuit)


def small_config(**overrides):
    defaults = dict(
        population_size=10,
        generations=5,
        n_qubits=2,
        depth=3,
        seed=1,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestRunConfig:
    def test_defaults_resolve(self):
        cfg = RunConfig().resolved()
        assert cfg.max_qubits == cfg.n_qubits
        assert cfg.max_depth == 2 * cfg.depth
        assert cfg.children_per_generation == cfg.population_size - cfg.elitism

    @pytest.mark.parametrize(
        "bad",
        [
            {"population_size": 1},
            {"elitism": 100},
            {"crossover_prob": 1.5},
            {"crossover_method": "bogus"},
            {"parent_selection": "bogus"},
            {"tournament_size": 0},
        ],
    )
    def test_invariants(self, bad):
        with pytest.raises(ConfigurationError):
            RunConfig(**{**dict(population_size=100), **bad}).resolved()


class TestRngStreams:
    def test_reproducible(self):
        a = make_rng_streams(5, ["ga"])["ga"].random(4)
        b = make_rng_streams(5, ["ga"])["ga"].random(4)
        assert np.array_equal(a, b)

    def test_labels_independent(self):
        streams = make_rng_streams(5, ["ga", "baseline"])
        assert not np.array_equal(
            streams["ga"].random(4), streams["baseline"].random(4)
        )

    def test_duplicate_labels(self):
        with pytest.raises(ValueError):
            make_rng_streams(5, ["a", "a"])


class TestEvolve:
    def test_zero_generations(self):
        cfg = small_config(generations=0)
        rng = np.random.default_rng(0)
        best, trace = evolve(cfg, EntanglementFitness(), rng)
        assert len(trace) == 1
        assert trace[0].generation == 0
        assert best.fitness == trace[0].best_fitness

    def test_fixed_point_population(self):
        target = simulate(bell_circuit())
        fn = FidelityFitness(target)
        cfg = small_config(generations=4, mutation_prob=0.0, crossover_prob=1.0)
        rng = np.random.default_rng(3)
        best, trace = evolve(cfg, fn, rng)
        # elitism keeps the best; its fitness never degrades
        assert all(
            trace[i].best_fitness <= trace[i + 1].best_fitness + 1e-12
            for i in range(len(trace) - 1)
        )

    def test_population_size_and_validity(self):
        calls = []

        class Spy(FitnessFunction):
            def evaluate(self, circuit):
                validate(circuit)
                calls.append(circuit)
                return 0.5

        cfg = small_config(generations=3)
        evolve(cfg, Spy(), np.random.default_rng(0))
        # per-generation counts: pop_size init, then children each generation
        assert len(calls) == 10 + 3 * 9

    def test_best_at_least_mean(self):
        cfg = small_config()
        _, trace = evolve(cfg, EntanglementFitness(), np.random.default_rng(8))
        for rec in trace:
            assert rec.best_fitness >= rec.mean_fitness - 1e-12

    def test_monotone_best_with_elitism(self):
        cfg = small_config(generations=10, elitism=1)
        _, trace = evolve(cfg, EntanglementFitness(), np.random.default_rng(4))
        bests = [r.best_fitness for r in trace]
        assert all(a <= b + 1e-12 for a, b in zip(bests, bests[1:]))

    def test_entanglement_run_reaches_bell(self):
        cfg = RunConfig(
            population_size=50, generations=50, n_qubits=2, depth=3, seed=2
        )
        best, _ = evolve(cfg, EntanglementFitness(), np.random.default_rng(2))
        assert best.fitness >= 0.99

    def test_deterministic(self):
        cfg = small_config(generations=4)
        runs = []
        for _ in range(2):
            best, trace = evolve(
                cfg, EntanglementFitness(), np.random.default_rng(11)
            )
            runs.append((best, trace))
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    @pytest.mark.parametrize("survivor", ["truncation", "random", "tournament", "roulette"])
    def test_survivor_modes_keep_population_size(self, survivor):
        cfg = small_config(survivor_selection=survivor, generations=3)
        _, trace = evolve(cfg, EntanglementFitness(), np.random.default_rng(6))
        assert len(trace) == 4

    @pytest.mark.parametrize("parent", ["random", "tournament", "roulette"])
    @pytest.mark.parametrize("method", ["single_point", "multi_point", "blockwise"])
    def test_all_operator_configurations(self, parent, method):
        cfg = small_config(
            parent_selection=parent, crossover_method=method, generations=2
        )
        best, trace = evolve(cfg, EntanglementFitness(), np.random.default_rng(9))
        assert len(trace) == 3
        validate(best.circuit)


class TestQubitBounds:
    """Bounds the fitness cannot score are rejected before any circuit is
    drawn, not when mutate_qubit_count first leaves the scorable widths."""

    class CountingFidelity(FidelityFitness):
        calls = 0

        def evaluate(self, circuit):
            self.calls += 1
            return super().evaluate(circuit)

    @pytest.mark.parametrize("search", [evolve, random_baseline])
    def test_fidelity_width_beyond_target_rejected(self, search):
        target = simulate(random_circuit(3, 4, FULL_GATE_SET, np.random.default_rng(0)))
        fn = self.CountingFidelity(target)
        cfg = RunConfig(
            n_qubits=3, depth=5, max_qubits=4, mutation_prob=1.0,
            population_size=10, generations=30,
        )
        match = "min_qubits == n_qubits == max_qubits"
        with pytest.raises(ConfigurationError, match=match):
            search(cfg, fn, np.random.default_rng(1))
        assert fn.calls == 0

    def test_fidelity_target_width_mismatch_rejected(self):
        fn = FidelityFitness(simulate(bell_circuit()))
        with pytest.raises(ConfigurationError, match="target width"):
            evolve(small_config(n_qubits=3), fn, np.random.default_rng(0))

    def test_entanglement_needs_two_qubits(self):
        cfg = small_config(min_qubits=1)
        with pytest.raises(ConfigurationError, match="min_qubits >= 2"):
            evolve(cfg, EntanglementFitness(), np.random.default_rng(0))

    def test_ml_needs_a_qubit_per_feature(self):
        ds = Dataset(np.zeros((2, 3)), np.array([0, 1]))
        cfg = small_config(n_qubits=3, min_qubits=2)
        with pytest.raises(ConfigurationError, match="min_qubits >= 3"):
            random_baseline(cfg, MLFitness(ds), np.random.default_rng(0))


class TestRandomBaseline:
    def test_monotone(self):
        cfg = small_config(generations=5)
        trace = random_baseline(
            cfg, EntanglementFitness(), np.random.default_rng(0)
        )
        assert len(trace) == 6
        assert all(a <= b for a, b in zip(trace, trace[1:]))

    def test_budget_matches_ga(self):
        cfg = small_config(generations=3)
        fn = CountingFitness(EntanglementFitness())
        random_baseline(cfg, fn, np.random.default_rng(0))
        assert fn.calls == 10 + 3 * 9

    def test_deterministic(self):
        cfg = small_config(generations=3)
        t1 = random_baseline(cfg, EntanglementFitness(), np.random.default_rng(5))
        t2 = random_baseline(cfg, EntanglementFitness(), np.random.default_rng(5))
        assert t1 == t2
