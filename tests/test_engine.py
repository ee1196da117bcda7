import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bell_circuit

from qcevolve import engine
from qcevolve.circuit import (
    MAX_QUBITS,
    Circuit,
    Gate,
    export_qasm,
    from_columns,
    pad_to,
    random_circuit,
    serialize,
    validate,
)
from qcevolve.engine import (
    CROSSOVER_METHODS,
    SELECTION_METHODS,
    SURVIVOR_METHODS,
    GenerationRecord,
    RunConfig,
    evolve,
    make_rng_streams,
    random_baseline,
)
from qcevolve.errors import ConfigurationError, QcevolveError
from qcevolve.fitness import (
    Dataset,
    EntanglementFitness,
    FidelityFitness,
    FitnessFunction,
    MLFitness,
)
from qcevolve.gates import FULL_GATE_SET, GateKind
from qcevolve.operators import MUTATION_METHODS
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
            {"generations": -1},
            {"survivor_selection": "bogus"},
            {"min_qubits": 0},
            {"min_qubits": 5},
            {"max_qubits": 3},
            {"depth": 0},
            {"max_depth": 19},
            {"children_per_generation": 0},
            {"gate_set": frozenset()},
            {"n_qubits": 1, "gate_set": frozenset({GateKind.CX, GateKind.CZ})},
            {"crossover_points": 0},
            {"crossover_method": "multi_point", "crossover_points": -3},
        ],
    )
    def test_invariants(self, bad):
        with pytest.raises(ConfigurationError):
            RunConfig(**{**dict(population_size=100), **bad}).resolved()

    @pytest.mark.parametrize("search", [evolve, random_baseline])
    @pytest.mark.parametrize(
        "weights,match",
        [
            ((float("nan"), 1, 1, 1, 1, 1), "finite and nonnegative"),
            ((1, 1, float("inf"), 1, 1, 1), "finite and nonnegative"),
            ((1, 1, 1, 1, 1, -1), "finite and nonnegative"),
            ((0, 0, 0, 0, 0, 0), "not all zero"),
            ((1, 1, 1, 1, 1), "needs 6 values"),
            ((), "needs 6 values"),
        ],
    )
    def test_bad_mutation_weights_rejected(self, search, weights, match):
        # a non-finite weight used to reach rng.choice in the first mutation
        fn = CountingFitness(EntanglementFitness())
        cfg = small_config(mutation_weights=weights, mutation_prob=1.0)
        with pytest.raises(ConfigurationError, match=f"mutation_weights .*{match}"):
            search(cfg, fn, np.random.default_rng(0))
        assert fn.calls == 0

    def test_mutation_weights_whose_sum_overflows_rejected(self):
        cfg = RunConfig(mutation_weights=(1e308,) * len(MUTATION_METHODS))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError, match="mutation_weights .*finite sum"):
                cfg.resolved()


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

    def test_population_size_and_validity(self, monkeypatch):
        scored = []

        class Spy(FitnessFunction):
            def evaluate(self, circuit):
                validate(circuit)
                scored.append(circuit)
                return 0.5

        # (circuit, whether the memo or an earlier request of its batch held it)
        requests = []
        request = engine._Evaluator.evaluate_all

        def recording(self, circuits):
            held = set(self.memo)
            for circuit in circuits:
                requests.append((circuit, circuit in held))
                held.add(circuit)
            return request(self, circuits)

        monkeypatch.setattr(engine._Evaluator, "evaluate_all", recording)
        cfg = small_config(generations=3)
        evolve(cfg, Spy(), np.random.default_rng(0))
        # per-generation requests: pop_size init, then children each generation
        assert len(requests) == 10 + 3 * 9
        # the fitness runs once for each requested circuit the memo lacks
        assert scored == [c for c, held in requests if not held]

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

    @pytest.mark.parametrize("search", [evolve, random_baseline])
    def test_width_beyond_the_simulator_rejected(self, search):
        # mutate_qubit_count would grow rows past MAX_QUBITS partway through
        fn = CountingFitness(EntanglementFitness())
        cfg = small_config(max_qubits=MAX_QUBITS + 1, mutation_prob=1.0)
        match = f"max_qubits {MAX_QUBITS + 1} exceeds the simulator's limit of {MAX_QUBITS}"
        with pytest.raises(ConfigurationError, match=match):
            search(cfg, fn, np.random.default_rng(0))
        assert fn.calls == 0

    def test_width_at_the_simulator_limit_accepted(self):
        assert small_config(max_qubits=MAX_QUBITS).resolved().max_qubits == MAX_QUBITS


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

    @staticmethod
    def plain_baseline(config, fn, rng):
        """The baseline written out: draw, `score` and running max, one
        circuit at a time."""
        cfg = config.resolved()
        best, trace = -np.inf, []
        for gen in range(cfg.generations + 1):
            for _ in range(cfg.population_size if gen == 0 else cfg.children_per_generation):
                fit, _ = fn.score(random_circuit(cfg.n_qubits, cfg.depth, cfg.gate_set, rng))
                if fit > best:
                    best = fit
            trace.append(float(best))
        return trace

    FITNESSES = {
        "fidelity": lambda: FidelityFitness(
            simulate(random_circuit(3, 4, FULL_GATE_SET, np.random.default_rng(5))),
            depth_weight=0.1,
        ),
        "entanglement": EntanglementFitness,
        "ml": lambda: MLFitness(
            Dataset(np.array([[0.1, 0.8], [0.9, 0.3], [0.4, 0.6]]), np.array([0, 1, 0])),
            train_steps=1,
        ),
        # no score_all of its own: the default calls score per circuit
        "custom": lambda: CountingFitness(EntanglementFitness()),
    }

    # 10 + 9 * generations draws; a chunk of 16 holds a generation boundary
    @pytest.mark.parametrize("chunk,generations", [(16, 5), (engine._BASELINE_CHUNK, 30)])
    @pytest.mark.parametrize("fitness", sorted(FITNESSES))
    def test_same_trace_and_generator_as_plain_loop(
        self, monkeypatch, fitness, chunk, generations
    ):
        monkeypatch.setattr(engine, "_BASELINE_CHUNK", chunk)
        cfg = small_config(n_qubits=3, depth=4, generations=generations)
        assert 10 + 9 * generations > chunk
        fn = self.FITNESSES[fitness]()
        rng, plain_rng = np.random.default_rng(11), np.random.default_rng(11)
        trace = random_baseline(cfg, fn, rng)
        expected = self.plain_baseline(cfg, self.FITNESSES[fitness](), plain_rng)
        assert ["%.17g" % t for t in trace] == ["%.17g" % t for t in expected]
        assert rng.bit_generator.state == plain_rng.bit_generator.state

    def test_overrides_of_a_builtin_fitness_score(self, monkeypatch):
        monkeypatch.setattr(engine, "_BASELINE_CHUNK", 16)
        target = simulate(random_circuit(2, 3, FULL_GATE_SET, np.random.default_rng(5)))

        class Evaluated(FidelityFitness):
            calls = 0

            def evaluate(self, circuit):
                self.calls += 1
                return float(self.calls)

        class Scored(FidelityFitness):
            calls = 0

            def score(self, circuit):
                self.calls += 1
                return -float(self.calls), circuit

        cfg = small_config(generations=3)
        evaluated, scored = Evaluated(target), Scored(target)
        assert random_baseline(cfg, evaluated, np.random.default_rng(0)) == [
            10.0, 19.0, 28.0, 37.0
        ]
        assert random_baseline(cfg, scored, np.random.default_rng(0)) == [-1.0] * 4
        assert evaluated.calls == scored.calls == 10 + 3 * 9


class BadReturn:
    """A whole return of `score`, made from the circuit scored. The engine
    rejects it with "returned <match>, for the ... circuit"."""

    def __init__(self, label, make, match):
        self.label, self.make, self.match = label, make, match

    def __repr__(self):
        return self.label


def _with_cell(circuit, gate):
    grid = ((gate,) + circuit.grid[0][1:],) + circuit.grid[1:]
    return Circuit(circuit.n_qubits, grid)


NOT_A_PAIR = r"not a \(score, circuit\) pair"
NOT_A_CIRCUIT = "as its circuit, not a Circuit"
BAD_RETURNS = [
    BadReturn("returns-0.5", lambda c: 0.5, f"0.5, {NOT_A_PAIR}"),
    BadReturn("returns-None", lambda c: None, f"None, {NOT_A_PAIR}"),
    BadReturn("returns-list", lambda c: [0.5, c], rf"\[0.5, .*\], {NOT_A_PAIR}"),
    BadReturn("returns-triple", lambda c: (0.5, c, c), rf"\(0.5, .*\), {NOT_A_PAIR}"),
    BadReturn("returns-no-circuit", lambda c: (0.5, None), f"None {NOT_A_CIRCUIT}"),
    BadReturn("returns-serialized", lambda c: (0.5, serialize(c)), f".* {NOT_A_CIRCUIT}"),
    BadReturn(
        "returns-wider",
        lambda c: (0.5, pad_to(c, c.n_qubits + 1, c.depth)),
        r"a 3x\d+ circuit, not one of its shape",
    ),
    BadReturn(
        "returns-deeper",
        lambda c: (0.5, pad_to(c, c.n_qubits, c.depth + 1)),
        r"a 2x\d+ circuit, not one of its shape",
    ),
    BadReturn(
        "returns-extra-row",
        lambda c: (0.5, Circuit(c.n_qubits, c.grid + c.grid[:1])),
        r"an invalid circuit \(3 rows for 2 qubits\)",
    ),
    BadReturn(
        "returns-invalid",
        lambda c: (0.5, _with_cell(c, Gate(GateKind.RX))),
        r"an invalid circuit \(cell \(0, 0\): theta must be present iff "
        r"gate is parameterized\)",
    ),
]


class ScriptedFitness(FitnessFunction):
    """Scores 0.5 until the `bad_at`-th call, which returns `bad`; a
    BadReturn replaces that call's whole `score` return. `batches` holds the
    lists passed to `score_all`."""

    name = "scripted"

    def __init__(self, bad, bad_at: int = 12):
        self.bad, self.bad_at, self.calls = bad, bad_at, 0
        self.batches: list[list[Circuit]] = []

    def evaluate(self, circuit):
        self.calls += 1
        return self.bad if self.calls == self.bad_at else 0.5

    def score_all(self, circuits):
        self.batches.append(list(circuits))
        return super().score_all(circuits)

    def score(self, circuit):
        value, kept = super().score(circuit)
        if isinstance(value, BadReturn):
            return value.make(circuit)
        return value, kept


class TestScoreChecks:
    BAD = [float("nan"), float("inf"), -float("inf"), np.nan, 0.5 + 0j, "0.5", None]
    BAD += BAD_RETURNS  # each a whole `score` return

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize(
        "parents,survivors", [("tournament", "truncation"), ("roulette", "roulette")]
    )
    def test_rejected_in_evolve(self, bad, parents, survivors):
        # as in the baseline: the message names the circuit of the bad_at-th
        # call, and the rest of that call's batch is scored first
        cfg = small_config(parent_selection=parents, survivor_selection=survivors)
        fn = ScriptedFitness(bad)
        named = r"fitness 'scripted' \(ScriptedFitness\)"
        with pytest.raises(QcevolveError) as raised:
            evolve(cfg, fn, np.random.default_rng(0))
        scored = [c for batch in fn.batches for c in batch]
        bad_circuit = scored[fn.bad_at - 1]
        gates = " ".join(export_qasm(bad_circuit).splitlines()[3:])
        shape = f"{bad_circuit.n_qubits}x{bad_circuit.depth}"
        message = rf"{named} {self.returned(bad)}, for the {shape} circuit: {re.escape(gates)}$"
        assert re.match(message, str(raised.value))
        assert len(scored) - len(fn.batches[-1]) < fn.bad_at
        assert fn.calls == len(scored)

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    def test_rejected_in_baseline(self, bad):
        # the message names the circuit of the bad_at-th draw, though its
        # chunk of draws is scored in one score_all call
        rng = np.random.default_rng(0)
        draws = [random_circuit(2, 3, FULL_GATE_SET, rng) for _ in range(12)]
        gates = " ".join(export_qasm(draws[-1]).splitlines()[3:])
        message = rf"{self.returned(bad)}, for the 2x3 circuit: {re.escape(gates)}$"
        with pytest.raises(QcevolveError, match=message):
            random_baseline(small_config(), ScriptedFitness(bad), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "change,match",
        [
            (lambda scores: scores[:-1], r"\[\(.*\]"),
            (lambda scores: scores + scores[:1], r"\[\(.*\]"),
            (tuple, r"\(\(.*\)"),
            (lambda scores: None, "None"),
        ],
        ids=["short", "long", "tuple", "None"],
    )
    def test_score_all_of_another_length_or_type_rejected(self, change, match):
        class Miscounting(EntanglementFitness):
            def score_all(self, circuits):
                return change(super().score_all(circuits))

        # the ten circuits of generation 0 are distinct, so the GA's memo
        # passes all ten too
        message = (
            rf"fitness 'entanglement' \(Miscounting\) returned {match} from "
            r"score_all, not a list of 10 results$"
        )
        for search in (evolve, random_baseline):
            with pytest.raises(QcevolveError, match=message):
                search(small_config(generations=0), Miscounting(), np.random.default_rng(0))

    @staticmethod
    def returned(bad):
        """The part of the error message that names what `score` returned."""
        what = bad.match if isinstance(bad, BadReturn) else ".*, not a finite real number"
        return f"returned {what}"

    @pytest.mark.parametrize("scores", [(1e308,), (-1e308, 1e308)], ids=repr)
    def test_roulette_weights_that_overflow(self, scores):
        class Huge(FitnessFunction):
            name = "huge"
            calls = 0

            def evaluate(self, circuit):
                self.calls += 1
                return scores[self.calls % len(scores)]

        cfg = small_config(parent_selection="roulette")
        message = re.escape(f"roulette selection cannot weigh fitness from {min(scores):g} ")
        with pytest.raises(QcevolveError, match=message):
            evolve(cfg, Huge(), np.random.default_rng(0))

    @pytest.mark.parametrize("scores", [(1e308,), (1e308, 1e308, -1e308, 2.0)], ids=repr)
    def test_mean_of_scores_whose_sum_overflows(self, scores):
        # np.mean of these overflows to inf, or to nan from inf - inf
        class Huge(FitnessFunction):
            name = "huge"
            calls = 0

            def evaluate(self, circuit):
                self.calls += 1
                return scores[self.calls % len(scores)]

        cfg = small_config(population_size=6, generations=2, elitism=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, trace = evolve(cfg, Huge(), np.random.default_rng(0))
        means = [r.mean_fitness for r in trace]
        assert all(min(scores) <= m <= max(scores) for m in means)
        if len(scores) == 1:
            assert means == [1e308] * 3

    @pytest.mark.parametrize("good", [np.float32(0.25), np.int64(1), 0, True], ids=repr)
    def test_real_numbers_accepted(self, good):
        fn = ScriptedFitness(good)
        best, _ = evolve(small_config(generations=2), fn, np.random.default_rng(0))
        assert best.fitness == max(good, 0.5)


@st.composite
def memo_configs(draw) -> RunConfig:
    """Small configurations over every crossover, parent and survivor rule,
    with widths that mutation moves, for the entanglement fitness. Gate
    sets without angles make duplicate circuits, and so memo hits, common."""
    population = draw(st.integers(2, 8))
    n, depth = draw(st.integers(2, 4)), draw(st.integers(1, 4))
    weights = st.lists(
        st.sampled_from([0.0, 1.0, 2.5]),
        min_size=len(MUTATION_METHODS),
        max_size=len(MUTATION_METHODS),
    ).filter(any)
    gate_sets = [
        FULL_GATE_SET,
        frozenset({GateKind.H, GateKind.CX}),
        frozenset({GateKind.X, GateKind.H, GateKind.CZ}),
    ]
    return RunConfig(
        population_size=population,
        generations=draw(st.integers(1, 4)),
        n_qubits=n,
        depth=depth,
        min_qubits=draw(st.integers(2, n)),
        max_qubits=draw(st.integers(n, 5)),
        max_depth=draw(st.integers(depth, 6)),
        crossover_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        mutation_prob=draw(st.sampled_from([0.0, 0.5, 1.0])),
        crossover_method=draw(st.sampled_from(CROSSOVER_METHODS)),
        crossover_points=draw(st.integers(1, 3)),
        parent_selection=draw(st.sampled_from(SELECTION_METHODS)),
        survivor_selection=draw(st.sampled_from(SURVIVOR_METHODS)),
        tournament_size=draw(st.integers(1, 3)),
        elitism=draw(st.integers(0, min(2, population - 1))),
        gate_set=draw(st.sampled_from(gate_sets)),
        mutation_weights=draw(st.none() | weights.map(tuple)),
        children_per_generation=draw(st.none() | st.integers(1, 8)),
    )


class TestFitnessMemo:
    """evolve scores a circuit once while it is in the population or among
    the current generation's children; the memo holds nothing else."""

    def record(self, monkeypatch):
        """Wrap the memo's request and pruning points. Returns a list the
        pruning point appends ("population", survivors, memo after pruning)
        to, and a one-item list holding the largest memo size seen."""
        events, sizes = [], [0]
        request, keep_only = engine._Evaluator.evaluate_all, engine._Evaluator.keep_only

        def evaluate_all(self, circuits):
            members = request(self, circuits)
            sizes[0] = max(sizes[0], len(self.memo))
            return members

        def prune(self, members):
            keep_only(self, members)
            events.append(("population", members, dict(self.memo)))

        monkeypatch.setattr(engine._Evaluator, "evaluate_all", evaluate_all)
        monkeypatch.setattr(engine._Evaluator, "keep_only", prune)
        return events, sizes

    @pytest.mark.parametrize("survivor", ["truncation", "tournament"])
    def test_population_and_generation_circuits_not_rescored(
        self, survivor, monkeypatch
    ):
        events, sizes = self.record(monkeypatch)

        class Spy(EntanglementFitness):
            def evaluate(self, circuit):
                events.append(("scored", circuit))
                return super().evaluate(circuit)

        cfg = small_config(
            generations=8, crossover_prob=0.3, mutation_prob=0.3,
            survivor_selection=survivor, children_per_generation=6,
        )
        evolve(cfg, Spy(), np.random.default_rng(2))
        n_scored = self.replay(events)
        assert n_scored < 10 + 8 * 6  # duplicates were requested and skipped
        assert sizes[0] <= 10 + 6

    @staticmethod
    def replay(events) -> int:
        """Assert that no circuit was scored while the population or the
        current generation's scored children held it; the number scored."""
        held: set[Circuit] = set()  # population + this generation's scored
        n_scored = 0
        for kind, *rest in events:
            if kind == "scored":
                assert rest[0] not in held
                held.add(rest[0])
                n_scored += 1
            else:
                held = {ind.circuit for ind in rest[0]}
        return n_scored

    @pytest.mark.per_kernel
    @given(memo_configs(), st.integers(0, 2**32 - 1))
    def test_memo_contract_under_random_configs(self, cfg, seed):
        """Under any rules and widths, the memo scores no circuit it holds,
        holds at most population_size + children_per_generation entries, and
        changes nothing against scoring every request one at a time with
        `score`, unstacked."""
        # a function-scoped fixture would be shared by every example
        with pytest.MonkeyPatch.context() as mp:
            events, sizes = self.record(mp)

            class Spy(EntanglementFitness):
                # records and keeps the stacked scoring, as evaluate would not
                def score_all(self, circuits):
                    events.extend(("scored", circuit) for circuit in circuits)
                    return super().score_all(circuits)

            best, trace = evolve(cfg, Spy(), np.random.default_rng(seed))
        self.replay(events)
        resolved = cfg.resolved()
        assert sizes[0] <= resolved.population_size + resolved.children_per_generation
        def score_each(self, circuits):
            return [self._checked(c, self.fitness_fn.score(c)) for c in circuits]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Evaluator, "evaluate_all", score_each)
            every, every_trace = evolve(
                cfg, EntanglementFitness(), np.random.default_rng(seed)
            )
        assert [(r.best_fitness, r.mean_fitness) for r in every_trace] == [
            (r.best_fitness, r.mean_fitness) for r in trace
        ]
        assert every.circuit == best.circuit and every.fitness == best.fitness

    @given(memo_configs(), st.integers(0, 2**32 - 1))
    def test_one_score_all_call_per_generation(self, cfg, seed):
        """Each generation's circuits reach the fitness in at most one
        `score_all` call: on the distinct circuits the memo lacks, in the
        order first requested, and in no call when it lacks none."""
        requests, calls = [], []  # (circuits, memo keys before); score_all's lists

        class Spy(EntanglementFitness):
            def score_all(self, circuits):
                calls.append(list(circuits))
                return super().score_all(circuits)

        request = engine._Evaluator.evaluate_all

        def recording(self, circuits):
            requests.append((list(circuits), set(self.memo)))
            return request(self, circuits)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine._Evaluator, "evaluate_all", recording)
            evolve(cfg, Spy(), np.random.default_rng(seed))
        assert len(requests) == cfg.generations + 1
        expected = []
        for circuits, held in requests:
            misses = []
            for circuit in circuits:
                if circuit not in held and circuit not in misses:
                    misses.append(circuit)
            if misses:
                expected.append(misses)
        assert calls == expected

    @pytest.mark.parametrize("survivor", ["truncation", "roulette"])
    def test_only_survivors_entries_remain(self, survivor, monkeypatch):
        events, _ = self.record(monkeypatch)
        cfg = small_config(generations=6, survivor_selection=survivor)
        evolve(cfg, EntanglementFitness(), np.random.default_rng(5))
        assert len(events) == 6
        for _, members, memo in events:
            assert {id(ind) for ind in memo.values()} == {id(ind) for ind in members}
            assert all(ind.circuit == c for c, ind in memo.items())

    def test_lamarckian_trained_circuit_is_trained_again(self):
        ry = Gate(GateKind.RY, theta=0.3)
        ident = Gate(GateKind.ID)
        untrained = Circuit(2, ((ry, ident), (ident, ident)))
        ds = Dataset(np.array([[0.1, 0.2], [0.9, 0.7]]), np.array([0, 1]))
        inputs = []

        class Spy(MLFitness):
            def evaluate_trained(self, circuit):
                inputs.append(circuit)
                return super().evaluate_trained(circuit)

        evaluator = engine._Evaluator(Spy(ds, train_steps=3))
        [first] = evaluator.evaluate_all([untrained])
        assert first.circuit != untrained
        # an input equal to a trained circuit is a new input: trained again
        [second] = evaluator.evaluate_all([first.circuit])
        assert second is not first
        assert inputs == [untrained, first.circuit]
        # an input equal to one already scored reuses its result
        [again] = evaluator.evaluate_all([Circuit(2, untrained.grid)])
        assert again is first
        assert len(inputs) == 2

    def test_circuit_from_score_is_kept_and_memo_keyed_by_input(self, monkeypatch):
        events, _ = self.record(monkeypatch)

        def reversed_columns(circuit):
            return from_columns(circuit.n_qubits, list(zip(*circuit.grid))[::-1])

        class Reversing(FitnessFunction):
            """Not Lamarckian: keeps the input with its columns reversed."""

            def score(self, circuit):
                kept = reversed_columns(circuit)
                return EntanglementFitness().evaluate(kept), kept

        evolve(small_config(generations=4), Reversing(), np.random.default_rng(3))
        assert len(events) == 4
        for _, members, memo in events:
            assert {id(ind) for ind in memo.values()} == {id(ind) for ind in members}
            assert all(ind.circuit == reversed_columns(c) for c, ind in memo.items())
            assert any(ind.circuit != c for c, ind in memo.items())

    def test_baseline_uses_only_score(self):
        class ScoreOnly(FitnessFunction):
            calls = 0

            def evaluate(self, circuit):
                raise AssertionError("evaluate called")

            def score(self, circuit):
                self.calls += 1
                return float(self.calls), circuit

        fn = ScoreOnly()
        trace = random_baseline(small_config(generations=3), fn, np.random.default_rng(0))
        assert fn.calls == 10 + 3 * 9
        assert trace == [10.0, 19.0, 28.0, 37.0]

    def test_baseline_scores_every_draw(self, monkeypatch):
        monkeypatch.setattr(
            engine, "random_circuit", lambda *args: bell_circuit()
        )
        fn = CountingFitness(EntanglementFitness())
        trace = random_baseline(small_config(generations=3), fn, np.random.default_rng(0))
        assert fn.calls == 10 + 3 * 9
        assert trace == [1.0] * 4

    # best fitness, sha256 prefix of the serialized best circuit, and the
    # (best, mean) trace, recorded before evolve had a memo
    FIDELITY_RUN = (
        0.319794654831933,
        "1eff0b73e70e5c99",
        [
            (0.2615400001889874, 0.10391064094497907),
            (0.2679172658159694, 0.16484150503010017),
            (0.27041579194075566, 0.20833639010884783),
            (0.3176057925235618, 0.2527099224752134),
            (0.319794654831933, 0.27050951969620096),
            (0.319794654831933, 0.2852122920342685),
            (0.319794654831933, 0.30738745907549025),
        ],
    )
    ML_RUN = (
        0.6666666666666666,
        "392495e68261d2b4",
        [
            (0.5, 0.4166666666666667),
            (0.5, 0.5),
            (0.6666666666666666, 0.5277777777777778),
            (0.6666666666666666, 0.5833333333333334),
            (0.6666666666666666, 0.6666666666666666),
        ],
    )

    def test_scaled_fidelity_run_scores_under_a_third(self, monkeypatch):
        _, sizes = self.record(monkeypatch)
        target = simulate(random_circuit(4, 20, FULL_GATE_SET, np.random.default_rng(100)))
        fn = TestQubitBounds.CountingFidelity(target)
        cfg = RunConfig(population_size=100, generations=300, n_qubits=4, depth=20)
        best, _ = evolve(cfg, fn, np.random.default_rng(1000))
        requested = 100 + 300 * 99
        assert fn.calls <= requested / 3
        assert best.fitness == 0.7396658530313495  # as before the memo
        assert sizes[0] <= 100 + 99

    @staticmethod
    def summary(best, trace):
        digest = hashlib.sha256(serialize(best.circuit).encode()).hexdigest()[:16]
        return best.fitness, digest, [(r.best_fitness, r.mean_fitness) for r in trace]

    def test_fidelity_run_matches_recorded(self):
        target = simulate(random_circuit(3, 4, FULL_GATE_SET, np.random.default_rng(5)))
        cfg = RunConfig(population_size=10, generations=6, n_qubits=3, depth=4)
        run = evolve(cfg, FidelityFitness(target), np.random.default_rng(7))
        assert self.summary(*run) == self.FIDELITY_RUN

    def ml_run(self, wrap=lambda fn: fn, **ml_params):
        ds = Dataset(
            np.array([[0.1, 0.1], [0.9, 0.9], [0.1, 0.9], [0.9, 0.1], [0.5, 0.2], [0.3, 0.7]]),
            np.array([0, 0, 1, 1, 0, 1]),
        )
        cfg = RunConfig(population_size=6, generations=4, n_qubits=2, depth=3)
        fn = wrap(MLFitness(ds, train_steps=1, **ml_params))
        return self.summary(*evolve(cfg, fn, np.random.default_rng(3)))

    def test_lamarckian_ml_run_matches_recorded(self):
        assert self.ml_run() == self.ML_RUN

    def test_wrapper_forwarding_score_stays_lamarckian(self):
        class Wrapper(FitnessFunction):
            def __init__(self, inner):
                self.inner = inner

            def score(self, circuit):
                return self.inner.score(circuit)

        assert self.ml_run(Wrapper) == self.ML_RUN
        assert self.ml_run(Wrapper, lamarckian=False) == self.ml_run(lamarckian=False)
        assert self.ml_run(lamarckian=False) != self.ML_RUN
