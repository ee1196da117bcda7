import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bell_circuit, ghz3_circuit

from qcevolve import fitness
from qcevolve.circuit import Circuit, Gate, random_circuit
from qcevolve.errors import ConfigurationError, QcevolveError
from qcevolve.fitness import (
    Dataset,
    EntanglementFitness,
    FidelityFitness,
    MLFitness,
    _encode_features,
    _predictions,
    get_fitness_constructor,
    load_dataset,
    register_fitness,
)
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind
from qcevolve.simulator import partial_trace, run_gates, simulate

ID = Gate(GateKind.ID)
SQ2 = 1.0 / np.sqrt(2.0)


class TestFidelityFitness:
    def test_exact_preparation(self):
        c = bell_circuit()
        assert FidelityFitness(simulate(c)).evaluate(c) == pytest.approx(1.0, abs=1e-12)

    def test_identity_vs_plus_state(self):
        c = Circuit(2, ((ID,), (ID,)))
        target = np.array([SQ2, SQ2, 0, 0])  # H|0> on qubit 0
        assert FidelityFitness(target).evaluate(c) == pytest.approx(0.5)

    def test_depth_penalty(self):
        c = bell_circuit()
        target = simulate(c)
        assert FidelityFitness(target, depth_weight=0.5, max_depth=10).evaluate(c) == (
            pytest.approx(1.0 - 0.5 * 2 / 10)
        )

    @pytest.mark.parametrize("length", [0, 3, 6])
    def test_target_length_not_a_power_of_two(self, length):
        with pytest.raises(ConfigurationError, match="not a power of two"):
            FidelityFitness(np.ones(length, dtype=complex))

    def test_non_finite_depth_weight(self):
        with pytest.raises(ConfigurationError, match="depth_weight must be finite"):
            FidelityFitness(simulate(bell_circuit()), depth_weight=float("nan"))

    @pytest.mark.parametrize("weight", [1e308, -1e308])
    def test_depth_penalty_that_overflows_rejected(self, weight):
        # the penalty of a max_depth-deep circuit would be -inf or inf
        c = Circuit(2, ((ID,), (ID,)))
        with pytest.raises(ConfigurationError, match=r"^depth_weight \* max_depth must be finite"):
            FidelityFitness(simulate(c), depth_weight=weight, max_depth=4)
        fn = FidelityFitness(simulate(c), depth_weight=weight, max_depth=1)
        assert fn.evaluate(c) == 1.0 - weight

    def test_qubit_mismatch(self):
        with pytest.raises(ConfigurationError):
            FidelityFitness(np.array([1, 0], dtype=complex)).evaluate(bell_circuit())

    def test_invariant_under_identity_columns(self, rng):
        from qcevolve.circuit import pad_to

        c = random_circuit(3, 4, FULL_GATE_SET, rng)
        target = simulate(random_circuit(3, 4, FULL_GATE_SET, rng))
        fitness = FidelityFitness(target)
        assert fitness.evaluate(c) == pytest.approx(
            fitness.evaluate(pad_to(c, 3, 8)), abs=1e-12
        )


class TestEntanglementFitness:
    def test_bell_is_one(self):
        assert EntanglementFitness().evaluate(bell_circuit()) == pytest.approx(1.0, abs=1e-9)

    def test_product_state_is_zero(self):
        c = Circuit(2, ((Gate(GateKind.H), Gate(GateKind.X)), (ID, Gate(GateKind.H))))
        assert EntanglementFitness().evaluate(c) == pytest.approx(0.0, abs=1e-9)

    def test_ghz3_is_one(self):
        from oracles import partial_trace_oracle

        c = ghz3_circuit()
        state = simulate(c)
        for k in range(3):
            rho = partial_trace_oracle(state, [k])
            assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-12)
        assert EntanglementFitness().evaluate(c) == pytest.approx(1.0, abs=1e-9)

    def test_single_qubit_rejected(self):
        with pytest.raises(ConfigurationError):
            EntanglementFitness().evaluate(Circuit(1, ((ID,),)))

    def test_in_unit_interval(self, rng):
        for _ in range(20):
            f = EntanglementFitness().evaluate(random_circuit(3, 5, FULL_GATE_SET, rng))
            assert -1e-9 <= f <= 1.0 + 1e-9

    @staticmethod
    def differing_scores(entropy):
        """Seeded circuits of 2-5 qubits and depth 1-16 whose score differs
        in any bit from the former per-qubit loop, `entropy` reducing each
        one-qubit marginal there."""
        rng = np.random.default_rng(2024)
        differ = []
        for _ in range(300):
            n, depth = int(rng.integers(2, 6)), int(rng.integers(1, 17))
            c = random_circuit(n, depth, FULL_GATE_SET, rng)
            state = simulate(c)
            oracle = np.mean([entropy(partial_trace(state, {k})) for k in range(n)])
            got = EntanglementFitness().evaluate(c)
            if np.float64(got).tobytes() != np.float64(oracle).tobytes():
                differ.append(c)
        return differ

    @pytest.mark.per_kernel
    def test_stacked_score_has_the_bits_of_the_per_qubit_loop(self):
        def former_entropy(rho):
            lam = np.linalg.eigvalsh(rho)
            lam = lam[lam > 1e-12]
            return float(-np.sum(lam * np.log2(lam)))

        assert self.differing_scores(former_entropy) == []

    @pytest.mark.per_kernel
    def test_bit_comparison_sees_a_mutated_reduction(self):
        def unclamped_entropy(rho):
            lam = np.linalg.eigvalsh(rho)
            return float(-np.sum(lam * np.log2(lam)))

        with np.errstate(divide="ignore", invalid="ignore"):
            assert self.differing_scores(unclamped_entropy) != []

    @pytest.mark.per_kernel
    @given(
        st.sampled_from(["mixed", "one shape", "one", "empty"]),
        st.integers(0, 2**32 - 1),
        st.data(),
    )
    def test_list_scores_have_the_bits_of_evaluate(self, kind, seed, data):
        """`score_all` keeps each circuit and gives it the bits of
        `evaluate`, with one entropy call for the whole list: a mixed-shape
        list runs one state at a time, a one-shape list as one stack."""
        shapes = st.tuples(st.integers(2, 8), st.integers(1, 16))
        size = {"mixed": 12, "one shape": 12, "one": 1, "empty": 0}[kind]
        size = data.draw(st.integers(min(size, 2), size))
        shape = data.draw(shapes)
        rng = np.random.default_rng(seed)
        circuits = []
        for _ in range(size):
            if kind == "mixed":
                shape = data.draw(shapes)
            gate_set = data.draw(st.sampled_from([FULL_GATE_SET, RESTRICTED_GATE_SET]))
            circuits.append(random_circuit(*shape, gate_set, rng))
        if kind == "mixed":
            # duplicates, as the same object and as an equal one
            again = data.draw(st.lists(st.sampled_from(circuits), max_size=3))
            circuits += again + [Circuit(c.n_qubits, c.grid) for c in again]
        fn = EntanglementFitness()
        results = fn.score_all(circuits)
        assert len(results) == len(circuits)
        for (score, kept), c in zip(results, circuits):
            assert kept is c
            assert np.float64(score).tobytes() == np.float64(fn.evaluate(c)).tobytes()


def separable_dataset():
    # label is sign of the first feature: linearly separable, XOR-free
    xs = np.array(
        [[0.1, 0.3], [0.2, 0.8], [0.3, 0.1], [0.4, 0.6],
         [0.9, 0.2], [0.8, 0.7], [0.7, 0.4], [0.6, 0.9]]
    )
    ys = (xs[:, 0] > 0.5).astype(int)
    return Dataset(xs, ys)


def rx_rz_circuit(theta1, theta2):
    """Two qubits, two parameterized gates; only qubit 0 feeds <Z_0>."""
    return Circuit(
        2,
        (
            (Gate(GateKind.RX, theta=theta1), Gate(GateKind.RZ, theta=theta2)),
            (ID, ID),
        ),
    )


class TestMLFitness:
    def test_all_zero_labels_constant_predictor(self):
        ds = Dataset(np.zeros((4, 1)), np.zeros(4, dtype=int))
        c = Circuit(1, ((ID,),))
        # <Z0> of |0> is +1 -> predicts label 0 for every sample
        assert MLFitness(ds, train_steps=0).evaluate(c) == 1.0

    def test_zero_steps_reproducible(self):
        ds = separable_dataset()
        c = rx_rz_circuit(0.3, -0.2)
        a = MLFitness(ds, train_steps=0).evaluate(c)
        b = MLFitness(ds, train_steps=0).evaluate(c)
        assert a == b

    def test_grid_search_oracle_admits_high_accuracy(self):
        # brute-force over theta confirms >= 0.9 is reachable for this ansatz
        ds = separable_dataset()
        best = 0.0
        for t1 in np.linspace(-np.pi, np.pi, 41):
            c = rx_rz_circuit(float(t1), 0.0)
            best = max(best, MLFitness(ds, train_steps=0).evaluate(c))
        assert best >= 0.9

    def test_training_improves_separable_problem(self):
        ds = separable_dataset()
        c = rx_rz_circuit(0.4, 0.1)
        before = MLFitness(ds, train_steps=0).evaluate(c)
        after, trained = MLFitness(ds, train_steps=100, learning_rate=0.5).evaluate_trained(c)
        assert after >= before
        assert after >= 0.9
        # input circuit untouched, trained parameters returned separately
        assert c.grid[0][0].theta == 0.4
        assert trained.grid[0][0].theta != 0.4

    def test_angle_past_the_float_range_is_a_run_failure(self):
        # every sample encodes to |00> with label 1: the loss (cos t + 1)**2
        # has slope -2.6 at t = pi/3, so the first step overflows
        ds = Dataset(np.zeros((4, 2)), np.ones(4, dtype=int))
        c = rx_rz_circuit(np.pi / 3, 0.1)
        message = (
            "fitness 'ml': training step 1 left a rotation angle that is not "
            "finite (learning_rate = 1e+308)"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QcevolveError) as exc:
                MLFitness(ds, train_steps=3, learning_rate=1e308).evaluate_trained(c)
            assert str(exc.value) == message
            # a large angle that FD_STEP still moves is no error
            MLFitness(ds, train_steps=3, learning_rate=1e9).evaluate_trained(c)

    def test_angle_past_the_finite_difference_step_is_a_run_failure(self):
        # the first step takes theta to about 1e307, where theta + FD_STEP
        # and theta - FD_STEP round to theta and every gradient would be 0
        c = rx_rz_circuit(0.4, 0.1)
        message = (
            "fitness 'ml': training step 1 left a rotation angle too large for "
            "the finite-difference step FD_STEP = 0.001 (learning_rate = 1e+308)"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(QcevolveError) as exc:
                MLFitness(separable_dataset(), 3, learning_rate=1e308).evaluate_trained(c)
        assert str(exc.value) == message

    def test_feature_count_exceeds_qubits(self):
        ds = separable_dataset()
        with pytest.raises(ConfigurationError):
            MLFitness(ds).evaluate(Circuit(1, ((ID,),)))

    @pytest.mark.parametrize(
        "settings,match",
        [
            ({"train_steps": -2}, "train_steps must be >= 0"),
            ({"learning_rate": float("nan")}, "learning_rate must be finite"),
            ({"learning_rate": float("-inf")}, "learning_rate must be finite"),
        ],
    )
    def test_bad_settings(self, settings, match):
        with pytest.raises(ConfigurationError, match=match):
            MLFitness(separable_dataset(), **settings)

    def test_accuracy_in_unit_interval(self, rng):
        ds = separable_dataset()
        c = random_circuit(2, 3, FULL_GATE_SET, rng)
        f = MLFitness(ds, train_steps=0).evaluate(c)
        assert 0.0 <= f <= 1.0

    def test_batched_predictions_match_per_sample_loop(self, rng):
        ds = separable_dataset()
        for n in (2, 3, 4):
            for _ in range(10):
                c = random_circuit(n, 5, FULL_GATE_SET, rng)
                encoded = np.array([_encode_features(n, x) for x in ds.features])
                signs = 1.0 - 2.0 * (np.arange(2**n) & 1)
                expected = [
                    np.dot(np.abs(run_gates(_encode_features(n, x), c)) ** 2, signs)
                    for x in ds.features
                ]
                got = _predictions(run_gates(encoded, c))
                assert got.tobytes() == np.array(expected).tobytes()

    def test_one_fitness_over_several_widths_equals_fresh_ones(self, rng):
        ds = separable_dataset()
        shared = MLFitness(ds, train_steps=2)
        for n in (2, 3, 2, 3):
            c = random_circuit(n, 3, FULL_GATE_SET, rng)
            assert shared.evaluate_trained(c) == MLFitness(ds, train_steps=2).evaluate_trained(c)
        for n in (2, 3):
            encoded = shared._encoding(n)
            assert encoded is shared._encoding(n)
            assert encoded.shape == (len(ds.labels), 2**n)
            assert not encoded.flags.writeable

    def test_score_keeps_the_trained_circuit_only_when_lamarckian(self):
        ds = separable_dataset()
        c = rx_rz_circuit(0.4, 0.1)
        trained = MLFitness(ds, train_steps=3, lamarckian=False).evaluate_trained(c)
        assert MLFitness(ds, train_steps=3).score(c) == trained
        plain = MLFitness(ds, train_steps=3, lamarckian=False).score(c)
        assert plain[0] == trained[0]
        assert plain[1] is c


@pytest.mark.parametrize(
    "fn",
    [
        FidelityFitness(np.array([1, 0], dtype=complex)),
        EntanglementFitness(),
        MLFitness(separable_dataset()),
    ],
    ids=["fidelity", "entanglement", "ml"],
)
def test_empty_list_scores_empty(fn):
    assert fn.score_all([]) == []


class TestStateFitnessSubclassRule:
    """`score_all` of a built-in fidelity or entanglement fitness simulates
    the list in one `simulate_all` call unless a class below the built-in
    defines `evaluate` or `score`; a wrapper set on the built-in class
    itself keeps the list path."""

    BUILTINS = {
        "fidelity": (FidelityFitness, lambda cls: cls(simulate(bell_circuit()))),
        "entanglement": (EntanglementFitness, lambda cls: cls()),
    }

    @staticmethod
    def subclass(builtin, kind):
        if kind == "plain":
            return builtin

        class NoOverride(builtin):
            pass

        class Evaluated(builtin):
            def evaluate(self, circuit):
                return super().evaluate(circuit)

        class Scored(builtin):
            def score(self, circuit):
                return super().score(circuit)

        class BelowScored(Scored):
            pass

        kinds = {
            "no override": NoOverride,
            "evaluate": Evaluated,
            "score": Scored,
            "below score": BelowScored,
        }
        return kinds[kind]

    @pytest.mark.parametrize(
        "kind, stacked",
        [
            ("plain", True),
            ("no override", True),
            ("evaluate", False),
            ("score", False),
            ("below score", False),
        ],
    )
    @pytest.mark.parametrize("builtin", sorted(BUILTINS))
    def test_list_path_unless_overridden_below_the_builtin(
        self, monkeypatch, builtin, kind, stacked, rng
    ):
        cls, make = self.BUILTINS[builtin]
        circuits = [random_circuit(2, 4, FULL_GATE_SET, rng) for _ in range(4)]
        expected = make(cls).score_all(circuits)
        lists = []
        real = fitness.simulate_all

        def counted(listed):
            lists.append(len(listed))
            return real(listed)

        wrapped = []
        original = cls.evaluate

        def wrapper(self, circuit):
            wrapped.append(circuit)
            return original(self, circuit)

        monkeypatch.setattr(fitness, "simulate_all", counted)
        monkeypatch.setattr(cls, "evaluate", wrapper)
        assert make(self.subclass(cls, kind)).score_all(circuits) == expected
        if stacked:
            assert lists == [4] and wrapped == []
        else:
            assert lists == [1, 1, 1, 1] and wrapped == circuits


class TestDataset:
    def test_load_csv(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("f1,f2,label\n0.1,0.2,0\n0.9,0.8,1\n")
        ds = load_dataset(str(p))
        assert ds.features.shape == (2, 2)
        assert list(ds.labels) == [0, 1]

    @pytest.mark.parametrize("features", [np.zeros(3), np.zeros((0, 2)), np.zeros((3, 1, 1))])
    def test_bad_feature_shape(self, features):
        message = "^dataset must be a nonempty 2D feature array$"
        with pytest.raises(ConfigurationError, match=message):
            Dataset(features, np.zeros(len(features), dtype=int))

    def test_length_mismatch(self):
        with pytest.raises(
            ConfigurationError, match="^dataset features and labels disagree in length$"
        ):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))

    @pytest.mark.parametrize("shape", [(4, 1), (1, 4), ()])
    def test_labels_must_be_one_value_per_sample(self, shape):
        """A (4, 1) column of labels would broadcast against the (4,)
        predictions, and the accuracy would compare every label with every
        prediction."""
        with pytest.raises(ConfigurationError) as exc:
            Dataset(np.zeros((4, 2)), np.zeros(shape, dtype=int))
        assert str(exc.value) == (
            f"dataset labels must be one value per sample, shape (4,), got shape {shape}"
        )

    def test_bad_labels(self):
        with pytest.raises(ConfigurationError):
            Dataset(np.zeros((2, 1)), np.array([0, 2]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features(self, bad):
        with pytest.raises(ConfigurationError, match="dataset features must be finite"):
            Dataset(np.array([[0.1, bad], [0.9, 0.8]]), np.array([0, 1]))


class TestRegistry:
    def test_builtins_registered(self):
        assert get_fitness_constructor("fidelity") is FidelityFitness
        assert get_fitness_constructor("entanglement") is EntanglementFitness
        assert get_fitness_constructor("ml") is MLFitness

    def test_unknown_name_lists_known(self):
        with pytest.raises(ConfigurationError, match="fidelity"):
            get_fitness_constructor("nope")

    def test_duplicate_rejected(self):
        register_fitness("custom_for_test", lambda: EntanglementFitness())
        with pytest.raises(ConfigurationError):
            register_fitness("custom_for_test", lambda: EntanglementFitness())

    def test_ml_constructed_with_params(self):
        ctor = get_fitness_constructor("ml")
        fn = ctor(dataset=separable_dataset(), train_steps=0)
        assert isinstance(fn, MLFitness)
