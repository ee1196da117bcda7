"""Acceptance suite: one test per criterion, each printing a pass line.

The two long experiments (full-scale fidelity and restricted-gate runs)
are skipped unless QCEVOLVE_LONG_TESTS=1; everything else is desk scale.
Run with `pytest tests/test_acceptance.py -s` to see the status lines.
"""
import os
import time
from statistics import median

import numpy as np
import pytest

from conftest import bell_circuit, ghz3_circuit
from oracles import simulate_oracle

from qcevolve.circuit import random_circuit, validate
from qcevolve.cli import main
from qcevolve.engine import RunConfig, evolve, random_baseline
from qcevolve.fitness import (
    Dataset,
    EntanglementFitness,
    FidelityFitness,
    MLFitness,
)
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind
from qcevolve.operators import (
    Individual,
    MutationContext,
    crossover_blockwise,
    crossover_multi_point,
    crossover_single_point,
    mutate,
    select_roulette,
    select_tournament,
)
from qcevolve.simulator import fidelity, partial_trace, simulate, von_neumann_entropy

LONG = os.environ.get("QCEVOLVE_LONG_TESTS") == "1"

# chi-squared critical value for p = 0.001, one degree of freedom
CHI2_CRIT_1DF = 10.828


@pytest.fixture
def report(capsys):
    """Emit one visible pass line per criterion, bypassing output capture."""

    def emit(criterion, text):
        with capsys.disabled():
            print(f"\nACCEPTANCE {criterion}: PASS ({text})")

    return emit


def test_criterion_1_simulator_oracle_equivalence(report):
    rng = np.random.default_rng(20260826)
    start = time.monotonic()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 11))
        circuit = random_circuit(n, depth, FULL_GATE_SET, rng)
        err = np.abs(simulate(circuit) - simulate_oracle(circuit)).max()
        worst = max(worst, err)
        assert err < 1e-9
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"200 circuits, max err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_quantum_information_unit_values(report):
    sq2 = 1.0 / np.sqrt(2.0)
    bell_target = np.array([sq2, 0, 0, sq2], dtype=complex)
    f = fidelity(simulate(bell_circuit()), bell_target)
    assert abs(f - 1.0) < 1e-12
    entropy = von_neumann_entropy(partial_trace(simulate(bell_circuit()), {0}))
    assert abs(entropy - 1.0) < 1e-9
    ghz = EntanglementFitness().evaluate(ghz3_circuit())
    assert abs(ghz - 1.0) < 1e-9
    report(2, f"bell fidelity {f:.15f}, marginal entropy {entropy:.12f}, ghz {ghz:.12f}")


def test_criterion_3_operator_validity_and_conservation(report):
    rng = np.random.default_rng(7)
    ctx = MutationContext(FULL_GATE_SET, min_qubits=1, max_qubits=5, max_depth=12)
    checked = 0
    for _ in range(10_000):
        n = int(rng.integers(1, 5))
        a = random_circuit(n, int(rng.integers(2, 8)), FULL_GATE_SET, rng)
        b = random_circuit(n, int(rng.integers(2, 8)), FULL_GATE_SET, rng)
        op = rng.integers(4)
        if op == 0:
            children = crossover_single_point(a, b, rng)
        elif op == 1:
            m = max(a.depth, b.depth)
            if m >= 3:
                children = crossover_multi_point(a, b, min(3, m - 1), rng)
            else:
                children = crossover_single_point(a, b, rng)
        elif op == 2:
            children = crossover_blockwise(a, b, rng)
        else:
            children = (mutate(a, rng, ctx),)
        for child in children:
            validate(child)
            checked += 1
    # conservation of non-identity cells under the 1D crossovers
    from collections import Counter

    def non_id(c):
        return Counter(
            (g.kind, g.role, g.theta)
            for row in c.grid
            for g in row
            if g.kind is not GateKind.ID
        )

    for _ in range(500):
        a = random_circuit(3, 6, FULL_GATE_SET, rng)
        b = random_circuit(3, 4, FULL_GATE_SET, rng)
        for children in (
            crossover_single_point(a, b, rng),
            crossover_multi_point(a, b, 3, rng),
        ):
            assert non_id(children[0]) + non_id(children[1]) == non_id(a) + non_id(b)
    report(3, f"{checked} operator outputs valid, 1000 crossovers conservative")


def test_criterion_4_selection_statistics(report):
    rng = np.random.default_rng(11)
    circuit = random_circuit(2, 2, FULL_GATE_SET, rng)
    pop = [Individual(circuit, 1.0), Individual(circuit, 3.0)]
    n = 100_000

    picked = select_roulette(pop, n, rng)
    hits = sum(ind.fitness == 3.0 for ind in picked)
    roulette_frac = hits / n
    assert abs(roulette_frac - 0.75) < 0.01
    chi2 = (hits - 0.75 * n) ** 2 / (0.75 * n) + ((n - hits) - 0.25 * n) ** 2 / (
        0.25 * n
    )
    assert chi2 < CHI2_CRIT_1DF  # p > 0.001

    picked = select_tournament(pop, n, 2, rng)
    hits = sum(ind.fitness == 3.0 for ind in picked)
    tournament_frac = hits / n
    assert abs(tournament_frac - 0.75) < 0.01
    chi2 = (hits - 0.75 * n) ** 2 / (0.75 * n) + ((n - hits) - 0.25 * n) ** 2 / (
        0.25 * n
    )
    assert chi2 < CHI2_CRIT_1DF
    report(4, f"roulette {roulette_frac:.4f}, tournament {tournament_frac:.4f}")


def test_criterion_5_scaled_fidelity_experiment(report):
    start = time.monotonic()
    bests, baselines = [], []
    for target_index in range(5):
        target_rng = np.random.default_rng(100 + target_index)
        target = simulate(random_circuit(4, 20, FULL_GATE_SET, target_rng))
        fn = FidelityFitness(target)
        cfg = RunConfig(
            population_size=100, generations=300, n_qubits=4, depth=20,
            seed=target_index,
        )
        best, _ = evolve(cfg, fn, np.random.default_rng(1000 + target_index))
        base = random_baseline(cfg, fn, np.random.default_rng(2000 + target_index))
        bests.append(best.fitness)
        baselines.append(max(base))
    elapsed = time.monotonic() - start
    assert median(bests) >= 0.55
    for b, rb in zip(bests, baselines):
        assert b >= rb + 0.1
    assert elapsed < 300.0
    report(
        5,
        f"median best {median(bests):.3f}, margins "
        f"{[round(b - r, 3) for b, r in zip(bests, baselines)]}, {elapsed:.0f}s",
    )


@pytest.mark.skipif(not LONG, reason="long test; set QCEVOLVE_LONG_TESTS=1")
def test_criterion_6_restricted_gate_set_experiment(report):
    bests, baselines = [], []
    for seed in range(10):
        target_rng = np.random.default_rng(10 + seed)
        target = simulate(random_circuit(4, 20, FULL_GATE_SET, target_rng))
        fn = FidelityFitness(target)
        cfg = RunConfig(
            population_size=200, generations=1000, n_qubits=4, depth=20,
            gate_set=RESTRICTED_GATE_SET, seed=seed,
        )
        best, _ = evolve(cfg, fn, np.random.default_rng(3000 + seed))
        base = random_baseline(cfg, fn, np.random.default_rng(4000 + seed))
        bests.append(best.fitness)
        baselines.append(max(base))
    assert max(bests) >= 0.90
    assert min(bests) >= 0.55
    assert max(baselines) <= 0.85
    report(6, f"max {max(bests):.3f}, min {min(bests):.3f}, baseline max {max(baselines):.3f}")


def test_criterion_7_entanglement_evolution(report):
    start = time.monotonic()
    cfg = RunConfig(population_size=50, generations=50, n_qubits=2, depth=3, seed=5)
    best, _ = evolve(cfg, EntanglementFitness(), np.random.default_rng(5))
    elapsed = time.monotonic() - start
    assert best.fitness >= 0.99
    assert elapsed < 10.0
    report(7, f"best entanglement {best.fitness:.4f}, {elapsed:.1f}s")


def test_criterion_8_end_to_end_determinism(tmp_path, report):
    config = tmp_path / "run.properties"
    config.write_text(
        "fitness = fidelity\nn_qubits = 3\ndepth = 4\npopulation_size = 8\n"
        "generations = 4\nseed = 21\ntarget_seeds = 1,2\nn_repeats = 1\n"
    )
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", str(config), "--out", str(out1), "--quiet"]) == 0
    assert main(["run", str(config), "--out", str(out2), "--quiet"]) == 0
    for rel in ("target0_rep0/trace.csv", "target1_rep0/trace.csv", "summary.csv"):
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()
    report(8, "trace.csv and summary.csv byte-identical across reruns")


def test_criterion_9_ml_fitness_sanity(report):
    from qcevolve.circuit import Circuit, Gate

    xs = np.array(
        [[0.1, 0.3], [0.2, 0.8], [0.3, 0.1], [0.4, 0.6],
         [0.9, 0.2], [0.8, 0.7], [0.7, 0.4], [0.6, 0.9]]
    )
    dataset = Dataset(xs, (xs[:, 0] > 0.5).astype(int))
    circuit = Circuit(
        2,
        (
            (Gate(GateKind.RX, theta=0.4), Gate(GateKind.RZ, theta=0.1)),
            (Gate(GateKind.ID), Gate(GateKind.ID)),
        ),
    )
    # grid-search oracle: this ansatz admits >= 0.9 training accuracy
    untrained_fitness = MLFitness(dataset, train_steps=0)
    oracle_best = max(
        untrained_fitness.evaluate(
            Circuit(
                2,
                (
                    (Gate(GateKind.RX, theta=float(t)), Gate(GateKind.RZ, theta=0.1)),
                    (Gate(GateKind.ID), Gate(GateKind.ID)),
                ),
            )
        )
        for t in np.linspace(-np.pi, np.pi, 61)
    )
    assert oracle_best >= 0.9
    untrained = untrained_fitness.evaluate(circuit)
    trained, _ = MLFitness(
        dataset, train_steps=100, learning_rate=0.5
    ).evaluate_trained(circuit)
    assert trained >= untrained
    assert trained >= 0.9
    report(9, f"untrained {untrained:.3f} -> trained {trained:.3f}, oracle {oracle_best:.3f}")
