"""Self-tests of the benchmark: the reference checker on hand-computed
states, its agreement with qcevolve, its rejection of corrupted outputs,
and the tracer's wrappers.

    python3 -m pytest -q gabench
"""
from __future__ import annotations

import json
import math
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostclock  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

S = 1 / math.sqrt(2)


def cells(n: int, columns: list[dict]) -> list[list[dict]]:
    """Grid from a list of {row: cell} columns; empty rows hold identity."""
    grid = [[{"kind": "id", "role": "single"} for _ in columns] for _ in range(n)]
    for c, column in enumerate(columns):
        for r, cell in column.items():
            grid[r][c] = cell
    return grid


def one(kind, theta=None):
    cell = {"kind": kind, "role": "single"}
    if theta is not None:
        cell["theta"] = theta
    return cell


def pair(kind, control, target):
    return {
        control: {"kind": kind, "role": "control", "partner": target},
        target: {"kind": kind, "role": "target", "partner": control},
    }


def ghz(n):
    cols = [{0: one("h")}] + [pair("cx", q, q + 1) for q in range(n - 1)]
    return cells(n, cols)


def test_plus_state():
    assert np.allclose(reference.simulate(1, cells(1, [{0: one("h")}])), [S, S])


def test_bell_state():
    amps = reference.simulate(2, ghz(2))
    assert np.allclose(amps, [S, 0, 0, S])


def test_ghz_state_and_entropy():
    amps = reference.simulate(3, ghz(3))
    expect = np.zeros(8)
    expect[0] = expect[7] = S
    assert np.allclose(amps, expect)
    assert reference.entanglement(amps, 3) == pytest.approx(1.0, abs=1e-12)


def test_known_marginal_entropy():
    a = 0.3
    amps = np.array([math.cos(a), 0, 0, math.sin(a)], dtype=complex)
    p = np.array([math.cos(a) ** 2, math.sin(a) ** 2])
    assert reference.marginal_entropy(amps, 0) == pytest.approx(-np.sum(p * np.log2(p)), abs=1e-12)
    product = np.kron([S, S], [1, 0]).astype(complex)
    assert reference.marginal_entropy(product, 1) == pytest.approx(0.0, abs=1e-12)


def test_gate_conventions():
    # RX(pi)|0> = -i|1>; SX.SX = X; RZ(t) = diag(e^{-it/2}, e^{it/2}); CX control first
    assert np.allclose(reference.simulate(1, cells(1, [{0: one("rx", math.pi)}])), [0, -1j])
    assert np.allclose(reference.simulate(1, cells(1, [{0: one("sx")}, {0: one("sx")}])), [0, 1])
    rz = reference.simulate(1, cells(1, [{0: one("h")}, {0: one("rz", 0.8)}]))
    assert np.allclose(rz, [S * np.exp(-0.4j), S * np.exp(0.4j)])
    flipped = reference.simulate(2, cells(2, [{0: one("x")}, pair("cx", 0, 1)]))
    assert np.allclose(flipped, [0, 0, 0, 1])


def test_agrees_with_qcevolve_on_random_circuits():
    from qcevolve import FULL_GATE_SET, random_circuit, serialize, simulate

    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 5):
        circuit = random_circuit(n, 12, FULL_GATE_SET, rng)
        ours = reference.simulate(*reference.parse_circuit(serialize(circuit)))
        assert np.allclose(ours, simulate(circuit), atol=1e-12)


def test_parse_rejects_broken_pair():
    grid = cells(2, [pair("cx", 0, 1)])
    grid[1][0]["partner"] = 1
    doc = json.dumps({"format_version": 1, "n_qubits": 2, "depth": 1, "cells": grid})
    with pytest.raises(ValueError):
        reference.parse_circuit(doc)


def tiny_experiment(tmp_path: Path, name: str, settings: dict):
    """Run a shrunken copy of a workload's first piece through `qcevolve run`."""
    prepared = workloads.prepare(name, 3, tmp_path / "inputs")
    prepared.settings.update(settings)
    config = prepared.config_paths[0]
    workloads.write_config(config, prepared.piece_settings(0))
    from qcevolve import cli

    spec = cli.parse_config(config)
    modules = {m: sys.modules[f"qcevolve.{m}"] for m in run.MODULES}
    target = run.expected_target(prepared, spec, modules)
    out = tmp_path / "out"
    assert cli.main(["run", str(config), "--out", str(out), "--quiet"]) == 0
    return prepared, target, out


SMALL = {
    "fidelity-narrow": {"population_size": 4, "generations": 2},
    "fidelity-wide": {"population_size": 3, "generations": 1},
    "ml-classifier": {"population_size": 3, "generations": 1},
    "entanglement-variable": {"population_size": 4, "generations": 3},
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_checker_accepts_real_outputs(tmp_path, name):
    prepared, target, out = tiny_experiment(tmp_path, name, SMALL[name])
    rows, problems = run.check_piece(out, prepared, target)
    assert problems == []
    assert len(rows) == 1


def test_inputs_depend_only_on_the_seed(tmp_path):
    for name in workloads.NAMES:
        a = workloads.prepare(name, 5, tmp_path / "a")
        b = workloads.prepare(name, 5, tmp_path / "b")
        c = workloads.prepare(name, 6, tmp_path / "c")
        assert a.pieces == b.pieces != c.pieces
        assert len({str(p["seed"]) for p in a.pieces}) == len(a.pieces)


def test_checker_rejects_changed_best_fitness(tmp_path):
    prepared, target, out = tiny_experiment(tmp_path, "entanglement-variable", SMALL["entanglement-variable"])
    summary = out / "summary.csv"
    lines = summary.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = repr(float(fields[3]) - 1e-6)
    lines[1] = ",".join(fields)
    summary.write_text("\n".join(lines) + "\n")
    _, problems = run.check_piece(out, prepared, target)
    assert any("summary best" in p for p in problems)


def test_checker_rejects_tampered_circuit(tmp_path):
    prepared, target, out = tiny_experiment(tmp_path, "fidelity-wide", SMALL["fidelity-wide"])
    path = out / "target0_rep0" / "best_circuit.json"
    doc = json.loads(path.read_text())
    row = next(row for row in doc["cells"] if row[0]["kind"] in ("id", "z", "rz"))
    row[0] = {"kind": "rx", "role": "single", "theta": 1.0}
    path.write_text(json.dumps(doc))
    _, problems = run.check_piece(out, prepared, target)
    assert any("reference" in p for p in problems)


def test_tracer_keeps_fitness_types_and_restores(tmp_path):
    from qcevolve import engine

    modules = {m: sys.modules[f"qcevolve.{m}"] for m in run.MODULES}
    original_mutate = engine.mutate
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        tiny_experiment(tmp_path, "ml-classifier", SMALL["ml-classifier"])
    finally:
        tracer.restore()
    assert engine.mutate is original_mutate
    metrics = tracer.metrics(rounds=1)
    # the engine still takes the Lamarckian path, so MLFitness kept its type
    assert metrics["fitness.evaluate_trained.calls"][0] == 2 * (3 + 1 * 2)
    assert metrics["fitness.evaluate.calls"][0] == 0
    assert metrics["fitness.ml.simulations_per_eval"][0] > 0
    assert metrics["engine.evolve.calls"][0] == 1
    assert metrics["cli.artifact_bytes"][0] > 0
    assert set(metrics) >= {f"{f}.calls" for f in tracing.FUNCTIONS}


def test_host_clock_scales_by_probe_time():
    clock = hostclock.HostClock()
    # probes at 0.0, 0.1, ..., 0.9 s, each taking twice the reference time
    clock.at.extend(i / 10 for i in range(10))
    clock.took.extend([2 * hostclock.PROBE_REF_S] * 10)
    clock.spent.extend([3 * hostclock.PROBE_REF_S] * 10)
    inside = 10 * 3 * hostclock.PROBE_REF_S
    assert clock.corrected(0.0, 1.0) == pytest.approx((1.0 - inside) / 2)
    # a short interval borrows the nearest samples
    assert clock.corrected(0.42, 0.43) == pytest.approx(0.01 / 2)


def test_host_clock_samples_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.2:
            sum(range(1000))
        t1 = time.perf_counter()
    assert len(clock.at) >= hostclock.MIN_SAMPLES
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    assert 0 < clock.corrected(t0, t1) < 10 * (t1 - t0)


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "fidelity-narrow",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
