"""The four benchmark workloads and the inputs each one generates from its seed.

Every input the program sees (property files, target statevector, dataset
CSV) is written here from `--seed`; the same seed gives byte-identical files.
A workload is a list of pieces: one property file each, for one target x
one repeat, i.e. one GA run and one baseline run. The pieces share every
setting except the GA `seed` and, for `fidelity-narrow`, the target seed.
Why each workload exists is recorded in README.md and BENCHMARK.json.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NAMES = ("fidelity-narrow", "fidelity-wide", "ml-classifier", "entanglement-variable")


@dataclass
class Prepared:
    """One workload's generated inputs and what the checker needs to know."""

    settings: dict  # keys every piece's property file shares
    pieces: list[dict]  # per-piece keys: `seed`, and `target_seeds` for fidelity-narrow
    config_paths: list[Path]
    fitness: str
    target: np.ndarray | None = None  # fidelity-wide: the target written to disk
    dataset: tuple[np.ndarray, np.ndarray] | None = None  # ml: (features, labels)

    def piece_settings(self, i: int) -> dict:
        return {**self.settings, **self.pieces[i]}

    @property
    def evaluations(self) -> int:
        """Fitness evaluations the GA and the baseline request over all pieces."""
        s = self.settings
        children = s["population_size"] - 1  # default elitism is 1
        per_search = s["population_size"] + s["generations"] * children
        return 2 * per_search * len(self.pieces)


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.default_rng([seed, NAMES.index(name)])


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31, size=count)]


def write_config(path: Path, settings: dict) -> None:
    lines = [f"{key} = {value}" for key, value in settings.items()]
    path.write_text("\n".join(lines) + "\n")


def _fidelity_narrow(seed: int, inputs: Path) -> Prepared:
    rng = _rng(seed, "fidelity-narrow")
    settings = {
        "fitness": "fidelity",
        "n_qubits": 4,
        "depth": 20,
        "population_size": 8,
        "generations": 8,
        "n_repeats": 1,
    }
    pieces = [
        {"target_seeds": t, "seed": s} for t, s in zip(_seeds(rng, 32), _seeds(rng, 32))
    ]
    return Prepared(settings, pieces, [], "fidelity")


def ghz_target(n_qubits: int, phase: float) -> np.ndarray:
    """(|0...0> + e^{i phase} |1...1>) / sqrt(2)."""
    state = np.zeros(1 << n_qubits, dtype=complex)
    state[0] = 2**-0.5
    state[-1] = 2**-0.5 * cmath.exp(1j * phase)
    return state


def _fidelity_wide(seed: int, inputs: Path) -> Prepared:
    rng = _rng(seed, "fidelity-wide")
    n = 13
    target = ghz_target(n, float(rng.uniform(0, 2 * np.pi)))
    target_path = inputs / "ghz_target.txt"
    target_path.write_text(
        "\n".join(f"{a.real:.17g} {a.imag:.17g}" for a in target) + "\n"
    )
    settings = {
        "fitness": "fidelity",
        "n_qubits": n,
        "depth": 2,
        "gate_set": "id,z,rz,rx,cz,cx",
        "mutation_weights": "1,1,0,0,1,1",
        "mutation_prob": 1.0,
        "population_size": 10,
        "generations": 4,
        "target_file": target_path,
        "n_repeats": 1,
    }
    pieces = [{"seed": s} for s in _seeds(rng, 12)]
    return Prepared(settings, pieces, [], "fidelity", target=target)


def _ml_classifier(seed: int, inputs: Path) -> Prepared:
    rng = _rng(seed, "ml-classifier")
    # with rotations only, <Z_0> depends on x0 alone, so the label is
    # x0 > 0.5; four samples per class, each at least 0.02 from the boundary,
    # so every seed's dataset is about as hard to learn
    labels = rng.permutation(np.repeat([0, 1], 4))
    features = rng.uniform(0.0, 1.0, size=(len(labels), 2))
    features[:, 0] = 0.52 * labels + 0.48 * rng.uniform(0.0, 1.0, size=len(labels))
    data_path = inputs / "dataset.csv"
    rows = ["x0,x1,label"] + [
        f"{x[0]:.17g},{x[1]:.17g},{y}" for x, y in zip(features, labels)
    ]
    data_path.write_text("\n".join(rows) + "\n")
    settings = {
        "fitness": "ml",
        "dataset": data_path,
        "n_qubits": 2,
        "depth": 3,
        # every circuit carries n_qubits * depth angles, so the training
        # cost of an evaluation does not depend on the seed
        "gate_set": "rx,ry,rz",
        "mutation_weights": "1,1,0,0,1,1",
        "population_size": 3,
        "generations": 2,
        "train_steps": 2,
        "learning_rate": 0.2,
        "lamarckian": "true",
        "n_repeats": 1,
    }
    pieces = [{"seed": s} for s in _seeds(rng, 8)]
    return Prepared(settings, pieces, [], "ml", dataset=(features, labels))


def _entanglement_variable(seed: int, inputs: Path) -> Prepared:
    rng = _rng(seed, "entanglement-variable")
    settings = {
        "fitness": "entanglement",
        "n_qubits": 3,
        "min_qubits": 2,
        "max_qubits": 5,
        "depth": 8,
        "max_depth": 16,
        "crossover_method": "blockwise",
        "parent_selection": "roulette",
        "survivor_selection": "tournament",
        "mutation_prob": 0.5,
        "population_size": 10,
        "generations": 10,
        "n_repeats": 1,
    }
    pieces = [{"seed": s} for s in _seeds(rng, 24)]
    return Prepared(settings, pieces, [], "entanglement")


_MAKERS = {
    "fidelity-narrow": _fidelity_narrow,
    "fidelity-wide": _fidelity_wide,
    "ml-classifier": _ml_classifier,
    "entanglement-variable": _entanglement_variable,
}


def prepare(name: str, seed: int, inputs: Path) -> Prepared:
    """Write the workload's inputs under `inputs` and return their description."""
    inputs.mkdir(parents=True, exist_ok=True)
    prepared = _MAKERS[name](seed, inputs)
    for i in range(len(prepared.pieces)):
        path = inputs / f"piece{i:02d}.conf"
        write_config(path, prepared.piece_settings(i))
        prepared.config_paths.append(path)
    return prepared
