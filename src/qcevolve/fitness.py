"""Objective functions scoring circuits, plus the fitness registry.

User-defined objectives register a constructor under a unique name and
become selectable from the property file like the built-ins.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import pi
from typing import Callable

import numpy as np

from .circuit import Circuit, Gate, theta_cells
from .errors import ConfigurationError
from .simulator import (
    apply_gate,
    fidelity,
    n_qubits_of,
    partial_trace,
    simulate,
    von_neumann_entropy,
    zero_state,
)
from .gates import GateKind


class FitnessFunction:
    """Base class: a Circuit -> float evaluator.

    It must be deterministic: `evolve` scores each distinct circuit once
    while it is in the population or among the current generation's
    children, and reuses that score for every equal circuit. `qcevolve run`
    may call it for the random baseline in a forked child: state the
    object keeps then records the baseline's calls only in the child.
    """

    name = "abstract"

    def evaluate(self, circuit: Circuit) -> float:
        raise NotImplementedError

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        """Raise ConfigurationError unless every width in [min_qubits,
        max_qubits] can be scored: mutate_qubit_count moves a circuit's
        width within these bounds. The base class accepts any width."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (n_samples, n_features)
    labels: np.ndarray  # (n_samples,), values in {0, 1}

    def __post_init__(self):
        if self.features.ndim != 2 or len(self.features) == 0:
            raise ConfigurationError("dataset must be a nonempty 2D feature array")
        if len(self.labels) != len(self.features):
            raise ConfigurationError("dataset features and labels disagree in length")
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise ConfigurationError("dataset labels must be 0 or 1")


def load_dataset(path: str) -> Dataset:
    """CSV: one sample per line, features then a 0/1 label; optional header."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    rows = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            if line_no == 1:
                continue  # header line
            raise ConfigurationError(
                f"{path}:{line_no}: not a numeric sample"
            ) from None
    if not rows:
        raise ConfigurationError(f"{path}: no samples")
    data = np.array(rows)
    return Dataset(data[:, :-1], data[:, -1].astype(int))


# ---------------------------------------------------------------------------
# built-in objectives


def fidelity_fitness(
    circuit: Circuit,
    target: np.ndarray,
    depth_weight: float = 0.0,
    max_depth: int = 100,
) -> float:
    """Fidelity to `target`, minus an optional linear depth penalty."""
    if 2**circuit.n_qubits != len(target):
        raise ConfigurationError(
            f"circuit has {circuit.n_qubits} qubits but target has "
            f"{n_qubits_of(target)}"
        )
    score = fidelity(simulate(circuit), target)
    if depth_weight:
        score -= depth_weight * circuit.depth / max_depth
    return score


def entanglement_fitness(circuit: Circuit) -> float:
    """Mean single-qubit marginal entropy; 1.0 for Bell/GHZ-like states."""
    if circuit.n_qubits < 2:
        raise ConfigurationError("entanglement fitness needs at least 2 qubits")
    state = simulate(circuit)
    entropies = [
        von_neumann_entropy(partial_trace(state, {k}))
        for k in range(circuit.n_qubits)
    ]
    return float(np.mean(entropies))


class FidelityFitness(FitnessFunction):
    name = "fidelity"

    def __init__(self, target: np.ndarray, depth_weight: float = 0.0, max_depth: int = 100):
        self.target = target
        self.depth_weight = depth_weight
        self.max_depth = max_depth

    def evaluate(self, circuit: Circuit) -> float:
        return fidelity_fitness(circuit, self.target, self.depth_weight, self.max_depth)

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        width = n_qubits_of(self.target)
        if not min_qubits == n_qubits == max_qubits == width:
            raise ConfigurationError(
                "fidelity fitness needs min_qubits == n_qubits == max_qubits "
                f"== {width} (the target width), got {min_qubits}, {n_qubits}, "
                f"{max_qubits}"
            )


class EntanglementFitness(FitnessFunction):
    name = "entanglement"

    def evaluate(self, circuit: Circuit) -> float:
        return entanglement_fitness(circuit)

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        if min_qubits < 2:
            raise ConfigurationError(
                f"entanglement fitness needs min_qubits >= 2, got {min_qubits}"
            )


# ---------------------------------------------------------------------------
# machine-learning fitness


def _with_thetas(
    circuit: Circuit, cells: list[tuple[int, int]], thetas: np.ndarray
) -> Circuit:
    grid = [list(row) for row in circuit.grid]
    for (r, c), t in zip(cells, thetas):
        g = grid[r][c]
        grid[r][c] = Gate(g.kind, g.role, float(t), g.partner)
    return Circuit(circuit.n_qubits, tuple(tuple(row) for row in grid))


def _encode_features(n_qubits: int, features: np.ndarray) -> np.ndarray:
    """Angle encoding: RX(pi * x_j) on qubit j from the zero state."""
    state = zero_state(n_qubits)
    for j, x in enumerate(features):
        state = apply_gate(state, GateKind.RX, pi * float(x), (j,))
    return state


def _run_from(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    from .simulator import run_gates

    return run_gates(state, circuit)


def _predictions(circuit: Circuit, encoded: np.ndarray) -> np.ndarray:
    """<Z_0> of the final state per encoded sample; label 0 iff it is >= 0."""
    probs = np.abs(_run_from(encoded, circuit)) ** 2
    signs = 1.0 - 2.0 * (np.arange(probs.shape[1]) & 1)
    # one dot per row: a single matrix product may sum in another order
    return np.array([np.dot(row, signs) for row in probs])


def _accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predicted = (predictions < 0).astype(int)
    return float(np.mean(predicted == labels))


def _mse_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    signed = 1.0 - 2.0 * labels  # label 0 -> +1, label 1 -> -1
    return float(np.mean((predictions - signed) ** 2))


def ml_fitness(
    circuit: Circuit,
    dataset: Dataset,
    train_steps: int = 100,
    learning_rate: float = 0.2,
) -> float:
    """Training accuracy after finite-difference gradient descent."""
    score, _ = ml_fitness_trained(circuit, dataset, train_steps, learning_rate)
    return score


def ml_fitness_trained(
    circuit: Circuit,
    dataset: Dataset,
    train_steps: int = 100,
    learning_rate: float = 0.2,
    fd_step: float = 1e-3,
) -> tuple[float, Circuit]:
    """Train the rotation angles; return (accuracy, trained circuit).

    Central finite differences and plain gradient descent on the
    mean-squared error of the <Z_0> predictor against +-1 labels.
    The input circuit is never modified.
    """
    if dataset.features.shape[1] > circuit.n_qubits:
        raise ConfigurationError(
            f"{dataset.features.shape[1]} features exceed {circuit.n_qubits} qubits"
        )
    # (n_samples, 2**n) stack; the encoding does not depend on the angles
    encoded = np.array(
        [_encode_features(circuit.n_qubits, x) for x in dataset.features]
    )
    cells = theta_cells(circuit)
    if not cells or train_steps == 0:
        return _accuracy(_predictions(circuit, encoded), dataset.labels), circuit
    thetas = np.array([circuit.grid[r][c].theta for r, c in cells])

    def loss(vec: np.ndarray) -> float:
        trial = _with_thetas(circuit, cells, vec)
        return _mse_loss(_predictions(trial, encoded), dataset.labels)

    for _ in range(train_steps):
        grad = np.empty_like(thetas)
        for i in range(len(thetas)):
            up = thetas.copy()
            up[i] += fd_step
            down = thetas.copy()
            down[i] -= fd_step
            grad[i] = (loss(up) - loss(down)) / (2 * fd_step)
        thetas = thetas - learning_rate * grad
    trained = _with_thetas(circuit, cells, thetas)
    return _accuracy(_predictions(trained, encoded), dataset.labels), trained


class MLFitness(FitnessFunction):
    name = "ml"

    def __init__(
        self,
        dataset: Dataset,
        train_steps: int = 100,
        learning_rate: float = 0.2,
        lamarckian: bool = True,
    ):
        self.dataset = dataset
        self.train_steps = train_steps
        self.learning_rate = learning_rate
        self.lamarckian = lamarckian

    def evaluate(self, circuit: Circuit) -> float:
        return self.evaluate_trained(circuit)[0]

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        n_features = self.dataset.features.shape[1]
        if min_qubits < n_features:
            raise ConfigurationError(
                f"ml fitness needs min_qubits >= {n_features} (the dataset's "
                f"feature count), got {min_qubits}"
            )

    def evaluate_trained(self, circuit: Circuit) -> tuple[float, Circuit]:
        return ml_fitness_trained(
            circuit, self.dataset, self.train_steps, self.learning_rate
        )


# ---------------------------------------------------------------------------
# registry

_REGISTRY: dict[str, Callable[..., FitnessFunction]] = {}


def register_fitness(name: str, constructor: Callable[..., FitnessFunction]) -> None:
    if name in _REGISTRY:
        raise ConfigurationError(f"fitness '{name}' is already registered")
    _REGISTRY[name] = constructor


def get_fitness_constructor(name: str) -> Callable[..., FitnessFunction]:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise ConfigurationError(f"unknown fitness '{name}' (known: {known})")
    return _REGISTRY[name]


def registered_names() -> list[str]:
    return sorted(_REGISTRY)


register_fitness("fidelity", FidelityFitness)
register_fitness("entanglement", lambda: EntanglementFitness())
register_fitness("ml", MLFitness)
