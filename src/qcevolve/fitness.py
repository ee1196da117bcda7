"""Objective functions scoring circuits, plus the fitness registry.

User-defined objectives register a constructor under a unique name and
become selectable from the property file like the built-ins.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import isfinite, pi
from typing import Callable

import numpy as np

from . import simulator
from .circuit import Circuit, Gate, _with_cells, theta_cells
from .errors import ConfigurationError, QcevolveError
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
    """Base class: `evolve` and `random_baseline` call only `score`.

    `score(circuit)` returns (fitness, circuit to keep), by default
    (self.evaluate(circuit), circuit). A fitness that overrides `score` may
    keep another circuit in place of the input, as a Lamarckian fitness
    keeps the circuit it trained; it must be valid, with the input's
    n_qubits and depth. It must be deterministic: `evolve` scores each
    distinct circuit once while it is in the population or among the
    current generation's children, and reuses the result for every circuit
    equal to the input, not to the circuit kept. `qcevolve run` may call it
    for the random baseline in a forked child: state the object keeps then
    records the baseline's calls only in the child.
    """

    name = "abstract"

    def evaluate(self, circuit: Circuit) -> float:
        raise NotImplementedError

    def score(self, circuit: Circuit) -> tuple[float, Circuit]:
        """(fitness, circuit to keep); see the class docstring."""
        return self.evaluate(circuit), circuit

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
        if not np.isfinite(self.features).all():
            raise ConfigurationError("dataset features must be finite")
        if len(self.labels) != len(self.features):
            raise ConfigurationError("dataset features and labels disagree in length")
        if not set(np.unique(self.labels)) <= {0, 1}:
            raise ConfigurationError("dataset labels must be 0 or 1")


def load_dataset(path: str) -> Dataset:
    """CSV: one sample per line, its features then a label of 0 or 1; `#`
    lines are comments. The first other line may be a header. Every sample
    has the first one's width and finite values; a line that breaks this is
    a ConfigurationError naming it."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None
    numbered = [(no, line.strip()) for no, line in enumerate(lines, start=1)]
    content = [(no, line) for no, line in numbered if line and not line.startswith("#")]
    rows: list[list[float]] = []
    for i, (line_no, line) in enumerate(content):
        where = f"{path}:{line_no}"
        try:
            row = [float(p) for p in line.split(",")]
        except ValueError:
            if i == 0:
                continue  # header line
            raise ConfigurationError(f"{where}: not a numeric sample") from None
        if rows and len(row) != len(rows[0]):
            raise ConfigurationError(
                f"{where}: {len(row)} values, but the first sample has {len(rows[0])}"
            )
        if len(row) < 2:
            raise ConfigurationError(f"{where}: a sample needs features and a label")
        if not all(map(isfinite, row)):
            raise ConfigurationError(f"{where}: values must be finite")
        if row[-1] not in (0.0, 1.0):
            raise ConfigurationError(f"{where}: label {row[-1]:g} is not 0 or 1")
        rows.append(row)
    if not rows:
        raise ConfigurationError(f"{path}: no samples")
    data = np.array(rows)
    return Dataset(data[:, :-1], data[:, -1].astype(int))


# ---------------------------------------------------------------------------
# built-in objectives


def _check_finite(setting: str, value: float) -> None:
    if not isfinite(value):
        raise ConfigurationError(f"{setting} must be finite, got {value}")


class FidelityFitness(FitnessFunction):
    """Fidelity to `target`, minus `depth_weight * depth / max_depth`."""

    name = "fidelity"

    def __init__(self, target: np.ndarray, depth_weight: float = 0.0, max_depth: int = 100):
        try:
            self.width = n_qubits_of(target)
        except ValueError as exc:
            raise ConfigurationError(f"fidelity target: {exc}") from None
        _check_finite("depth_weight", depth_weight)
        self.target = target
        self.depth_weight = depth_weight
        self.max_depth = max_depth

    def evaluate(self, circuit: Circuit) -> float:
        n = circuit.n_qubits
        self.check_qubit_bounds(n, n, n)
        score = fidelity(simulate(circuit), self.target)
        if self.depth_weight:
            score -= self.depth_weight * circuit.depth / self.max_depth
        return score

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        if not min_qubits == n_qubits == max_qubits == self.width:
            raise ConfigurationError(
                "fidelity fitness needs min_qubits == n_qubits == max_qubits "
                f"== {self.width} (the target width), got {min_qubits}, "
                f"{n_qubits}, {max_qubits}"
            )


class EntanglementFitness(FitnessFunction):
    """Mean single-qubit marginal entropy; 1.0 for Bell/GHZ-like states."""

    name = "entanglement"

    def evaluate(self, circuit: Circuit) -> float:
        n = circuit.n_qubits
        self.check_qubit_bounds(n, n, n)
        state = simulate(circuit)
        # row k is the state with qubit k moved to the top bit, so one
        # partial trace over the top bit gives every one-qubit marginal
        rows = np.empty((n, len(state)), dtype=state.dtype)
        for k in range(n):
            moved = state.reshape(-1, 2, 1 << k).transpose(1, 0, 2)
            rows[k].reshape(2, -1, 1 << k)[...] = moved
        return float(np.mean(von_neumann_entropy(partial_trace(rows, {n - 1}))))

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        if min_qubits < 2:
            raise ConfigurationError(
                f"entanglement fitness needs min_qubits >= 2, got {min_qubits}"
            )


# ---------------------------------------------------------------------------
# machine-learning fitness

FD_STEP = 1e-3  # step of the central finite differences in MLFitness training


def _with_thetas(
    circuit: Circuit, cells: list[tuple[int, int]], thetas: np.ndarray
) -> Circuit:
    grid = circuit.grid
    new = {}
    for cell, t in zip(cells, thetas.tolist()):
        g = grid[cell[0]][cell[1]]
        new[cell] = Gate(g.kind, g.role, t, g.partner)
    return _with_cells(circuit, new)


def _encode_features(n_qubits: int, features: np.ndarray) -> np.ndarray:
    """Angle encoding: RX(pi * x_j) on qubit j from the zero state."""
    state = zero_state(n_qubits)
    for j, x in enumerate(features):
        state = apply_gate(state, GateKind.RX, pi * float(x), (j,))
    return state


def _predictions(circuit: Circuit, encoded: np.ndarray) -> np.ndarray:
    """<Z_0> of the final state per encoded sample; label 0 iff it is >= 0."""
    probs = np.abs(simulator.run_gates(encoded, circuit)) ** 2
    signs = 1.0 - 2.0 * (np.arange(probs.shape[1]) & 1)
    # one dot per row: a single matrix product may sum in another order
    return np.array([np.dot(row, signs) for row in probs])


def _accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predicted = (predictions < 0).astype(int)
    return float(np.mean(predicted == labels))


def _mse_loss(predictions: np.ndarray, labels: np.ndarray) -> float:
    signed = 1.0 - 2.0 * labels  # label 0 -> +1, label 1 -> -1
    return float(np.mean((predictions - signed) ** 2))


class MLFitness(FitnessFunction):
    """Training accuracy of the <Z_0> classifier after `train_steps` steps
    of gradient descent on the rotation angles."""

    name = "ml"

    def __init__(
        self,
        dataset: Dataset,
        train_steps: int = 100,
        learning_rate: float = 0.2,
        lamarckian: bool = True,
    ):
        if train_steps < 0:
            raise ConfigurationError(f"train_steps must be >= 0, got {train_steps}")
        _check_finite("learning_rate", learning_rate)
        self.dataset = dataset
        self.train_steps = train_steps
        self.learning_rate = learning_rate
        self.lamarckian = lamarckian

    def evaluate(self, circuit: Circuit) -> float:
        return self.evaluate_trained(circuit)[0]

    def score(self, circuit: Circuit) -> tuple[float, Circuit]:
        if self.lamarckian:
            return self.evaluate_trained(circuit)
        return super().score(circuit)

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
        """Train the rotation angles; return (accuracy, trained circuit).

        Central finite differences and plain gradient descent on the
        mean-squared error of the <Z_0> predictor against +-1 labels.
        The input circuit is never modified. QcevolveError if a step leaves
        an angle that is not finite, or one so large that theta + FD_STEP
        and theta - FD_STEP are the same float.
        """
        n = circuit.n_qubits
        self.check_qubit_bounds(n, n, n)
        labels = self.dataset.labels
        # (n_samples, 2**n) stack; the encoding does not depend on the angles
        encoded = np.array([_encode_features(n, x) for x in self.dataset.features])
        cells = theta_cells(circuit)
        if not cells or self.train_steps == 0:
            return _accuracy(_predictions(circuit, encoded), labels), circuit
        thetas = np.array([circuit.grid[r][c].theta for r, c in cells])

        def loss(vec: np.ndarray) -> float:
            trial = _with_thetas(circuit, cells, vec)
            return _mse_loss(_predictions(trial, encoded), labels)

        for step in range(1, self.train_steps + 1):
            grad = np.empty_like(thetas)
            for i in range(len(thetas)):
                up = thetas.copy()
                up[i] += FD_STEP
                down = thetas.copy()
                down[i] -= FD_STEP
                grad[i] = (loss(up) - loss(down)) / (2 * FD_STEP)
            with np.errstate(over="ignore", invalid="ignore"):
                thetas = thetas - self.learning_rate * grad
            if not np.isfinite(thetas).all():
                raise QcevolveError(
                    f"fitness '{self.name}': training step {step} left a rotation "
                    f"angle that is not finite (learning_rate = {self.learning_rate})"
                )
            # from about 5e12 on, theta +- FD_STEP rounds to one value: every
            # later gradient would be 0 and training would stop silently
            if (thetas + FD_STEP == thetas - FD_STEP).any():
                raise QcevolveError(
                    f"fitness '{self.name}': training step {step} left a rotation "
                    f"angle too large for the finite-difference step FD_STEP = "
                    f"{FD_STEP} (learning_rate = {self.learning_rate})"
                )
        trained = _with_thetas(circuit, cells, thetas)
        return _accuracy(_predictions(trained, encoded), labels), trained


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


register_fitness("fidelity", FidelityFitness)
register_fitness("entanglement", EntanglementFitness)
register_fitness("ml", MLFitness)
