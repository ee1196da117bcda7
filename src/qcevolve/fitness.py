"""Objective functions scoring circuits, plus the fitness registry.

User-defined objectives register a constructor under a unique name and
become selectable from the property file like the built-ins.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, pairwise, takewhile
from math import isfinite, pi
from typing import Callable, Iterable

import numpy as np

from . import simulator
from .circuit import Circuit, Gate, _with_cells, theta_cells
from .errors import ConfigurationError, QcevolveError
from .simulator import (
    apply_gate,
    fidelity,
    n_qubits_of,
    partial_trace,
    simulate,  # not called here; gabench/tracing.py wraps it as fitness.simulate
    simulate_all,
    von_neumann_entropy,
    zero_state,
)
from .gates import GateKind


class FitnessFunction:
    """Base class: `evolve` and `random_baseline` call only `score_all`.

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

    `score_all(circuits)` returns the list of `score(circuit)` of each
    circuit in order, by default by calling `score` on each. An override
    may score them together, but must return for each circuit exactly what
    `score` returns for it. `evolve` passes it, once per generation, the
    distinct circuits its memo lacks, in the order first requested;
    `random_baseline` passes its draws in chunks, which may span
    generations. The results are checked once the call returns, so an
    exception raised for a later circuit of the list comes before the
    report of a bad result for an earlier one. The built-in fidelity and
    entanglement fitnesses score a list with one `simulator.simulate_all`
    call, which validates every circuit first and stacks a list of one
    shape, and `evaluate` as a list of one; the entanglement fitness sends
    the list's one-qubit marginals to one `von_neumann_entropy` call. A
    subclass that defines `evaluate` or `score` below a built-in is scored
    by its override, one circuit at a time; a wrapper set on the built-in
    class itself keeps it on the list path.
    """

    name = "abstract"

    def evaluate(self, circuit: Circuit) -> float:
        raise NotImplementedError

    def score(self, circuit: Circuit) -> tuple[float, Circuit]:
        """(fitness, circuit to keep); see the class docstring."""
        return self.evaluate(circuit), circuit

    def score_all(self, circuits: list[Circuit]) -> list[tuple[float, Circuit]]:
        """`score` of each circuit; see the class docstring."""
        return [self.score(c) for c in circuits]

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
        if self.labels.ndim != 1:
            raise ConfigurationError(
                "dataset labels must be one value per sample, shape "
                f"({len(self.features)},), got shape {self.labels.shape}"
            )
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


class _StateFitness(FitnessFunction):
    """The list path of the built-in fidelity and entanglement fitnesses,
    which score each circuit's final state with `_scores`. `score_all`
    walks up the subclass chain as far as the built-in (the class just
    below this one) for the subclass rule of `FitnessFunction`."""

    def evaluate(self, circuit: Circuit) -> float:
        return self._list_scores([circuit])[0]

    def score_all(self, circuits: list[Circuit]) -> list[tuple[float, Circuit]]:
        below = takewhile(lambda c: _StateFitness not in c.__bases__, type(self).__mro__)
        if any({"evaluate", "score"} & vars(c).keys() for c in below):
            return super().score_all(circuits)
        return list(zip(self._list_scores(circuits), circuits))

    def _list_scores(self, circuits: list[Circuit]) -> list[float]:
        for n in dict.fromkeys(c.n_qubits for c in circuits):
            self.check_qubit_bounds(n, n, n)
        return self._scores(circuits, simulate_all(circuits))


class FidelityFitness(_StateFitness):
    """Fidelity to `target`, minus `depth_weight * depth / max_depth`."""

    name = "fidelity"

    def __init__(self, target: np.ndarray, depth_weight: float = 0.0, max_depth: int = 100):
        try:
            self.width = n_qubits_of(target)
        except ValueError as exc:
            raise ConfigurationError(f"fidelity target: {exc}") from None
        _check_finite("depth_weight", depth_weight)
        # the penalty of a circuit max_depth deep must not overflow
        if not isfinite(depth_weight * max_depth):
            raise ConfigurationError(
                f"depth_weight * max_depth must be finite, got {depth_weight} * {max_depth}"
            )
        self.target = target
        self.depth_weight = depth_weight
        self.max_depth = max_depth

    def _scores(
        self, circuits: list[Circuit], states: Iterable[np.ndarray]
    ) -> list[float]:
        """The score of each circuit from its final state, read in order
        (with a depth_weight of 0, x - 0.0 is x)."""
        return [
            fidelity(state, self.target) - self.depth_weight * c.depth / self.max_depth
            for c, state in zip(circuits, states)
        ]

    def check_qubit_bounds(
        self, min_qubits: int, n_qubits: int, max_qubits: int
    ) -> None:
        if not min_qubits == n_qubits == max_qubits == self.width:
            raise ConfigurationError(
                "fidelity fitness needs min_qubits == n_qubits == max_qubits "
                f"== {self.width} (the target width), got {min_qubits}, "
                f"{n_qubits}, {max_qubits}"
            )


def _one_qubit_marginals(states: np.ndarray) -> np.ndarray:
    """The (k * n, 2, 2) one-qubit reduced density matrices of a (k, 2**n)
    stack, row i * n + q for qubit q of state i."""
    k, dim = states.shape
    n = dim.bit_length() - 1
    # row (i, q) is state i with qubit q moved to the top bit, so one
    # partial trace over the top bit gives every one-qubit marginal
    rows = np.empty((k, n, dim), dtype=states.dtype)
    for q in range(n):
        moved = states.reshape(k, -1, 2, 1 << q).transpose(0, 2, 1, 3)
        rows[:, q].reshape(k, 2, -1, 1 << q)[...] = moved
    return partial_trace(rows.reshape(k * n, dim), {n - 1})


class EntanglementFitness(_StateFitness):
    """Mean single-qubit marginal entropy; 1.0 for Bell/GHZ-like states."""

    name = "entanglement"

    def _scores(
        self, circuits: list[Circuit], states: Iterable[np.ndarray]
    ) -> list[float]:
        """The mean marginal entropy of each circuit's final state: the
        marginals of a stack in one call, of any other states one state at
        a time, and the entropies of the whole list in one call. Each
        entropy and each circuit's mean over its own n entropies has the
        bits it has alone."""
        if isinstance(states, np.ndarray):
            marginals = [_one_qubit_marginals(states)]
        else:
            marginals = [_one_qubit_marginals(state[None]) for state in states]
        if not marginals:
            return []
        entropies = von_neumann_entropy(np.concatenate(marginals))
        ends = pairwise(accumulate((c.n_qubits for c in circuits), initial=0))
        return [float(np.mean(entropies[start:stop])) for start, stop in ends]

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


def _columns(circuit: Circuit, start: int, stop: int) -> Circuit:
    """Columns [start, stop) of `circuit`: valid if it is, since both halves
    of a pair sit in one column."""
    return Circuit(circuit.n_qubits, tuple(row[start:stop] for row in circuit.grid))


def _encode_features(n_qubits: int, features: np.ndarray) -> np.ndarray:
    """Angle encoding: RX(pi * x_j) on qubit j from the zero state."""
    state = zero_state(n_qubits)
    for j, x in enumerate(features):
        state = apply_gate(state, GateKind.RX, pi * float(x), (j,))
    return state


def _predictions(final: np.ndarray) -> np.ndarray:
    """<Z_0> of each final state of a stack; label 0 iff it is >= 0."""
    probs = np.abs(final) ** 2
    signs = 1.0 - 2.0 * (np.arange(probs.shape[1]) & 1)
    # a stack of (1, d) @ (d, 1) products: numpy takes one dot per row, as
    # np.dot(row, signs) would; one (rows, d) @ (d,) product may sum in
    # another order
    return np.matmul(probs[:, None, :], signs[:, None]).reshape(-1)


def _accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    predicted = (predictions < 0).astype(int)
    return float(np.mean(predicted == labels))


def _mse_loss(predictions: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """The loss of each row of a (trials, samples) stack of predictions,
    each with the bits of np.mean over that row alone."""
    signed = 1.0 - 2.0 * labels  # label 0 -> +1, label 1 -> -1
    return np.mean((predictions - signed) ** 2, axis=-1)


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
        self._encodings: dict[int, np.ndarray] = {}

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

    def _encoding(self, n: int) -> np.ndarray:
        """The (n_samples, 2**n) stack of encoded samples, computed once per
        width and read-only: it does not depend on the angles."""
        encoded = self._encodings.get(n)
        if encoded is None:
            encoded = np.array([_encode_features(n, x) for x in self.dataset.features])
            encoded.flags.writeable = False
            self._encodings[n] = encoded
        return encoded

    def evaluate_trained(self, circuit: Circuit) -> tuple[float, Circuit]:
        """Train the rotation angles; return (accuracy, trained circuit).

        Central finite differences and plain gradient descent on the
        mean-squared error of the <Z_0> predictor against +-1 labels.
        Each step makes one pass over the columns. The up and down trials
        of every angle in column c start from the state before column c,
        run their own copy of column c, and then run the later columns as
        one stack, so a step holds one extra stack of at most
        2 * n_qubits * n_samples states (the kernels copy it once per gate).
        One call reads the stack's predictions and one its trials' losses,
        with the bits of one np.dot per row and one np.mean per trial, so
        every trial's loss has the bits of a whole run of its circuit.
        The input circuit is never modified. QcevolveError if a step leaves
        an angle that is not finite, or one so large that theta + FD_STEP
        and theta - FD_STEP are the same float.
        """
        n = circuit.n_qubits
        self.check_qubit_bounds(n, n, n)
        labels = self.dataset.labels
        encoded = self._encoding(n)
        cells = theta_cells(circuit)
        if not cells or self.train_steps == 0:
            final = simulator.run_gates(encoded, circuit)
            return _accuracy(_predictions(final), labels), circuit
        thetas = np.array([circuit.grid[r][c].theta for r, c in cells])
        # column -> [(index into thetas, row)]; a column has one angle per row at most
        by_column: dict[int, list[tuple[int, int]]] = {}
        for i, (r, c) in enumerate(cells):
            by_column.setdefault(c, []).append((i, r))

        for step in range(1, self.train_steps + 1):
            current = _with_thetas(circuit, cells, thetas)
            values = thetas.tolist()
            grad = np.empty_like(thetas)
            state, done = encoded, 0
            for c, trials in sorted(by_column.items()):
                if c > done:
                    state = simulator.run_gates(state, _columns(current, done, c))
                done = c
                column = _columns(current, c, c + 1)
                # row block 2j: the up trial of the column's j-th angle; 2j + 1: its down
                stack = np.empty((2 * len(trials),) + encoded.shape, dtype=complex)
                for j, (i, r) in enumerate(trials):
                    g = column.grid[r][0]
                    for k, t in enumerate((values[i] + FD_STEP, values[i] - FD_STEP)):
                        trial = {(r, 0): Gate(g.kind, g.role, t, g.partner)}
                        stack[2 * j + k] = simulator.run_gates(state, _with_cells(column, trial))
                final = stack.reshape(-1, encoded.shape[1])
                if c + 1 < current.depth:
                    final = simulator.run_gates(final, _columns(current, c + 1, current.depth))
                losses = _mse_loss(_predictions(final).reshape(len(stack), -1), labels)
                grad[[i for i, _ in trials]] = (losses[0::2] - losses[1::2]) / (2 * FD_STEP)
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
        final = simulator.run_gates(encoded, trained)
        return _accuracy(_predictions(final), labels), trained


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
