"""Generational evolution loop and the budget-matched random baseline."""
from __future__ import annotations

import hashlib
import math
import reprlib
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .circuit import MAX_QUBITS, Circuit, check_gate_set, export_qasm, random_circuit, validate
from .errors import CircuitStructureError, ConfigurationError, QcevolveError
from .fitness import FitnessFunction
from .gates import FULL_GATE_SET, GateKind
from .operators import (
    Individual,
    MutationContext,
    check_mutation_weights,
    crossover_blockwise,
    crossover_multi_point,
    crossover_single_point,
    mutate,
    select_random,
    select_roulette,
    select_tournament,
)

CROSSOVER_METHODS = ("single_point", "multi_point", "blockwise")
SELECTION_METHODS = ("random", "tournament", "roulette")
SURVIVOR_METHODS = ("truncation",) + SELECTION_METHODS


@dataclass(frozen=True)
class RunConfig:
    """All evolution parameters, as parsed from the property file."""

    population_size: int = 100
    generations: int = 100
    n_qubits: int = 4
    depth: int = 20
    min_qubits: int | None = None  # default: locked to n_qubits
    max_qubits: int | None = None
    max_depth: int | None = None  # default: 2 * depth
    crossover_prob: float = 0.9
    mutation_prob: float = 0.3
    crossover_method: str = "single_point"
    crossover_points: int = 2
    parent_selection: str = "tournament"
    survivor_selection: str = "truncation"
    tournament_size: int = 2
    elitism: int = 1
    gate_set: frozenset[GateKind] = FULL_GATE_SET
    mutation_weights: tuple[float, ...] | None = None
    seed: int = 0
    children_per_generation: int | None = None

    def resolved(self) -> "RunConfig":
        """Fill derived defaults and check all invariants."""
        cfg = replace(
            self,
            min_qubits=self.min_qubits if self.min_qubits is not None else self.n_qubits,
            max_qubits=self.max_qubits if self.max_qubits is not None else self.n_qubits,
            max_depth=self.max_depth if self.max_depth is not None else 2 * self.depth,
            children_per_generation=(
                self.children_per_generation
                if self.children_per_generation is not None
                else self.population_size - self.elitism
            ),
        )
        if cfg.population_size < 2:
            raise ConfigurationError("population_size must be >= 2")
        if cfg.generations < 0:
            raise ConfigurationError("generations must be >= 0")
        if not 0 <= cfg.elitism < cfg.population_size:
            raise ConfigurationError("elitism must be in [0, population_size)")
        for name in ("crossover_prob", "mutation_prob"):
            p = getattr(cfg, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1]")
        if cfg.crossover_method not in CROSSOVER_METHODS:
            raise ConfigurationError(
                f"crossover_method must be one of {CROSSOVER_METHODS}"
            )
        if cfg.parent_selection not in SELECTION_METHODS:
            raise ConfigurationError(
                f"parent_selection must be one of {SELECTION_METHODS}"
            )
        if cfg.survivor_selection not in SURVIVOR_METHODS:
            raise ConfigurationError(
                f"survivor_selection must be one of {SURVIVOR_METHODS}"
            )
        if cfg.crossover_points < 1:
            raise ConfigurationError("crossover_points must be >= 1")
        if cfg.tournament_size < 1:
            raise ConfigurationError("tournament_size must be >= 1")
        if not 1 <= cfg.min_qubits <= cfg.n_qubits <= cfg.max_qubits:
            raise ConfigurationError(
                "need 1 <= min_qubits <= n_qubits <= max_qubits"
            )
        if cfg.max_qubits > MAX_QUBITS:
            raise ConfigurationError(
                f"max_qubits {cfg.max_qubits} exceeds the simulator's limit "
                f"of {MAX_QUBITS} qubits"
            )
        if not 1 <= cfg.depth <= cfg.max_depth:
            raise ConfigurationError("need 1 <= depth <= max_depth")
        if cfg.children_per_generation < 1:
            raise ConfigurationError("children_per_generation must be >= 1")
        check_gate_set(cfg.gate_set, cfg.n_qubits, "gate_set")
        if cfg.mutation_weights is not None:
            check_mutation_weights(cfg.mutation_weights)
        return cfg


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float


def make_rng_streams(seed: int, labels: list[str]) -> dict[str, np.random.Generator]:
    """Independent deterministic generators, one per label."""
    if len(set(labels)) != len(labels):
        raise ValueError("rng stream labels must be distinct")
    streams = {}
    for label in labels:
        digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
        entropy = int.from_bytes(digest[:16], "big")
        streams[label] = np.random.default_rng(np.random.SeedSequence(entropy))
    return streams


def _select(
    members: list[Individual],
    count: int,
    method: str,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> list[Individual]:
    if method == "random":
        return select_random(members, count, rng)
    if method == "roulette":
        return select_roulette(members, count, rng)
    return select_tournament(members, count, cfg.tournament_size, rng)


def _crossover(
    a: Circuit, b: Circuit, cfg: RunConfig, rng: np.random.Generator
) -> tuple[Circuit, Circuit]:
    if cfg.crossover_method == "multi_point":
        return crossover_multi_point(a, b, cfg.crossover_points, rng)
    if cfg.crossover_method == "blockwise":
        return crossover_blockwise(a, b, rng)
    return crossover_single_point(a, b, rng)


# random_baseline draws and scores at most this many circuits at a time, and
# `simulate_all` runs each such list of one shape as one stack: enough rows to
# gain at every width it stacks, and bounded, so a long run's draws are not
# all held at once. The GA's stacks are one generation's memo misses.
_BASELINE_CHUNK = 256


class _Evaluator:
    """Scores circuits with `FitnessFunction.score_all`, which also returns
    the circuit to keep for each (for a Lamarckian fitness, the trained one).

    `evaluate_all` goes through a memo keyed by the circuit passed to the
    fitness, not the one kept, so a circuit the memo holds is not scored
    again. `keep_only` bounds it to the entries of the current population;
    between two calls it also holds that generation's children, so at most
    population_size + children_per_generation entries.
    """

    def __init__(self, fitness_fn: FitnessFunction):
        self.fitness_fn = fitness_fn
        self.memo: dict[Circuit, Individual] = {}

    def score_all(self, circuits: list[Circuit]) -> list[Individual]:
        """The Individual of each circuit, from one `score_all` call of the
        fitness, each checked once all are returned. QcevolveError unless it
        returns a list of one valid result per circuit."""
        results = self.fitness_fn.score_all(circuits)
        if not isinstance(results, list) or len(results) != len(circuits):
            fn = self.fitness_fn
            raise QcevolveError(
                f"fitness '{fn.name}' ({type(fn).__name__}) returned "
                f"{reprlib.repr(results)} from score_all, not a list of "
                f"{len(circuits)} results"
            )
        return [self._checked(c, result) for c, result in zip(circuits, results)]

    def _checked(self, circuit: Circuit, result) -> Individual:
        """The Individual of what the fitness returned for `circuit`.
        QcevolveError unless it is a pair of a finite real score, which
        selection can rank, and `circuit` itself or a valid circuit of its
        shape."""
        # a Circuit is a tuple of two as well: its width and its grid
        if isinstance(result, Circuit) or not (
            isinstance(result, tuple) and len(result) == 2
        ):
            raise self._rejected(
                circuit, f"{reprlib.repr(result)}, not a (score, circuit) pair"
            )
        score, kept = result
        if not isinstance(score, Real) or not math.isfinite(score):
            raise self._rejected(circuit, f"{score!r}, not a finite real number")
        if kept is not circuit:
            if not isinstance(kept, Circuit):
                raise self._rejected(
                    circuit, f"{reprlib.repr(kept)} as its circuit, not a Circuit"
                )
            if (kept.n_qubits, kept.depth) != (circuit.n_qubits, circuit.depth):
                shape = f"{kept.n_qubits}x{kept.depth}"
                raise self._rejected(circuit, f"a {shape} circuit, not one of its shape")
            try:
                validate(kept)
            except CircuitStructureError as exc:
                raise self._rejected(circuit, f"an invalid circuit ({exc})") from None
        return Individual(kept, score)

    def _rejected(self, circuit: Circuit, what: str) -> QcevolveError:
        fn = self.fitness_fn
        gates = " ".join(export_qasm(circuit).splitlines()[3:])
        return QcevolveError(
            f"fitness '{fn.name}' ({type(fn).__name__}) returned {what}, for the "
            f"{circuit.n_qubits}x{circuit.depth} circuit: {gates}"
        )

    def evaluate_all(self, circuits: list[Circuit]) -> list[Individual]:
        """The Individual of each circuit through the memo: the distinct
        circuits it lacks are scored by one `score_all` call, in the order
        first requested."""
        new = list(dict.fromkeys(c for c in circuits if c not in self.memo))
        if new:
            self.memo.update(zip(new, self.score_all(new)))
        return [self.memo[c] for c in circuits]

    def keep_only(self, members: list[Individual]) -> None:
        """Drop every memo entry whose Individual is not in `members`."""
        alive = {id(ind) for ind in members}
        self.memo = {c: ind for c, ind in self.memo.items() if id(ind) in alive}


def _sorted_by_fitness(members: list[Individual]) -> list[Individual]:
    # stable sort: earlier entries win ties
    return sorted(members, key=lambda ind: -ind.fitness)


def _survivors(
    old: list[Individual],
    children: list[Individual],
    cfg: RunConfig,
    rng: np.random.Generator,
) -> list[Individual]:
    old_sorted = _sorted_by_fitness(old)
    elites = old_sorted[: cfg.elitism]
    rest_slots = cfg.population_size - cfg.elitism
    if cfg.survivor_selection == "truncation":
        # children listed first so stable sort prefers them on ties
        pool = _sorted_by_fitness(children + old_sorted[cfg.elitism :])
        return elites + pool[:rest_slots]
    pool = children + old_sorted[cfg.elitism :]
    return elites + _select(pool, rest_slots, cfg.survivor_selection, cfg, rng)


def _record(generation: int, members: list[Individual]) -> GenerationRecord:
    fits = [ind.fitness for ind in members]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.mean(fits)
        if not np.isfinite(mean):  # the sum overflowed; the sum of fits / n cannot
            mean = np.clip(np.sum(np.divide(fits, len(fits))), min(fits), max(fits))
    return GenerationRecord(
        generation=generation,
        best_fitness=float(fits[int(np.argmax(fits))]),
        mean_fitness=float(mean),
    )


def evolve(
    config: RunConfig,
    fitness_fn: FitnessFunction,
    rng: np.random.Generator,
) -> tuple[Individual, list[GenerationRecord]]:
    """Run the genetic algorithm; returns the best-ever individual and the
    per-generation statistics trace (generations + 1 records)."""
    cfg = config.resolved()
    fitness_fn.check_qubit_bounds(cfg.min_qubits, cfg.n_qubits, cfg.max_qubits)
    ctx = MutationContext(cfg.gate_set, cfg.min_qubits, cfg.max_qubits, cfg.max_depth)
    evaluator = _Evaluator(fitness_fn)

    # a generation is drawn whole, then scored: fitness takes no draws
    members = evaluator.evaluate_all([
        random_circuit(cfg.n_qubits, cfg.depth, cfg.gate_set, rng)
        for _ in range(cfg.population_size)
    ])
    trace = [_record(0, members)]
    best_ever = max(members, key=lambda ind: ind.fitness)

    for gen in range(1, cfg.generations + 1):
        children: list[Circuit] = []
        while len(children) < cfg.children_per_generation:
            pa, pb = _select(members, 2, cfg.parent_selection, cfg, rng)
            if rng.random() < cfg.crossover_prob:
                ca, cb = _crossover(pa.circuit, pb.circuit, cfg, rng)
            else:
                ca, cb = pa.circuit, pb.circuit
            for child in (ca, cb):
                if len(children) >= cfg.children_per_generation:
                    break
                if rng.random() < cfg.mutation_prob:
                    child = mutate(child, rng, ctx, cfg.mutation_weights)
                children.append(child)
        members = _survivors(members, evaluator.evaluate_all(children), cfg, rng)
        evaluator.keep_only(members)
        gen_best = max(members, key=lambda ind: ind.fitness)
        if gen_best.fitness > best_ever.fitness:
            best_ever = gen_best
        trace.append(_record(gen, members))
    return best_ever, trace


def random_baseline(
    config: RunConfig,
    fitness_fn: FitnessFunction,
    rng: np.random.Generator,
) -> list[float]:
    """Best-so-far fitness of pure random sampling on the GA's budget.

    Generation 0 draws population_size circuits (matching GA init), every
    later generation draws children_per_generation. Every draw is scored:
    there is no memo, and the budget counts draws. The draws are made in
    order and scored by the fitness's `score_all`, in chunks of at most
    _BASELINE_CHUNK that span generations, so a fitness that stacks its
    simulations stacks whole chunks.
    """
    cfg = config.resolved()
    fitness_fn.check_qubit_bounds(cfg.min_qubits, cfg.n_qubits, cfg.max_qubits)
    evaluator = _Evaluator(fitness_fn)
    budgets = [cfg.population_size] + [cfg.children_per_generation] * cfg.generations
    total = sum(budgets)
    fits: list[Real] = []
    while len(fits) < total:
        chunk = [
            random_circuit(cfg.n_qubits, cfg.depth, cfg.gate_set, rng)
            for _ in range(min(_BASELINE_CHUNK, total - len(fits)))
        ]
        fits += [ind.fitness for ind in evaluator.score_all(chunk)]
    best = -np.inf
    trace = []
    start = 0
    for budget in budgets:
        # max keeps the first of equal values, as a running `>` test does
        best = max(best, *fits[start : start + budget])
        start += budget
        trace.append(float(best))
    return trace
