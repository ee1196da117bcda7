"""Generational evolution loop and the budget-matched random baseline."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from numbers import Real

import numpy as np

from .circuit import MAX_QUBITS, Circuit, export_qasm, random_circuit
from .errors import ConfigurationError, QcevolveError
from .fitness import FitnessFunction, MLFitness
from .gates import FULL_GATE_SET, GateKind
from .operators import (
    Individual,
    MutationContext,
    Population,
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
        if not cfg.gate_set:
            raise ConfigurationError("gate_set must be nonempty")
        return cfg

    def mutation_context(self) -> MutationContext:
        return MutationContext(
            gate_set=self.gate_set,
            min_qubits=self.min_qubits,
            max_qubits=self.max_qubits,
            max_depth=self.max_depth,
        )


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    best_fitness: float
    mean_fitness: float
    baseline_best_fitness: float = float("nan")


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
    pop: Population,
    count: int,
    method: str,
    cfg: RunConfig,
    rng: np.random.Generator,
) -> list[Individual]:
    if method == "random":
        return select_random(pop, count, rng)
    if method == "roulette":
        return select_roulette(pop, count, rng)
    return select_tournament(pop, count, cfg.tournament_size, rng)


def _crossover(
    a: Circuit, b: Circuit, cfg: RunConfig, rng: np.random.Generator
) -> tuple[Circuit, Circuit]:
    if cfg.crossover_method == "multi_point":
        m = max(a.depth, b.depth)
        points = min(cfg.crossover_points, max(m - 1, 1))
        if points < 2:
            return crossover_single_point(a, b, rng)
        return crossover_multi_point(a, b, points, rng)
    if cfg.crossover_method == "blockwise":
        return crossover_blockwise(a, b, rng)
    return crossover_single_point(a, b, rng)


class _Evaluator:
    """Scores circuits; a Lamarckian fitness also returns the trained circuit.

    `evaluate` goes through a memo keyed by the circuit passed to the
    fitness (for a Lamarckian fitness, the untrained one), so a circuit the
    memo holds is not scored again. `keep_only` bounds it to the entries of
    the current population; between two calls it also holds that
    generation's children, so at most population_size +
    children_per_generation entries.
    """

    def __init__(self, fitness_fn: FitnessFunction):
        self.fitness_fn = fitness_fn
        self.lamarckian = isinstance(fitness_fn, MLFitness) and fitness_fn.lamarckian
        self.memo: dict[Circuit, Individual] = {}

    def score(self, circuit: Circuit) -> Individual:
        """Run the fitness on `circuit`, bypassing the memo. A score that is
        not a finite real number raises QcevolveError: selection cannot
        rank it."""
        if self.lamarckian:
            score, trained = self.fitness_fn.evaluate_trained(circuit)
        else:
            score, trained = self.fitness_fn.evaluate(circuit), circuit
        if not isinstance(score, Real) or not math.isfinite(score):
            fn = self.fitness_fn
            gates = " ".join(export_qasm(circuit).splitlines()[3:])
            raise QcevolveError(
                f"fitness '{fn.name}' ({type(fn).__name__}) returned {score!r}, "
                f"not a finite real number, for the {circuit.n_qubits}x"
                f"{circuit.depth} circuit: {gates}"
            )
        return Individual(trained, score)

    def evaluate(self, circuit: Circuit) -> Individual:
        ind = self.memo.get(circuit)
        if ind is None:
            ind = self.memo[circuit] = self.score(circuit)
        return ind

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
    pool = Population(children + old_sorted[cfg.elitism :])
    return elites + _select(pool, rest_slots, cfg.survivor_selection, cfg, rng)


def _record(generation: int, members: list[Individual]) -> GenerationRecord:
    fits = [ind.fitness for ind in members]
    return GenerationRecord(
        generation=generation,
        best_fitness=float(fits[int(np.argmax(fits))]),
        mean_fitness=float(np.mean(fits)),
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
    ctx = cfg.mutation_context()
    evaluator = _Evaluator(fitness_fn)

    members = [
        evaluator.evaluate(random_circuit(cfg.n_qubits, cfg.depth, cfg.gate_set, rng))
        for _ in range(cfg.population_size)
    ]
    pop = Population(members)
    trace = [_record(0, members)]
    best_ever = max(members, key=lambda ind: ind.fitness)

    for gen in range(1, cfg.generations + 1):
        children: list[Individual] = []
        while len(children) < cfg.children_per_generation:
            pa, pb = _select(pop, 2, cfg.parent_selection, cfg, rng)
            if rng.random() < cfg.crossover_prob:
                ca, cb = _crossover(pa.circuit, pb.circuit, cfg, rng)
            else:
                ca, cb = pa.circuit, pb.circuit
            for child in (ca, cb):
                if len(children) >= cfg.children_per_generation:
                    break
                if rng.random() < cfg.mutation_prob:
                    child = mutate(
                        child, rng, ctx, list(cfg.mutation_weights or []) or None
                    )
                children.append(evaluator.evaluate(child))
        members = _survivors(pop.members, children, cfg, rng)
        evaluator.keep_only(members)
        pop = Population(members)
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
    there is no memo, and the budget counts draws.
    """
    cfg = config.resolved()
    fitness_fn.check_qubit_bounds(cfg.min_qubits, cfg.n_qubits, cfg.max_qubits)
    evaluator = _Evaluator(fitness_fn)
    best = -np.inf
    trace = []
    for gen in range(cfg.generations + 1):
        budget = cfg.population_size if gen == 0 else cfg.children_per_generation
        for _ in range(budget):
            ind = evaluator.score(
                random_circuit(cfg.n_qubits, cfg.depth, cfg.gate_set, rng)
            )
            if ind.fitness > best:
                best = ind.fitness
        trace.append(float(best))
    return trace
