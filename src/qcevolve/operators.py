"""Selection, crossover, and mutation operators over circuit populations."""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cache
from math import inf, isfinite, pi

import numpy as np

from .circuit import (
    IDENTITY,
    Circuit,
    Gate,
    Role,
    _draw_gate,
    _draw_table,
    _with_cells,
    from_columns,
    pad_to,
    random_column,
    repair,
    shared_cell,
    theta_cells,
)
from .errors import ConfigurationError, QcevolveError
from .gates import GateKind


@dataclass(frozen=True)
class Individual:
    circuit: Circuit
    fitness: float


# ---------------------------------------------------------------------------
# selection


def select_random(
    members: list[Individual], count: int, rng: np.random.Generator
) -> list[Individual]:
    """Uniform selection with replacement; fitness is ignored. A tournament
    of one entrant: it draws what `rng.integers(len(members), size=count)`
    draws, and its tie-break takes no draw."""
    return select_tournament(members, count, 1, rng)


def _tournament_winner(
    members: list[Individual], idx: np.ndarray, rng: np.random.Generator
) -> Individual:
    fits = [members[i].fitness for i in idx]
    best = max(fits)
    winners = [i for i, f in zip(idx, fits) if f == best]
    return members[winners[rng.integers(len(winners))]]


def select_tournament(
    members: list[Individual],
    count: int,
    tournament_size: int,
    rng: np.random.Generator,
) -> list[Individual]:
    """Best-of-sample selection; sampling with replacement, ties random."""
    if not members:
        raise ValueError("population is empty")
    if count < 1:
        raise ValueError(f"count {count} must be >= 1")
    if tournament_size < 1:
        raise ValueError(f"tournament_size {tournament_size} must be >= 1")
    draws = rng.integers(len(members), size=(count, tournament_size))
    return [_tournament_winner(members, row, rng) for row in draws]


def select_roulette(
    members: list[Individual], count: int, rng: np.random.Generator
) -> list[Individual]:
    """Fitness-proportionate selection on shifted weights."""
    if not members:
        raise ValueError("population is empty")
    if count < 1:
        raise ValueError(f"count {count} must be >= 1")
    fits = np.array([m.fitness for m in members], dtype=float)
    lo, hi = fits.min(), fits.max()
    # shift only negative fitness into range; a tiny floor keeps the
    # distribution valid when every weight lands on zero
    shift = -lo if lo < 0 else 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        weights = fits + shift + 1e-9 * (hi - lo + 1.0)
        total = weights.sum()
    if not np.isfinite(total):
        raise QcevolveError(
            f"roulette selection cannot weigh fitness from {lo:g} to {hi:g}: "
            "the sum of the shifted weights overflows"
        )
    idx = rng.choice(len(members), size=count, p=weights / total)
    return [members[i] for i in idx]


# ---------------------------------------------------------------------------
# crossover


def _pad_pair(a: Circuit, b: Circuit) -> tuple[Circuit, Circuit]:
    n = max(a.n_qubits, b.n_qubits)
    m = max(a.depth, b.depth)
    return pad_to(a, n, m), pad_to(b, n, m)


def _recombine(
    a: Circuit, b: Circuit, cuts: list[int], rng: np.random.Generator
) -> tuple[Circuit, Circuit]:
    bounds = [0] + cuts + [a.depth]
    cols_a, cols_b = list(zip(*a.grid)), list(zip(*b.grid))
    cols1, cols2 = [], []
    for seg, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        src1, src2 = (cols_a, cols_b) if seg % 2 == 0 else (cols_b, cols_a)
        cols1 += src1[lo:hi]
        cols2 += src2[lo:hi]
    c1 = repair(from_columns(a.n_qubits, cols1), rng)
    c2 = repair(from_columns(a.n_qubits, cols2), rng)
    return c1, c2


def crossover_single_point(
    a: Circuit, b: Circuit, rng: np.random.Generator
) -> tuple[Circuit, Circuit]:
    """Swap all columns after one random cut point."""
    a, b = _pad_pair(a, b)
    if a.depth < 2:
        return a, b
    cut = int(rng.integers(1, a.depth))
    return _recombine(a, b, [cut], rng)


def crossover_multi_point(
    a: Circuit, b: Circuit, n_points: int, rng: np.random.Generator
) -> tuple[Circuit, Circuit]:
    """Alternate column segments between parents at up to `n_points` cut
    points, as many as the padded depth allows; single-point crossover
    when fewer than two fit."""
    if n_points < 1:
        raise ValueError(f"n_points {n_points} must be >= 1")
    n_points = min(n_points, max(a.depth, b.depth) - 1)
    if n_points < 2:
        return crossover_single_point(a, b, rng)
    a, b = _pad_pair(a, b)
    cuts = sorted(
        int(c) + 1 for c in rng.choice(a.depth - 1, size=n_points, replace=False)
    )
    return _recombine(a, b, cuts, rng)


def crossover_blockwise(
    a: Circuit, b: Circuit, rng: np.random.Generator
) -> tuple[Circuit, Circuit]:
    """Swap the top-left quadrant defined by one row cut and one column cut.

    Two-qubit gates spanning the row cut break; repair() reconstructs them,
    so children may gain gate content relative to the parents.
    """
    a, b = _pad_pair(a, b)
    if a.n_qubits < 2:
        return crossover_single_point(a, b, rng)
    if a.depth < 2:
        return a, b
    row_cut = int(rng.integers(1, a.n_qubits))
    col_cut = int(rng.integers(1, a.depth))
    rows, cols = range(row_cut), range(col_cut)
    c1 = repair(_with_cells(a, {(r, c): b.grid[r][c] for r in rows for c in cols}), rng)
    c2 = repair(_with_cells(b, {(r, c): a.grid[r][c] for r in rows for c in cols}), rng)
    return c1, c2


# ---------------------------------------------------------------------------
# mutation


@dataclass(frozen=True)
class MutationContext:
    """Parameters the individual mutation methods draw on."""

    gate_set: frozenset[GateKind]
    min_qubits: int
    max_qubits: int
    max_depth: int


def mutate_single_gate_flip(
    circuit: Circuit, rng: np.random.Generator, ctx: MutationContext
) -> Circuit:
    """Replace one randomly chosen gate (both cells of a two-qubit gate)."""
    n, m = circuit.n_qubits, circuit.depth
    r = int(rng.integers(n))
    c = int(rng.integers(m))
    hit = circuit.grid[r][c]
    rows = [r] if hit.kind.arity == 1 else [r, hit.partner]
    cells = list(circuit.column(c))
    for row in rows:
        cells[row] = IDENTITY
    table = _draw_table(gate_set_of(ctx))
    for row in rows:
        if cells[row].kind is not GateKind.ID or cells[row].role is not Role.SINGLE:
            continue  # already claimed by a freshly placed two-qubit gate
        free_other = [i for i in range(n) if i != row and cells[i].kind is GateKind.ID]
        _draw_gate(cells, row, free_other, table, rng)
    return _with_cells(circuit, {(row, c): g for row, g in enumerate(cells)})


def gate_set_of(ctx: MutationContext) -> frozenset[GateKind]:
    return ctx.gate_set | {GateKind.ID}


def mutate_swap_control(
    circuit: Circuit, rng: np.random.Generator, ctx: MutationContext
) -> Circuit:
    """Swap control and target of one random controlled gate, if any."""
    controls = [
        (r, c)
        for r in range(circuit.n_qubits)
        for c in range(circuit.depth)
        if circuit.grid[r][c].role is Role.CONTROL
    ]
    if not controls:
        return circuit
    r, c = controls[rng.integers(len(controls))]
    g = circuit.grid[r][c]
    p = g.partner
    swapped = {
        (r, c): shared_cell(g.kind, Role.TARGET, p),
        (p, c): shared_cell(g.kind, Role.CONTROL, r),
    }
    return _with_cells(circuit, swapped)


def mutate_qubit_count(
    circuit: Circuit, rng: np.random.Generator, ctx: MutationContext
) -> Circuit:
    """Add a fresh identity row or drop a random row, within bounds."""
    n = circuit.n_qubits
    can_add = n < ctx.max_qubits
    can_remove = n > max(ctx.min_qubits, 1)
    if not can_add and not can_remove:
        return circuit
    add = can_add and (not can_remove or rng.random() < 0.5)
    if add:
        new_row = tuple(IDENTITY for _ in range(circuit.depth))
        return Circuit(n + 1, circuit.grid + (new_row,))
    drop = int(rng.integers(n))
    grid = []
    for r in range(n):
        if r == drop:
            continue
        row = []
        for g in circuit.grid[r]:
            p = g.partner
            if p is not None and p >= drop:
                # the partner moves up a row, or dangles until repair below
                g = shared_cell(g.kind, g.role, p - 1 if p > drop else None)
            row.append(g)
        grid.append(tuple(row))
    return repair(Circuit(n - 1, tuple(grid)), rng)


def mutate_gate_count(
    circuit: Circuit, rng: np.random.Generator, ctx: MutationContext
) -> Circuit:
    """Insert a random column or remove one, keeping the grid rectangular."""
    m = circuit.depth
    can_add = m < ctx.max_depth
    can_remove = m > 1
    if not can_add and not can_remove:
        return circuit
    add = can_add and (not can_remove or rng.random() < 0.5)
    cols = list(zip(*circuit.grid))
    if add:
        pos = int(rng.integers(m + 1))
        table = _draw_table(gate_set_of(ctx))
        cols.insert(pos, random_column(circuit.n_qubits, table, rng))
    else:
        cols.pop(int(rng.integers(m)))
    return from_columns(circuit.n_qubits, cols)


def mutate_swap_columns(
    circuit: Circuit, rng: np.random.Generator, ctx: MutationContext
) -> Circuit:
    """Exchange the gates of two randomly chosen columns."""
    m = circuit.depth
    if m < 2:
        return circuit
    c1, c2 = rng.choice(m, size=2, replace=False)
    cols = list(zip(*circuit.grid))
    cols[c1], cols[c2] = cols[c2], cols[c1]
    return from_columns(circuit.n_qubits, cols)


PARAMETER_SIGMA = 0.1 * pi  # standard deviation of mutate_parameter's jitter


def mutate_parameter(
    circuit: Circuit, rng: np.random.Generator, ctx: MutationContext
) -> Circuit:
    """Jitter one rotation angle with Gaussian noise, if any gate has one."""
    cells = theta_cells(circuit)
    if not cells:
        return circuit
    r, c = cells[rng.integers(len(cells))]
    g = circuit.grid[r][c]
    theta = g.theta + float(rng.normal(0.0, PARAMETER_SIGMA))
    return _with_cells(circuit, {(r, c): Gate(g.kind, g.role, theta, g.partner)})


MUTATION_METHODS = (
    mutate_single_gate_flip,
    mutate_swap_control,
    mutate_qubit_count,
    mutate_gate_count,
    mutate_swap_columns,
    mutate_parameter,
)

MUTATION_NAMES = tuple(f.__name__.removeprefix("mutate_") for f in MUTATION_METHODS)


def check_mutation_weights(weights: Sequence[float]) -> None:
    """Raise ConfigurationError unless `weights` holds one finite,
    nonnegative weight per entry of MUTATION_NAMES, not all zero, with a
    finite sum."""
    if len(weights) != len(MUTATION_METHODS):
        raise ConfigurationError(
            f"mutation_weights needs {len(MUTATION_METHODS)} values, one each "
            f"for {', '.join(MUTATION_NAMES)}; got {len(weights)}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.asarray(weights, dtype=float).sum()  # as mutate sums them
    if not all(isfinite(w) and w >= 0 for w in weights) or not 0 < total < inf:
        raise ConfigurationError(
            "mutation_weights must be finite and nonnegative, not all zero, "
            f"with a finite sum; got {', '.join(map(str, weights))}"
        )


@cache
def _mutation_probabilities(weights: tuple[float, ...]) -> np.ndarray:
    """The checked weights, normalized and read-only; checked and computed
    once per tuple, since `evolve` passes the same weights on every call."""
    check_mutation_weights(weights)
    w = np.asarray(weights, dtype=float)
    p = w / w.sum()
    p.flags.writeable = False
    return p


def mutate(
    circuit: Circuit,
    rng: np.random.Generator,
    ctx: MutationContext,
    weights: Sequence[float] | None = None,
) -> Circuit:
    """Apply exactly one mutation method, chosen with probability ~ weights."""
    if weights is None:
        weights = (1.0,) * len(MUTATION_METHODS)
    p = _mutation_probabilities(tuple(weights))
    method = MUTATION_METHODS[rng.choice(len(MUTATION_METHODS), p=p)]
    return method(circuit, rng, ctx)
