"""Grid-encoded quantum circuits: the genotype of the search.

A circuit is an n_qubits x depth grid of gate cells. Every cell is
occupied (identity fills empty slots). A two-qubit gate occupies two
cells of the same column that reference each other through their
`partner` fields with complementary Control/Target roles.
"""
from __future__ import annotations

import enum
import json
from collections.abc import Sequence
from dataclasses import dataclass
from math import pi

import numpy as np

from .errors import CircuitStructureError, ConfigurationError, ParseError
from .gates import GateKind

MAX_QUBITS = 20

SERIAL_FORMAT_VERSION = 1


class Role(enum.Enum):
    SINGLE = "single"
    CONTROL = "control"
    TARGET = "target"

    __hash__ = object.__hash__  # as GateKind: members are singletons


@dataclass(frozen=True)
class Gate:
    """One placed gate cell."""

    kind: GateKind
    role: Role = Role.SINGLE
    theta: float | None = None
    partner: int | None = None


IDENTITY = Gate(GateKind.ID)


@dataclass(frozen=True)
class Circuit:
    """An immutable n_qubits x depth grid of gate cells.

    The hash is computed once and kept on the instance; it is not pickled,
    since gate-kind and role hashes differ between processes."""

    n_qubits: int
    grid: tuple[tuple[Gate, ...], ...]  # grid[row][col]

    _hash = None  # not a field: no annotation

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.n_qubits, self.grid))
            object.__setattr__(self, "_hash", h)
        return h

    def __reduce__(self):
        return Circuit, (self.n_qubits, self.grid)

    @property
    def depth(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    def cell(self, row: int, col: int) -> Gate:
        return self.grid[row][col]

    def column(self, col: int) -> tuple[Gate, ...]:
        return tuple(self.grid[row][col] for row in range(self.n_qubits))


def from_columns(n_qubits: int, columns: list[tuple[Gate, ...]]) -> Circuit:
    grid = tuple(
        tuple(columns[c][r] for c in range(len(columns))) for r in range(n_qubits)
    )
    return Circuit(n_qubits, grid)


def _pair_problem(
    columns: Sequence[Sequence[Gate]], row: int, col: int
) -> str | None:
    """What is wrong with the two-qubit cell columns[col][row] and its
    partner, or None when the pair is intact (or the cell is one-qubit)."""
    cells = columns[col]
    g = cells[row]
    if g.kind.arity != 2:
        return None
    if g.role not in (Role.CONTROL, Role.TARGET):
        return "two-qubit gate needs a control/target role"
    if g.partner is None or not (0 <= g.partner < len(cells)) or g.partner == row:
        return "invalid partner row"
    p = cells[g.partner]
    if (
        p.kind is not g.kind
        or p.partner != row
        or {p.role, g.role} != {Role.CONTROL, Role.TARGET}
    ):
        return f"partner cell ({g.partner}, {col}) does not match"
    return None


def validate(circuit: Circuit) -> None:
    """Raise CircuitStructureError naming the first offending cell."""
    n, m = circuit.n_qubits, circuit.depth
    if n < 1 or n > MAX_QUBITS:
        raise CircuitStructureError(f"n_qubits {n} out of range [1, {MAX_QUBITS}]")
    if m < 1:
        raise CircuitStructureError("circuit has no columns")
    if any(len(row) != m for row in circuit.grid):
        raise CircuitStructureError("ragged grid")
    columns = tuple(zip(*circuit.grid))
    for r in range(n):
        for c in range(m):
            g = circuit.grid[r][c]
            where = f"cell ({r}, {c})"
            if g.kind.parameterized != (g.theta is not None):
                raise CircuitStructureError(
                    f"{where}: theta must be present iff gate is parameterized"
                )
            if g.kind.arity == 1:
                if g.role is not Role.SINGLE or g.partner is not None:
                    raise CircuitStructureError(
                        f"{where}: one-qubit gate with two-qubit metadata"
                    )
            else:
                problem = _pair_problem(columns, r, c)
                if problem is not None:
                    raise CircuitStructureError(f"{where}: {problem}")


def is_valid(circuit: Circuit) -> bool:
    try:
        validate(circuit)
    except CircuitStructureError:
        return False
    return True


def _split_gate_set(
    gate_set: frozenset[GateKind],
) -> tuple[list[GateKind], list[GateKind]]:
    one_q = sorted((k for k in gate_set if k.arity == 1), key=lambda k: k.value)
    two_q = sorted((k for k in gate_set if k.arity == 2), key=lambda k: k.value)
    return one_q, two_q


def _draw_gate(
    cells: list[Gate | None],
    row: int,
    free: list[int],
    one_q: list[GateKind],
    two_q: list[GateKind],
    rng: np.random.Generator,
) -> None:
    """Place a random gate on `row` of the column `cells`: a one-qubit kind,
    or a two-qubit kind whose partner row is popped from `free`; identity
    when no kind can be drawn."""
    choices = one_q + two_q if free and two_q else one_q
    if not choices:
        cells[row] = IDENTITY
        return
    kind = choices[rng.integers(len(choices))]
    if kind.arity == 1:
        theta = float(rng.uniform(-pi, pi)) if kind.parameterized else None
        cells[row] = Gate(kind, Role.SINGLE, theta)
    else:
        other = free.pop(rng.integers(len(free)))
        ctrl, tgt = (row, other) if rng.random() < 0.5 else (other, row)
        cells[ctrl] = Gate(kind, Role.CONTROL, partner=tgt)
        cells[tgt] = Gate(kind, Role.TARGET, partner=ctrl)


def random_column(
    n_qubits: int,
    gate_set: frozenset[GateKind],
    rng: np.random.Generator,
    _split: tuple[list[GateKind], list[GateKind]] | None = None,
) -> tuple[Gate, ...]:
    """Fill one column: two-qubit gates claim two free rows, the rest get
    one-qubit gates (identity when no one-qubit kind is configured)."""
    one_q, two_q = _split if _split is not None else _split_gate_set(gate_set)
    cells: list[Gate | None] = [None] * n_qubits
    free = [int(i) for i in rng.permutation(n_qubits)]
    while free:
        _draw_gate(cells, free.pop(), free, one_q, two_q, rng)
    return tuple(cells)  # type: ignore[arg-type]


def random_circuit(
    n_qubits: int,
    depth: int,
    gate_set: frozenset[GateKind],
    rng: np.random.Generator,
) -> Circuit:
    """Generate a uniformly random valid circuit from `gate_set`."""
    if not gate_set:
        raise ConfigurationError("gate set is empty")
    if n_qubits < 1 or n_qubits > MAX_QUBITS:
        raise ConfigurationError(f"n_qubits {n_qubits} out of range")
    if depth < 1:
        raise ConfigurationError(f"depth {depth} must be >= 1")
    if n_qubits < 2 and all(k.arity == 2 for k in gate_set):
        raise ConfigurationError(
            "gate set contains only two-qubit gates but n_qubits < 2"
        )
    split = _split_gate_set(gate_set)
    cols = [random_column(n_qubits, gate_set, rng, split) for _ in range(depth)]
    return from_columns(n_qubits, cols)


def pad_to(circuit: Circuit, n_qubits: int, depth: int) -> Circuit:
    """Grow the grid with identity cells, anchoring existing gates top-left."""
    if n_qubits < circuit.n_qubits or depth < circuit.depth:
        raise ValueError(
            f"pad_to cannot shrink {circuit.n_qubits}x{circuit.depth} "
            f"to {n_qubits}x{depth}"
        )
    grid = tuple(
        tuple(
            circuit.grid[r][c]
            if r < circuit.n_qubits and c < circuit.depth
            else IDENTITY
            for c in range(depth)
        )
        for r in range(n_qubits)
    )
    return Circuit(n_qubits, grid)


_REPAIR_ONE_Q = [GateKind.ID, GateKind.X, GateKind.H]


def repair(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Complete dangling halves of two-qubit gates.

    A dangling cell keeps its role; its new partner is the nearest identity
    cell in the same column (ties toward the lower row index), else a random
    other row whose gate is overwritten. On a single-row grid the dangling
    cell becomes a random one-qubit gate instead.
    """
    n = circuit.n_qubits
    columns = [list(col) for col in zip(*circuit.grid)]
    for c, cells in enumerate(columns):
        for r in range(n):
            if _pair_problem(columns, r, c) is None:
                continue
            g = cells[r]
            if n == 1:
                _draw_gate(cells, r, [], _REPAIR_ONE_Q, [], rng)
                continue
            role = g.role if g.role in (Role.CONTROL, Role.TARGET) else Role.CONTROL
            id_rows = [i for i in range(n) if i != r and cells[i].kind is GateKind.ID]
            if id_rows:
                p = min(id_rows, key=lambda i: (abs(i - r), i))
            else:
                # anything but an intact pair half may be overwritten
                others = [
                    i
                    for i in range(n)
                    if i != r
                    and (
                        cells[i].kind.arity == 1
                        or _pair_problem(columns, i, c) is not None
                    )
                ]
                if not others:
                    # every other row holds a valid pair: no partner exists
                    _draw_gate(cells, r, [], _REPAIR_ONE_Q, [], rng)
                    continue
                p = others[rng.integers(len(others))]
            partner_role = Role.TARGET if role is Role.CONTROL else Role.CONTROL
            cells[r] = Gate(g.kind, role, partner=p)
            cells[p] = Gate(g.kind, partner_role, partner=r)
    return from_columns(n, columns)


def theta_cells(circuit: Circuit) -> list[tuple[int, int]]:
    """(row, col) of every cell carrying a rotation angle, row by row."""
    return [
        (r, c)
        for r in range(circuit.n_qubits)
        for c in range(circuit.depth)
        if circuit.grid[r][c].theta is not None
    ]


# ---------------------------------------------------------------------------
# serialization


def _gate_to_dict(g: Gate) -> dict:
    d: dict = {"kind": g.kind.value, "role": g.role.value}
    if g.theta is not None:
        d["theta"] = g.theta
    if g.partner is not None:
        d["partner"] = g.partner
    return d


def serialize(circuit: Circuit) -> str:
    """Render a circuit as a versioned JSON document (round-trip exact)."""
    doc = {
        "format_version": SERIAL_FORMAT_VERSION,
        "n_qubits": circuit.n_qubits,
        "depth": circuit.depth,
        "cells": [
            [_gate_to_dict(circuit.grid[r][c]) for c in range(circuit.depth)]
            for r in range(circuit.n_qubits)
        ],
    }
    return json.dumps(doc, indent=1)


def deserialize(text: str) -> Circuit:
    """Parse a circuit document; raises ParseError with field context."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid document: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("document root must be an object")
    version = doc.get("format_version")
    if version != SERIAL_FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {version!r}")
    for field in ("n_qubits", "depth", "cells"):
        if field not in doc:
            raise ParseError(f"missing field '{field}'")
    n, m, cells = doc["n_qubits"], doc["depth"], doc["cells"]
    if not isinstance(n, int) or not isinstance(m, int) or n < 1 or m < 1:
        raise ParseError("n_qubits and depth must be positive integers")
    if not isinstance(cells, list) or len(cells) != n:
        raise ParseError(f"cells must hold {n} rows")
    grid = []
    for r, row in enumerate(cells):
        if not isinstance(row, list) or len(row) != m:
            raise ParseError(f"row {r} must hold {m} cells")
        out_row = []
        for c, cell in enumerate(row):
            where = f"cells[{r}][{c}]"
            if not isinstance(cell, dict):
                raise ParseError(f"{where}: cell must be an object")
            try:
                kind = GateKind(cell["kind"])
            except (KeyError, ValueError):
                raise ParseError(f"{where}: unknown gate kind") from None
            try:
                role = Role(cell.get("role", "single"))
            except ValueError:
                raise ParseError(f"{where}: unknown role") from None
            theta = cell.get("theta")
            partner = cell.get("partner")
            if theta is not None and not isinstance(theta, (int, float)):
                raise ParseError(f"{where}: theta must be a number")
            if partner is not None and not isinstance(partner, int):
                raise ParseError(f"{where}: partner must be an integer")
            out_row.append(
                Gate(kind, role, None if theta is None else float(theta), partner)
            )
        grid.append(tuple(out_row))
    circuit = Circuit(n, tuple(grid))
    try:
        validate(circuit)
    except CircuitStructureError as exc:
        raise ParseError(str(exc)) from None
    return circuit


def export_qasm(circuit: Circuit) -> str:
    """Emit OpenQASM 2.0; one statement per placed gate, column by column."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.n_qubits}];",
    ]
    for c in range(circuit.depth):
        for r in range(circuit.n_qubits):
            g = circuit.grid[r][c]
            if g.kind.arity == 2:
                if g.role is Role.CONTROL:
                    lines.append(f"{g.kind.value} q[{r}],q[{g.partner}];")
                continue
            if g.theta is not None:
                lines.append(f"{g.kind.value}({g.theta!r}) q[{r}];")
            else:
                lines.append(f"{g.kind.value} q[{r}];")
    return "\n".join(lines) + "\n"
