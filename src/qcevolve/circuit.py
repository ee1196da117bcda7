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
from functools import cache
from math import inf, isfinite, pi
from operator import length_hint
from typing import NamedTuple

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


class Gate(NamedTuple):
    """One placed gate cell: an immutable named tuple, so a circuit hashes
    in C. `_replace` returns a copy with fields changed, at about twice the
    cost of a direct `Gate(kind, role, theta, partner)`: hot paths build
    the cell directly."""

    kind: GateKind
    role: Role = Role.SINGLE
    theta: float | None = None
    partner: int | None = None


@cache
def shared_cell(
    kind: GateKind, role: Role = Role.SINGLE, partner: int | None = None
) -> Gate:
    """A shared Gate for a cell without an angle: cells are immutable, so
    circuits need not build their own. The cache holds one entry per kind,
    role and partner row."""
    return Gate(kind, role, partner=partner)


IDENTITY = shared_cell(GateKind.ID)


class Circuit(NamedTuple):
    """An immutable n_qubits x depth grid of gate cells: a named tuple, so
    it hashes, compares and pickles as the tuple of its fields."""

    n_qubits: int
    grid: tuple[tuple[Gate, ...], ...]  # grid[row][col]

    @property
    def depth(self) -> int:
        return len(self.grid[0]) if self.grid else 0

    def column(self, col: int) -> tuple[Gate, ...]:
        return tuple(self.grid[row][col] for row in range(self.n_qubits))


def from_columns(n_qubits: int, columns: list[tuple[Gate, ...]]) -> Circuit:
    return Circuit(n_qubits, tuple(zip(*columns)))


_CONTROL, _TARGET = Role.CONTROL, Role.TARGET


def _intact(cells: Sequence[Gate], row: int) -> bool:
    """Whether the two-qubit cell cells[row] and its partner's cell name each
    other, hold one kind and hold the control and the target role."""
    g = cells[row]
    p = g.partner
    if p is None or not 0 <= p < len(cells) or p == row:
        return False
    other = cells[p]
    return (
        other.kind is g.kind
        and other.partner == row
        and (
            (g.role is _CONTROL and other.role is _TARGET)
            or (g.role is _TARGET and other.role is _CONTROL)
        )
    )


def _pair_problem(
    columns: Sequence[Sequence[Gate]], row: int, col: int
) -> str | None:
    """What is wrong with the two-qubit cell columns[col][row] and its
    partner, or None when the pair is intact (or the cell is one-qubit)."""
    cells = columns[col]
    g = cells[row]
    if g.kind.arity != 2 or _intact(cells, row):
        return None
    if g.role not in (Role.CONTROL, Role.TARGET):
        return "two-qubit gate needs a control/target role"
    if g.partner is None or not (0 <= g.partner < len(cells)) or g.partner == row:
        return "invalid partner row"
    return f"partner cell ({g.partner}, {col}) does not match"


def validate(circuit: Circuit) -> None:
    """Raise CircuitStructureError naming the first offending cell."""
    n, m = circuit.n_qubits, circuit.depth
    if n < 1 or n > MAX_QUBITS:
        raise CircuitStructureError(f"n_qubits {n} out of range [1, {MAX_QUBITS}]")
    if len(circuit.grid) != n:
        raise CircuitStructureError(f"{len(circuit.grid)} rows for {n} qubits")
    if m < 1:
        raise CircuitStructureError("circuit has no columns")
    if any(len(row) != m for row in circuit.grid):
        raise CircuitStructureError("ragged grid")
    columns = tuple(zip(*circuit.grid))
    for r, row in enumerate(circuit.grid):
        for c, g in enumerate(row):
            kind = g.kind
            if kind.parameterized != (g.theta is not None):
                raise CircuitStructureError(
                    f"cell ({r}, {c}): theta must be present iff gate is parameterized"
                )
            if kind.arity == 1:
                if g.role is not Role.SINGLE or g.partner is not None:
                    raise CircuitStructureError(
                        f"cell ({r}, {c}): one-qubit gate with two-qubit metadata"
                    )
            else:
                # every earlier row passed: an intact first half that names
                # this row as its partner vouches for this half
                p = g.partner
                if p is not None and 0 <= p < r and columns[c][p].partner == r:
                    continue
                problem = _pair_problem(columns, r, c)
                if problem is not None:
                    raise CircuitStructureError(f"cell ({r}, {c}): {problem}")


def _with_cells(circuit: Circuit, cells: dict[tuple[int, int], Gate]) -> Circuit:
    """A copy of `circuit` whose cell (row, col) is `cells[row, col]` for
    every key of `cells`."""
    grid = [list(row) for row in circuit.grid]
    for (r, c), g in cells.items():
        grid[r][c] = g
    return Circuit(circuit.n_qubits, tuple(tuple(row) for row in grid))


# the kinds a cell draws from: (one-qubit kinds, all kinds), each sorted by
# name; the second is the first when the set has no two-qubit kind
_DrawTable = tuple[tuple[GateKind, ...], tuple[GateKind, ...]]


@cache
def _draw_table(gate_set: frozenset[GateKind]) -> _DrawTable:
    """The draw table of a gate set, built once per set."""
    kinds = sorted(gate_set, key=lambda k: k.value)
    one_q = tuple(k for k in kinds if k.arity == 1)
    two_q = tuple(k for k in kinds if k.arity == 2)
    return one_q, one_q + two_q if two_q else one_q


def _draw_gate(
    cells: list[Gate | None],
    row: int,
    free: list[int],
    table: _DrawTable,
    rng: np.random.Generator,
) -> None:
    """Place a random gate on `row` of the column `cells`: a one-qubit kind,
    or a two-qubit kind whose partner row is popped from `free`; identity
    when no kind can be drawn."""
    choices = table[1] if free else table[0]
    if not choices:
        cells[row] = IDENTITY
        return
    kind = choices[rng.integers(len(choices))]
    if kind.arity == 1:
        if kind.parameterized:
            cells[row] = Gate(kind, Role.SINGLE, float(rng.uniform(-pi, pi)))
        else:
            cells[row] = shared_cell(kind)
    else:
        other = free.pop(rng.integers(len(free)))
        ctrl, tgt = (row, other) if rng.random() < 0.5 else (other, row)
        cells[ctrl] = shared_cell(kind, Role.CONTROL, tgt)
        cells[tgt] = shared_cell(kind, Role.TARGET, ctrl)


class _PCG64Draws:
    """The draws random_column and _draw_gate take from a Generator over
    PCG64, served from blocks of the bit generator's raw 64-bit words.

    A call to a Generator method costs many times the word it draws. Each
    method below rebuilds the algorithm of numpy's C code in Python, so it
    returns the values numpy would return from the same state:
    - `integers(k)`: Lemire's method on the next 32-bit half word, with no
      draw for k == 1;
    - `random()`: the top 53 bits of a word times 2**-53;
    - `uniform(lo, hi)`: lo + (hi - lo) * random();
    - `shuffle(x)` on a list: Fisher-Yates from the back, each index drawn
      from a half word under the smallest covering bit mask, rejected and
      drawn again while above its bound.
    A half word is the low 32 bits of a fresh word; the high 32 bits wait
    in the generator's `has_uint32`/`uinteger` buffer for the next one,
    which carries across calls, and a 64-bit draw leaves it alone.

    As a context manager it takes the generator's state on entry and, on
    exit, restores it with the buffer as the draws left it and skips the
    words they used: the generator is then exactly where numpy's own calls
    would have left it. The generator must not be drawn from in between.
    """

    __slots__ = ("_bg", "_state", "_block", "_words", "_read", "_has32", "_half")

    def __init__(self, rng: np.random.Generator, block: int):
        self._bg = rng.bit_generator
        self._block = block

    def __enter__(self) -> _PCG64Draws:
        state = self._state = self._bg.state
        self._has32 = state["has_uint32"]
        self._half = state["uinteger"]
        self._read = 0
        self._words = iter(())
        return self

    def __exit__(self, *exc) -> None:
        state = self._state
        state["has_uint32"] = self._has32
        state["uinteger"] = self._half
        self._bg.state = state
        self._bg.random_raw(self._read - length_hint(self._words), False)

    def _word(self) -> int:
        try:
            return next(self._words)
        except StopIteration:
            self._words = iter(self._bg.random_raw(self._block).tolist())
            self._read += self._block
            return next(self._words)

    def _next32(self) -> int:
        if self._has32:
            self._has32 = 0
            return self._half
        w = self._word()
        self._has32 = 1
        self._half = w >> 32
        return w & 0xFFFFFFFF

    def integers(self, k: int) -> int:
        if k == 1:
            return 0
        m = self._next32() * k
        if m & 0xFFFFFFFF < k:
            threshold = 0x100000000 % k
            while m & 0xFFFFFFFF < threshold:
                m = self._next32() * k
        return m >> 32

    def random(self) -> float:
        return (self._word() >> 11) * 2.0**-53

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def shuffle(self, x: list) -> None:
        for i in reversed(range(1, len(x))):
            mask = (1 << i.bit_length()) - 1
            j = self._next32() & mask
            while j > i:
                j = self._next32() & mask
            x[i], x[j] = x[j], x[i]


def random_column(
    n_qubits: int, table: _DrawTable, rng: np.random.Generator
) -> tuple[Gate, ...]:
    """Fill one column: two-qubit gates claim two free rows, the rest get
    one-qubit gates (identity when no one-qubit kind is configured)."""
    cells: list[Gate | None] = [None] * n_qubits
    # the same draws as rng.permutation(n_qubits), without the array
    free = list(range(n_qubits))
    rng.shuffle(free)
    while free:
        _draw_gate(cells, free.pop(), free, table, rng)
    return tuple(cells)  # type: ignore[arg-type]


def check_gate_set(
    gate_set: frozenset[GateKind], n_qubits: int, name: str = "gate set"
) -> None:
    """ConfigurationError, naming the set as `name`, unless `random_circuit`
    can draw n_qubits-wide circuits from `gate_set`: it is nonempty, and
    holds a one-qubit kind when n_qubits < 2."""
    if not gate_set:
        raise ConfigurationError(f"{name} is empty")
    if n_qubits < 2 and all(k.arity == 2 for k in gate_set):
        raise ConfigurationError(
            f"{name} contains only two-qubit gates but n_qubits < 2"
        )


def random_circuit(
    n_qubits: int,
    depth: int,
    gate_set: frozenset[GateKind],
    rng: np.random.Generator,
) -> Circuit:
    """Draw a valid circuit from `gate_set`, column by column: each column
    visits its rows in a random order, and a free row draws its kind
    uniformly from the set (two-qubit kinds only while another row is
    free), a rotation angle uniformly from [-pi, pi), and a two-qubit kind
    a uniformly drawn free partner row and a fair coin for which row is
    the control. Not uniform over valid circuits.

    From a Generator over PCG64 the draws come from _PCG64Draws: the same
    numbers, and the same generator state afterwards, for less."""
    if n_qubits < 1 or n_qubits > MAX_QUBITS:
        raise ConfigurationError(f"n_qubits {n_qubits} out of range")
    if depth < 1:
        raise ConfigurationError(f"depth {depth} must be >= 1")
    check_gate_set(gate_set, n_qubits)
    table = _draw_table(gate_set)
    if type(rng) is np.random.Generator and type(rng.bit_generator) is np.random.PCG64:
        with _PCG64Draws(rng, 2 * n_qubits * depth) as draws:
            cols = [random_column(n_qubits, table, draws) for _ in range(depth)]
    else:
        cols = [random_column(n_qubits, table, rng) for _ in range(depth)]
    return from_columns(n_qubits, cols)


def pad_to(circuit: Circuit, n_qubits: int, depth: int) -> Circuit:
    """Grow the grid with identity cells, anchoring existing gates top-left."""
    if n_qubits < circuit.n_qubits or depth < circuit.depth:
        raise ValueError(
            f"pad_to cannot shrink {circuit.n_qubits}x{circuit.depth} "
            f"to {n_qubits}x{depth}"
        )
    if n_qubits == circuit.n_qubits and depth == circuit.depth:
        return circuit
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


_REPAIR_TABLE = ((GateKind.ID, GateKind.X, GateKind.H),) * 2


def repair(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """Complete dangling halves of two-qubit gates.

    Columns are visited left to right and each column's rows from row 0,
    on the cells as repaired so far. A two-qubit cell dangles unless its
    partner is another row of the column whose cell holds the same kind,
    names this row as its partner and has the other one of the control and
    target roles. A dangling cell keeps its role (any other role becomes
    control); its new partner, which takes the same kind and the other
    role, is the nearest identity cell in the same column (ties toward the
    lower row index), else the row drawn by `rng.integers(k)` from the k
    other rows, in order, that hold no intact pair half; that row's gate is
    overwritten. When no row is left (a single-row grid, or every other
    row holds an intact pair half), the dangling cell becomes ID, X or H,
    drawn by `rng.integers(3)` in that order. A valid circuit comes back
    equal, and draws nothing.
    """
    n = circuit.n_qubits
    columns = [list(col) for col in zip(*circuit.grid)]
    for cells in columns:
        for r in range(n):
            g = cells[r]
            if g.kind.arity == 1 or _intact(cells, r):
                continue
            if n == 1:
                _draw_gate(cells, r, [], _REPAIR_TABLE, rng)
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
                    and (cells[i].kind.arity == 1 or not _intact(cells, i))
                ]
                if not others:
                    # every other row holds a valid pair: no partner exists
                    _draw_gate(cells, r, [], _REPAIR_TABLE, rng)
                    continue
                p = others[rng.integers(len(others))]
            partner_role = Role.TARGET if role is Role.CONTROL else Role.CONTROL
            cells[r] = shared_cell(g.kind, role, p)
            cells[p] = shared_cell(g.kind, partner_role, r)
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


def _is_int(value) -> bool:
    """A JSON integer: `true` and `false` load as bools, which are ints too."""
    return isinstance(value, int) and not isinstance(value, bool)


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
    if not _is_int(n) or not _is_int(m) or n < 1 or m < 1:
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
            if theta is not None:
                if not (_is_int(theta) or isinstance(theta, float)):
                    raise ParseError(f"{where}: theta must be a number")
                try:
                    theta = float(theta)
                except OverflowError:  # an integer past the float range
                    theta = inf
                if not isfinite(theta):
                    raise ParseError(f"{where}: theta must be finite")
            if partner is not None and not _is_int(partner):
                raise ParseError(f"{where}: partner must be an integer")
            out_row.append(Gate(kind, role, theta, partner))
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
