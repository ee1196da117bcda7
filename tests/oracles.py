"""Independent brute-force oracles used to cross-check the simulator,
circuit repair and the statevector files.

The simulator oracles build explicit full-dimension matrices by index
arithmetic and never go through the package's gate-application path; the
repair oracle follows `repair`'s docstring rule by rule with its own pair
test; the draw oracles build circuits cell by cell from the doubles
`random_circuits` documents, and give the exact probability of each
column by enumerating the process it documents; the file oracles format
and parse one amplitude at a time.
"""
from __future__ import annotations

import math
from math import pi
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import numpy as np

from qcevolve.circuit import Circuit, Gate, Role
from qcevolve.gates import GateKind, gate_matrix


def embed_unitary(matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Full 2^n x 2^n operator for `matrix` acting on `qubits`.

    Little-endian global indices; the matrix row index uses qubits[0] as
    its most significant bit.
    """
    k = len(qubits)
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        sub_in = 0
        for j, q in enumerate(qubits):
            sub_in |= ((i >> q) & 1) << (k - 1 - j)
        for sub_out in range(2**k):
            amp = matrix[sub_out, sub_in]
            if amp == 0:
                continue
            out = i
            for j, q in enumerate(qubits):
                bit = (sub_out >> (k - 1 - j)) & 1
                out = (out & ~(1 << q)) | (bit << q)
            full[out, i] += amp
    return full


def circuit_unitary(circuit: Circuit) -> np.ndarray:
    """Product of explicitly embedded column gates, left to right."""
    n = circuit.n_qubits
    total = np.eye(2**n, dtype=complex)
    for c in range(circuit.depth):
        for r in range(n):
            g = circuit.grid[r][c]
            if g.kind is GateKind.ID:
                continue
            if g.kind.arity == 2:
                if g.role is not Role.CONTROL:
                    continue
                full = embed_unitary(gate_matrix(g.kind), (r, g.partner), n)
            else:
                full = embed_unitary(gate_matrix(g.kind, g.theta), (r,), n)
            total = full @ total
    return total


def simulate_oracle(circuit: Circuit) -> np.ndarray:
    state = np.zeros(2**circuit.n_qubits, dtype=complex)
    state[0] = 1.0
    return circuit_unitary(circuit) @ state


def partial_trace_oracle(state: np.ndarray, keep: list[int]) -> np.ndarray:
    """Reduced density matrix via the full |psi><psi| and index summation."""
    n = int(np.log2(len(state)))
    keep = sorted(keep)
    out = [q for q in range(n) if q not in keep]
    d_keep = 2 ** len(keep)
    rho_full = np.outer(state, state.conj())
    rho = np.zeros((d_keep, d_keep), dtype=complex)

    def global_index(kept_bits: int, traced_bits: int) -> int:
        idx = 0
        for j, q in enumerate(keep):
            idx |= ((kept_bits >> j) & 1) << q
        for j, q in enumerate(out):
            idx |= ((traced_bits >> j) & 1) << q
        return idx

    for a in range(d_keep):
        for b in range(d_keep):
            for t in range(2 ** len(out)):
                rho[a, b] += rho_full[global_index(a, t), global_index(b, t)]
    return rho


def repair_oracle(circuit: Circuit, rng: np.random.Generator) -> Circuit:
    """`repair` as its docstring states it, on a row-major copy of the grid."""
    n = circuit.n_qubits
    grid = [list(row) for row in circuit.grid]
    roles = {Role.CONTROL, Role.TARGET}

    def intact(r: int, c: int) -> bool:
        g = grid[r][c]
        if g.partner not in range(n) or g.partner == r:
            return False
        other = grid[g.partner][c]
        return other.kind is g.kind and other.partner == r and {g.role, other.role} == roles

    for c in range(circuit.depth):
        for r in range(n):
            g = grid[r][c]
            if g.kind.arity != 2 or intact(r, c):
                continue
            role = g.role if g.role in roles else Role.CONTROL
            (other_role,) = roles - {role}
            identities = [i for i in range(n) if i != r and grid[i][c].kind is GateKind.ID]
            if identities:
                partner = min(identities, key=lambda i: (abs(i - r), i))
            else:
                rows = [
                    i for i in range(n)
                    if i != r and not (grid[i][c].kind.arity == 2 and intact(i, c))
                ]
                if not rows:
                    grid[r][c] = Gate((GateKind.ID, GateKind.X, GateKind.H)[rng.integers(3)])
                    continue
                partner = rows[rng.integers(len(rows))]
            grid[r][c] = Gate(g.kind, role, partner=partner)
            grid[partner][c] = Gate(g.kind, other_role, partner=r)
    return Circuit(n, tuple(map(tuple, grid)))


def draw_oracle(count: int, n: int, depth: int, gate_set, rng) -> list[Circuit]:
    """The circuits `random_circuits` documents, built one cell at a time
    in Python from the same `rng.random((count, depth, n, 5))` doubles."""
    one = sorted((k for k in gate_set if k.arity == 1), key=lambda k: k.value)
    every = one + sorted((k for k in gate_set if k.arity == 2), key=lambda k: k.value)
    circuits = []
    for doubles in rng.random((count, depth, n, 5)).tolist():
        columns = []
        for column in doubles:
            order = sorted(range(n), key=lambda r: column[r][0])  # a stable sort
            cells: list = [None] * n
            for i, r in enumerate(order):
                if cells[r] is not None:
                    continue
                _, kind_u, partner_u, coin_u, angle_u = column[r]
                free = [q for q in order[i + 1 :] if cells[q] is None]
                kinds = every if free else one
                if not kinds:
                    cells[r] = Gate(GateKind.ID)
                    continue
                kind = kinds[int(kind_u * len(kinds))]
                if kind.arity == 1:
                    theta = -pi + 2 * pi * angle_u if kind.parameterized else None
                    cells[r] = Gate(kind, theta=theta)
                    continue
                other = free[int(partner_u * len(free))]
                ctrl, tgt = (r, other) if coin_u < 0.5 else (other, r)
                cells[ctrl] = Gate(kind, Role.CONTROL, partner=tgt)
                cells[tgt] = Gate(kind, Role.TARGET, partner=ctrl)
            columns.append(cells)
        circuits.append(Circuit(n, tuple(zip(*columns))))
    return circuits


def column_distribution(n: int, gate_set) -> dict[tuple, Fraction]:
    """The exact probability of every column of n rows that a draw from
    `gate_set` can give, angles aside, as `random_circuits` documents the
    draw: rows are visited in a uniformly random order, so the next row
    visited is uniform over the rows neither visited nor claimed; it draws
    its kind uniformly from the set, or from the one-qubit kinds when no
    other such row is left (identity when there are none); a two-qubit
    kind takes a uniformly drawn one of those rows as its partner, and a
    fair coin picks the control. A column is a tuple of
    (kind value, role value, partner) per row."""
    one = [k for k in gate_set if k.arity == 1]
    every = one + [k for k in gate_set if k.arity == 2]
    found: dict[tuple, Fraction] = defaultdict(Fraction)

    def visit(free: frozenset, cells: dict, p: Fraction) -> None:
        if not free:
            found[tuple(cells[r] for r in range(n))] += p
            return
        for r in free:
            rest = free - {r}
            kinds = every if rest else one
            if not kinds:
                visit(rest, {**cells, r: ("id", "single", None)}, p / len(free))
                continue
            for k in kinds:
                pk = p / len(free) / len(kinds)
                if k.arity == 1:
                    visit(rest, {**cells, r: (k.value, "single", None)}, pk)
                    continue
                for other in rest:
                    for ctrl, tgt in ((r, other), (other, r)):
                        pair = {ctrl: (k.value, "control", tgt), tgt: (k.value, "target", ctrl)}
                        visit(rest - {other}, {**cells, **pair}, pk / len(rest) / 2)

    visit(frozenset(range(n)), {}, Fraction(1))
    return dict(found)


def statevector_text_oracle(state: np.ndarray) -> str:
    """Statevector file text, one amplitude formatted at a time."""
    return "".join(f"{amp.real:.17g} {amp.imag:.17g}\n" for amp in state)


def read_statevector_oracle(path) -> np.ndarray | str:
    """The amplitudes of a statevector file, parsed line by line, or the
    message that rejects it."""
    amps = []
    for line_no, line in enumerate(Path(path).read_text().splitlines(), start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            return f"{path}:{line_no}: expected 're im'"
        try:
            re, im = float(parts[0]), float(parts[1])
        except ValueError:
            return f"{path}:{line_no}: not numeric"
        if not (math.isfinite(re) and math.isfinite(im)):
            return f"{path}:{line_no}: amplitude is not finite"
        amps.append(complex(re, im))
    if not amps or len(amps) & (len(amps) - 1):
        return f"{path}: amplitude count {len(amps)} is not a power of two"
    state = np.array(amps)
    norm = float(np.vdot(state, state).real)
    if abs(norm - 1.0) > 1e-6:
        return f"{path}: squared norm {norm:.17g} is not within 1e-06 of 1"
    return state
