"""Independent reference checker for `qcevolve run` outputs.

Nothing here imports qcevolve. Gate matrices are written out from the
conventions stated in the package docs (RX(t) = exp(-i t X / 2), ...,
qubit k is bit k of the amplitude index); gates update amplitudes through
index arithmetic on the flat statevector, never through reshape or
tensordot; marginal entropies come from a Schmidt (SVD) decomposition.

`check_run_dir` re-scores one run directory and returns a list of
problems (empty when the outputs are consistent).
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-9

_S = 1.0 / math.sqrt(2.0)
_FIXED = {
    "id": ((1, 0), (0, 1)),
    "x": ((0, 1), (1, 0)),
    "y": ((0, -1j), (1j, 0)),
    "z": ((1, 0), (0, -1)),
    "h": ((_S, _S), (_S, -_S)),
    "sx": ((0.5 + 0.5j, 0.5 - 0.5j), (0.5 - 0.5j, 0.5 + 0.5j)),
}
ROTATIONS = ("rx", "ry", "rz")
TWO_QUBIT = ("cx", "cz")


def one_qubit_matrix(kind: str, theta: float | None = None) -> tuple:
    """2x2 matrix as nested tuples ((m00, m01), (m10, m11))."""
    if kind in _FIXED:
        return _FIXED[kind]
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if kind == "rx":
        return ((c, -1j * s), (-1j * s, c))
    if kind == "ry":
        return ((c, -s), (s, c))
    if kind == "rz":
        return ((complex(c, -s), 0), (0, complex(c, s)))
    raise ValueError(f"unknown one-qubit gate {kind!r}")


class Statevector:
    """Flat little-endian statevector with cached index sets per qubit."""

    def __init__(self, n_qubits: int):
        self.amps = np.zeros(1 << n_qubits, dtype=complex)
        self.amps[0] = 1.0
        self._index = np.arange(1 << n_qubits)
        self._zero = {}

    def _bit_clear(self, q: int) -> np.ndarray:
        if q not in self._zero:
            self._zero[q] = self._index[(self._index >> q) & 1 == 0]
        return self._zero[q]

    def apply_1q(self, matrix: tuple, q: int) -> None:
        i0 = self._bit_clear(q)
        i1 = i0 | (1 << q)
        a0, a1 = self.amps[i0], self.amps[i1]
        (m00, m01), (m10, m11) = matrix
        self.amps[i0] = m00 * a0 + m01 * a1
        self.amps[i1] = m10 * a0 + m11 * a1

    def apply_cx(self, control: int, target: int) -> None:
        i0 = self._bit_clear(target)
        i0 = i0[(i0 >> control) & 1 == 1]
        i1 = i0 | (1 << target)
        self.amps[i0], self.amps[i1] = self.amps[i1], self.amps[i0]

    def apply_cz(self, control: int, target: int) -> None:
        both = self._index[((self._index >> control) & (self._index >> target) & 1) == 1]
        self.amps[both] *= -1


def parse_circuit(text: str) -> tuple[int, list[list[dict]]]:
    """Parse and structurally check a circuit document; returns (n, cells)
    with cells[row][col] = {"kind", "role", "theta"?, "partner"?}."""
    doc = json.loads(text)
    n, depth, cells = doc["n_qubits"], doc["depth"], doc["cells"]
    if len(cells) != n or any(len(row) != depth for row in cells):
        raise ValueError("grid shape disagrees with n_qubits x depth")
    for r in range(n):
        for c in range(depth):
            g = cells[r][c]
            kind = g["kind"]
            if (kind in ROTATIONS) != ("theta" in g):
                raise ValueError(f"cell ({r}, {c}): theta iff rotation")
            if kind in TWO_QUBIT:
                p = g.get("partner")
                if not isinstance(p, int) or not 0 <= p < n or p == r:
                    raise ValueError(f"cell ({r}, {c}): bad partner")
                q = cells[p][c]
                if (
                    q["kind"] != kind
                    or q.get("partner") != r
                    or {q["role"], g["role"]} != {"control", "target"}
                ):
                    raise ValueError(f"cell ({r}, {c}): unmatched pair")
            elif kind in _FIXED or kind in ROTATIONS:
                if g.get("role", "single") != "single" or "partner" in g:
                    raise ValueError(f"cell ({r}, {c}): one-qubit gate with pair data")
            else:
                raise ValueError(f"cell ({r}, {c}): unknown gate {kind!r}")
    return n, cells


def gate_list(n: int, cells: list[list[dict]]) -> list[tuple]:
    """Placed gates column by column: (kind, theta, qubits), control first."""
    gates = []
    for c in range(len(cells[0])):
        for r in range(n):
            g = cells[r][c]
            if g["kind"] in TWO_QUBIT:
                if g["role"] == "control":
                    gates.append((g["kind"], None, (r, g["partner"])))
            else:
                gates.append((g["kind"], g.get("theta"), (r,)))
    return gates


def run_gates(sv: Statevector, gates: list[tuple]) -> np.ndarray:
    for kind, theta, qubits in gates:
        if kind == "id":
            continue
        if kind == "cx":
            sv.apply_cx(*qubits)
        elif kind == "cz":
            sv.apply_cz(*qubits)
        else:
            sv.apply_1q(one_qubit_matrix(kind, theta), qubits[0])
    return sv.amps


def simulate(n: int, cells: list[list[dict]]) -> np.ndarray:
    return run_gates(Statevector(n), gate_list(n, cells))


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    return float(abs(np.vdot(a, b)) ** 2)


def marginal_entropy(amps: np.ndarray, q: int) -> float:
    """Entropy in bits of qubit q's reduced state, from the singular values
    of the 2 x 2^(n-1) matrix that splits the index on bit q."""
    index = np.arange(len(amps))
    i0 = index[(index >> q) & 1 == 0]
    split = np.vstack([amps[i0], amps[i0 | (1 << q)]])
    p = np.linalg.svd(split, compute_uv=False) ** 2
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log2(p)))


def entanglement(amps: np.ndarray, n: int) -> float:
    return sum(marginal_entropy(amps, q) for q in range(n)) / n


def ml_accuracy_range(
    n: int, cells: list[list[dict]], features: np.ndarray, labels: np.ndarray
) -> tuple[float, float]:
    """Accuracy of the <Z_0> classifier (label 0 iff <Z_0> >= 0) after the
    angle encoding RX(pi x_j) on qubit j. Samples whose <Z_0> lies within
    TOL of zero may round either way; the range covers both outcomes."""
    gates = gate_list(n, cells)
    z_sign = 1.0 - 2.0 * (np.arange(1 << n) & 1)
    sure = unsure = 0
    for x, label in zip(features, labels):
        sv = Statevector(n)
        for j, xj in enumerate(x):
            sv.apply_1q(one_qubit_matrix("rx", math.pi * float(xj)), j)
        z = float(np.dot(np.abs(run_gates(sv, gates)) ** 2, z_sign))
        if abs(z) <= TOL:
            unsure += 1
        elif int(z < 0) == int(label):
            sure += 1
    total = len(labels)
    return sure / total, (sure + unsure) / total


def read_statevector(path: Path) -> np.ndarray:
    amps = [complex(*map(float, line.split())) for line in path.read_text().split("\n") if line]
    return np.array(amps, dtype=complex)


def check_qasm(text: str, gates: list[tuple]) -> list[str]:
    lines = [ln for ln in text.split("\n") if ln]
    if lines[:2] != ["OPENQASM 2.0;", 'include "qelib1.inc";']:
        return ["qasm header missing"]
    body = lines[3:]
    if len(body) != len(gates):
        return [f"qasm has {len(body)} statements for {len(gates)} placed gates"]
    for stmt, (kind, theta, qubits) in zip(body, gates):
        operands = ",".join(f"q[{q}]" for q in qubits)
        expect = f"{kind}({theta!r}) {operands};" if theta is not None else f"{kind} {operands};"
        if stmt != expect:
            return [f"qasm statement {stmt!r} != {expect!r}"]
    return []


def check_trace(path: Path, generations: int) -> tuple[list[str], float, float]:
    """Returns (problems, max GA best, max baseline best)."""
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != generations + 1:
        problems.append(f"{path.name}: {len(rows)} rows, expected {generations + 1}")
    best = [float(r["best_fitness"]) for r in rows]
    base = [float(r["baseline_best_fitness"]) for r in rows]
    if any(b < a for a, b in zip(best, best[1:])):
        problems.append(f"{path.name}: GA best decreases")
    if any(b < a for a, b in zip(base, base[1:])):
        problems.append(f"{path.name}: baseline best-so-far decreases")
    return problems, max(best), max(base)


def read_summary(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def check_run_dir(
    run_dir: Path,
    summary_row: dict,
    fitness: str,
    generations: int,
    target: np.ndarray | None = None,
    dataset: tuple[np.ndarray, np.ndarray] | None = None,
) -> list[str]:
    """Re-score one target x repeat run directory against its summary row.

    `target` is the expected target state (fitness "fidelity"); `dataset`
    is (features, labels) for fitness "ml".
    """
    where = run_dir.name
    try:
        n, cells = parse_circuit((run_dir / "best_circuit.json").read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"{where}: best_circuit.json rejected: {exc}"]
    problems = [f"{where}: {p}" for p in check_qasm(
        (run_dir / "best_circuit.qasm").read_text(), gate_list(n, cells)
    )]
    trace_problems, trace_best, trace_base = check_trace(run_dir / "trace.csv", generations)
    problems += [f"{where}: {p}" for p in trace_problems]
    reported = float(summary_row["best_fitness"])
    if abs(reported - trace_best) > TOL:
        problems.append(f"{where}: summary best {reported!r} != trace best {trace_best!r}")
    if abs(float(summary_row["baseline_best_fitness"]) - trace_base) > TOL:
        problems.append(f"{where}: summary baseline disagrees with trace")

    if fitness == "fidelity":
        written = read_statevector(run_dir / "target_state.txt")
        if len(written) != len(target) or np.max(np.abs(written - target)) > TOL:
            problems.append(f"{where}: target_state.txt differs from the expected target")
        if len(target) != 1 << n:
            return problems + [f"{where}: circuit width {n} does not fit the target"]
        lo = hi = fidelity(simulate(n, cells), target)
    elif fitness == "entanglement":
        lo = hi = entanglement(simulate(n, cells), n)
    elif fitness == "ml":
        features, labels = dataset
        lo, hi = ml_accuracy_range(n, cells, features, labels)
        k = reported * len(labels)
        if abs(k - round(k)) > TOL * len(labels):
            problems.append(f"{where}: accuracy {reported!r} is not a multiple of 1/{len(labels)}")
    else:
        raise ValueError(f"unknown fitness {fitness!r}")
    if not lo - TOL <= reported <= hi + TOL:
        problems.append(f"{where}: reported best {reported!r}, reference {lo!r}")
    if not -TOL <= reported <= 1.0 + TOL:
        problems.append(f"{where}: best fitness {reported!r} outside [0, 1]")
    return problems
