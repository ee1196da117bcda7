"""Dense statevector simulation and quantum-information quantities.

Bit ordering is little-endian: qubit k is bit k of the amplitude index
(index = sum q_k * 2^k), so in a reshaped [2]*n tensor qubit k lives on
axis n-1-k.
"""
from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache

import numpy as np

from .circuit import MAX_QUBITS, Circuit, Gate, Role, validate
from .errors import ConfigurationError
from .gates import _FIXED_MATRICES, GateKind, gate_matrix


def zero_state(n_qubits: int) -> np.ndarray:
    """The |0...0> statevector on `n_qubits` qubits."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(f"n_qubits {n_qubits} out of range [1, {MAX_QUBITS}]")
    state = np.zeros(2**n_qubits, dtype=complex)
    state[0] = 1.0
    return state


def n_qubits_of(state: np.ndarray) -> int:
    n = len(state).bit_length() - 1
    if n < 0 or 2**n != len(state):
        raise ValueError(f"statevector length {len(state)} is not a power of two")
    return n


# The kernels take one state (2**n,) or a C-contiguous stack (batch, 2**n)
# and return the same shape; each row is updated exactly as it would be alone.


@cache
def _pair_indices(n: int, control: int, target: int) -> tuple[tuple, tuple]:
    """Indices of a (..., 2, ..., 2) view selecting control = 1 with target
    = 0, and with target = 1."""
    i10 = [slice(None)] * n
    i10[n - 1 - control] = 1
    i11 = list(i10)
    i10[n - 1 - target] = 0
    i11[n - 1 - target] = 1
    return (Ellipsis, *i10), (Ellipsis, *i11)


def _apply_cx_fast(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    psi = state.reshape(state.shape[:-1] + (2,) * n)
    i10, i11 = _pair_indices(n, control, target)
    new = psi.copy()
    new[i10] = psi[i11]
    new[i11] = psi[i10]
    return new.reshape(state.shape)


def _apply_cz_fast(state: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    psi = state.reshape(state.shape[:-1] + (2,) * n).copy()
    psi[_pair_indices(n, control, target)[1]] *= -1
    return psi.reshape(state.shape)


# A one-qubit gate on bit q of a wide state runs as one BLAS call over the
# whole state, instead of one call per (2, 2**q) block, when q >= 2, each
# row holds at least 2**_ONE_CALL_MIN_BLOCKS_LOG2 blocks, and the state or
# stack holds at most _ONE_CALL_AMPLITUDES; `_apply_1q_fast` applies this
# rule itself, from q, the matrix's shape and the state's size. Both
# layouts give the same bits on every OpenBLAS kernel tried; for q < 2
# they do not, since the per-block calls take other code paths (zgemv, and
# zgemm's small-N tail).
# On a 13-qubit state (2 vCPUs, AVX-512) one call is faster from 64 blocks
# (q <= 6) and slower at 32, where the two transposes cost more than the
# calls they save. Beyond 2**13 amplitudes it is slower for most q: the
# extra state-sized buffer costs page faults, and from 2**15 amplitudes
# OpenBLAS splits the call across threads.
_ONE_CALL_MIN_BLOCKS_LOG2 = 6
_ONE_CALL_AMPLITUDES = 1 << 13


def _apply_1q_fast(state: np.ndarray, matrix: np.ndarray, q: int) -> np.ndarray:
    # little-endian: qubit q splits the flat index as (high, bit q, low); a
    # batch axis folds into "high", unless `matrix` is a (rows, 1, 2, 2)
    # stack of one matrix per row, which always takes the per-block layout
    blocks = state.reshape(matrix.shape[:-3] + (-1, 2, 1 << q))
    if (
        q < 2
        or state.shape[-1] >> (q + 1) < 1 << _ONE_CALL_MIN_BLOCKS_LOG2
        or state.size > _ONE_CALL_AMPLITUDES
        or matrix.ndim > 2
    ):
        return np.matmul(matrix, blocks).reshape(state.shape)
    # bit q's axis in front: one BLAS call instead of one per block
    cols = np.ascontiguousarray(blocks.transpose(1, 0, 2))
    prod = (matrix @ cols.reshape(2, -1)).reshape(cols.shape)
    new = cols.reshape(blocks.shape)  # cols' buffer, back in block order
    new.transpose(1, 0, 2)[...] = prod
    return new.reshape(state.shape)


# module globals: `_run` then makes no enum attribute lookup per gate
_ID, _CX, _CZ, _TARGET = GateKind.ID, GateKind.CX, GateKind.CZ, Role.TARGET


def _run(state: np.ndarray, n: int, cells) -> np.ndarray:
    """The one gate kernel dispatch: apply the (qubit, Gate) pairs of
    `cells` in order, skipping identities and target halves. The kernels
    stay functions: their temporaries must be freed before the next gate
    allocates, or a 13-qubit state takes page faults on every gate."""
    for q, (kind, role, theta, partner) in cells:
        if kind is _ID or role is _TARGET:
            continue
        if kind is _CX:
            state = _apply_cx_fast(state, q, partner, n)
        elif kind is _CZ:
            state = _apply_cz_fast(state, q, partner, n)
        else:
            matrix = _FIXED_MATRICES[kind] if theta is None else gate_matrix(kind, theta)
            state = _apply_1q_fast(state, matrix, q)
    return state


def apply_gate(
    state: np.ndarray,
    kind: GateKind,
    theta: float | None,
    targets: tuple[int, ...],
) -> np.ndarray:
    """Apply `kind` on `targets` (control first for CX/CZ). An identity
    returns `state` itself."""
    n = n_qubits_of(state)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate targets {targets}")
    if any(not 0 <= q < n for q in targets):
        raise ValueError(f"targets {targets} out of range for {n} qubits")
    if len(targets) != kind.arity:
        raise ValueError(f"{kind.value} needs {kind.arity} targets, got {len(targets)}")
    if kind.parameterized and theta is None:
        raise ValueError(f"{kind.value} requires a rotation angle")
    if not kind.parameterized and theta is not None:
        raise ValueError(f"{kind.value} takes no rotation angle")
    if kind.arity == 2:
        cell = Gate(kind, Role.CONTROL, partner=targets[1])
    else:
        cell = Gate(kind, Role.SINGLE, theta)
    return _run(state, n, ((targets[0], cell),))


def run_gates(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply a validated circuit to an arbitrary start state, or to each row
    of a C-contiguous (batch, 2**n) stack of them; returns the same shape."""
    cells = (rg for column in zip(*circuit.grid) for rg in enumerate(column))
    return _run(state, circuit.n_qubits, cells)


def simulate(circuit: Circuit) -> np.ndarray:
    """Run the circuit column by column from the zero state."""
    validate(circuit)
    return run_gates(zero_state(circuit.n_qubits), circuit)


# `simulate_all` stacks circuits of one shape on at most _STACK_MAX_QUBITS
# qubits. On depth-20 circuits over the full gate set (2 vCPUs, AVX-512,
# one core), stacks of 64 rows ran 2.2x (n = 2), 1.7x (n = 4), 1.5x
# (n = 6) and 1.2x (n = 8) as fast as one circuit at a time, and stacks of
# 512 rows 2.5-2.7x (n <= 4) and 1.8x (n = 6); at 6-8 qubits and up to
# 1 024 rows, cutting a stack into pieces of 2**15 amplitudes saved at most
# a few per cent. From 9 qubits, where `run_gates` takes the one-call
# layout, a stack ran at 0.7-1.0x. The limit must stay below 9 in any
# case: a stack keeps the bits of the per-block layout only.
_STACK_MAX_QUBITS = 8


def simulate_all(circuits: Sequence[Circuit]) -> Iterable[np.ndarray]:
    """`simulate` of each circuit, in order, each state with the bits
    `simulate` gives it. Every circuit is validated before any is run.
    Two or more circuits of one shape on at most _STACK_MAX_QUBITS qubits
    then run from the zero state as one (rows, 2**n) stack, the caller's
    whole list. Any other list (one circuit, mixed shapes, or wider) runs
    one circuit at a time, each when its state is read: a reader that drops
    each state before reading the next holds one state at a time."""
    for circuit in circuits:
        validate(circuit)
    if len(circuits) > 1 and len({(c.n_qubits, c.depth) for c in circuits}) == 1:
        if circuits[0].n_qubits <= _STACK_MAX_QUBITS:
            return _run_stack(circuits)
    return (run_gates(zero_state(c.n_qubits), c) for c in circuits)


def _run_stack(circuits: Sequence[Circuit]) -> np.ndarray:
    """The states of validated circuits of one shape, row i for circuit i,
    cell by cell in `run_gates` order: at each cell, the rows holding a
    one-qubit gate go through `_apply_1q_fast` with one matrix per row, which
    makes the BLAS call per (2, 2**q) block it makes for a row alone, and
    each (kind, partner) group of rows holding a control half goes through
    its kernel. Rows holding an identity or a target half are not touched:
    multiplying by I would turn -0.0 into +0.0."""
    n, depth = circuits[0].n_qubits, circuits[0].depth
    grids = [c.grid for c in circuits]
    state = np.zeros((len(grids), 1 << n), dtype=complex)
    state[:, 0] = 1.0
    for col in range(depth):
        for q in range(n):
            single, matrices, pairs = [], [], {}
            for i, grid in enumerate(grids):
                kind, role, theta, partner = grid[q][col]
                if kind is _ID or role is _TARGET:
                    continue
                if kind is _CX or kind is _CZ:
                    pairs.setdefault((kind, partner), []).append(i)
                else:
                    single.append(i)
                    matrices.append(
                        _FIXED_MATRICES[kind] if theta is None else gate_matrix(kind, theta)
                    )
            if single:
                stacked = np.array(matrices)[:, None]
                state[single] = _apply_1q_fast(state[single], stacked, q)
            for (kind, partner), group in pairs.items():
                kernel = _apply_cx_fast if kind is _CX else _apply_cz_fast
                state[group] = kernel(state[group], q, partner, n)
    return state


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 between two pure states."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return float(np.abs(np.vdot(a, b)) ** 2)


def partial_trace(state: np.ndarray, keep: set[int] | list[int]) -> np.ndarray:
    """Reduced density matrix over `keep` (little-endian over sorted keep)
    of one state (2**n,), or of each row of a (batch, 2**n) stack, giving
    (batch, d, d); each row is reduced exactly as it would be alone."""
    batch = state.shape[:-1]
    if state.ndim not in (1, 2) or 0 in batch:
        raise ValueError(
            f"partial_trace takes a state (2**n,) or a nonempty stack "
            f"(batch, 2**n), got shape {state.shape}"
        )
    n = n_qubits_of(state[0] if batch else state)
    keep = sorted(set(keep))
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    if any(not 0 <= q < n for q in keep):
        raise ValueError(f"keep {keep} out of range for {n} qubits")
    axes_keep = [n - 1 - q for q in reversed(keep)]
    axes_out = [a for a in range(n) if a not in axes_keep]
    b = len(batch)
    psi = state.reshape(batch + (2,) * n)
    psi = psi.transpose([*range(b), *(b + a for a in axes_keep + axes_out)])
    psi = psi.reshape(batch + (2 ** len(keep), -1))
    return psi @ psi.conj().swapaxes(-1, -2)


def von_neumann_entropy(rho: np.ndarray) -> float | np.ndarray:
    """Entropy -sum(lam * log2 lam) of a density matrix, in bits: a float
    for one (d, d) matrix, one entropy per matrix of a (..., d, d) stack."""
    h = rho.conj().swapaxes(-1, -2)
    # np.allclose(rho, h, atol=1e-8) at a third of its cost, except that any
    # non-finite entry fails: d - tol <= 0 is d <= tol for finite d and tol,
    # and False where an inf or nan makes either one inf or nan (inf - inf)
    with np.errstate(invalid="ignore"):
        hermitian = (np.abs(rho - h) - (1e-8 + 1e-5 * np.abs(h)) <= 0).all()
    if not hermitian:
        raise ValueError("density matrix is not Hermitian")
    lam = np.linalg.eigvalsh(rho)
    # numerical negatives and zeros become 1, whose term 1 * log2(1) is 0.0
    lam = np.where(lam > 1e-12, lam, 1.0)
    entropy = -np.sum(lam * np.log2(lam), axis=-1)
    return float(entropy) if entropy.ndim == 0 else entropy
