"""Dense statevector simulation and quantum-information quantities.

Bit ordering is little-endian: qubit k is bit k of the amplitude index
(index = sum q_k * 2^k), so in a reshaped [2]*n tensor qubit k lives on
axis n-1-k.
"""
from __future__ import annotations

from functools import cache

import numpy as np

from .circuit import MAX_QUBITS, Circuit, Role, validate
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


# `_apply` runs a one-qubit gate on bit q of a wide state as one BLAS call
# over the whole state, instead of one call per (2, 2**q) block, when q >= 2,
# each row holds at least 2**_ONE_CALL_MIN_BLOCKS_LOG2 blocks, and the state
# or stack holds at most _ONE_CALL_AMPLITUDES. Both layouts give the same
# bits on every OpenBLAS kernel tried; for q < 2 they do not, since the
# per-block calls take other code paths (zgemv, and zgemm's small-N tail).
# On a 13-qubit state (2 vCPUs, AVX-512) one call is faster from 64 blocks
# (q <= 6) and slower at 32, where the two transposes cost more than the
# calls they save. Beyond 2**13 amplitudes it is slower for most q: the
# extra state-sized buffer costs page faults, and from 2**15 amplitudes
# OpenBLAS splits the call across threads.
_ONE_CALL_MIN_BLOCKS_LOG2 = 6
_ONE_CALL_AMPLITUDES = 1 << 13


def _apply(
    state: np.ndarray,
    n: int,
    kind: GateKind,
    theta: float | None,
    q: int,
    partner: int | None = None,
) -> np.ndarray:
    """The one gate kernel dispatch: `kind` on qubit `q`, the control of a
    CX or CZ whose target is `partner`. Fixed one-qubit matrices come from
    the table; only rotations are built."""
    if kind is GateKind.CX:
        return _apply_cx_fast(state, q, partner, n)
    if kind is GateKind.CZ:
        return _apply_cz_fast(state, q, partner, n)
    matrix = gate_matrix(kind, theta) if kind.parameterized else _FIXED_MATRICES[kind]
    # little-endian: qubit q splits the flat index as (high, bit q, low);
    # a batch axis folds into "high"
    if 2 <= q < n - _ONE_CALL_MIN_BLOCKS_LOG2 and state.size <= _ONE_CALL_AMPLITUDES:
        # bit q's axis in front: one BLAS call instead of one per block
        blocks = state.reshape(-1, 2, 1 << q)
        cols = np.ascontiguousarray(blocks.transpose(1, 0, 2))
        prod = (matrix @ cols.reshape(2, -1)).reshape(cols.shape)
        new = cols.reshape(blocks.shape)  # cols' buffer, back in block order
        new.transpose(1, 0, 2)[...] = prod
        return new.reshape(state.shape)
    return np.matmul(matrix, state.reshape(-1, 2, 1 << q)).reshape(state.shape)


def apply_gate(
    state: np.ndarray,
    kind: GateKind,
    theta: float | None,
    targets: tuple[int, ...],
) -> np.ndarray:
    """Apply `kind` on `targets` (control first for CX/CZ)."""
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
    return _apply(state, n, kind, theta, *targets)


def run_gates(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """Apply a validated circuit to an arbitrary start state, or to each row
    of a C-contiguous (batch, 2**n) stack of them; returns the same shape."""
    n = circuit.n_qubits
    for column in zip(*circuit.grid):
        for r, g in enumerate(column):
            if g.kind is not GateKind.ID and g.role is not Role.TARGET:
                state = _apply(state, n, g.kind, g.theta, r, g.partner)
    return state


def simulate(circuit: Circuit) -> np.ndarray:
    """Run the circuit column by column from the zero state."""
    validate(circuit)
    return run_gates(zero_state(circuit.n_qubits), circuit)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Squared overlap |<a|b>|^2 between two pure states."""
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return float(np.abs(np.vdot(a, b)) ** 2)


def partial_trace(state: np.ndarray, keep: set[int] | list[int]) -> np.ndarray:
    """Reduced density matrix over `keep` (little-endian over sorted keep)."""
    n = n_qubits_of(state)
    keep = sorted(set(keep))
    if not keep or len(keep) >= n:
        raise ValueError("keep must be a nonempty proper subset of the qubits")
    if any(not 0 <= q < n for q in keep):
        raise ValueError(f"keep {keep} out of range for {n} qubits")
    axes_keep = [n - 1 - q for q in reversed(keep)]
    axes_out = [a for a in range(n) if a not in axes_keep]
    psi = state.reshape([2] * n).transpose(axes_keep + axes_out)
    psi = psi.reshape(2 ** len(keep), -1)
    return psi @ psi.conj().T


def von_neumann_entropy(rho: np.ndarray) -> float:
    """Entropy -sum(lam * log2 lam) of a density matrix, in bits."""
    if not np.allclose(rho, rho.conj().T, atol=1e-8):
        raise ValueError("density matrix is not Hermitian")
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > 1e-12]  # clamp numerical negatives / zeros
    return float(-np.sum(lam * np.log2(lam)))
