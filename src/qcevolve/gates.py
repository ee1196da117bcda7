"""Gate kinds and their unitary matrices.

Conventions: RX(t) = exp(-i t X / 2), RY(t) = exp(-i t Y / 2),
RZ(t) = diag(e^{-it/2}, e^{it/2}), SX = (1/2) [[1+i, 1-i], [1-i, 1+i]].
Two-qubit matrices are written in the |control target> basis with the
control as the most significant bit.
"""
from __future__ import annotations

import enum
from math import cos, sin

import numpy as np

from .errors import ConfigurationError


class GateKind(enum.Enum):
    ID = "id"
    X = "x"
    Y = "y"
    Z = "z"
    H = "h"
    SX = "sx"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"

    def __init__(self, value: str):
        # plain attributes: a dict keyed by the member would hash it on
        # every read in the hot loops
        self.arity: int = 2 if value in ("cx", "cz") else 1
        self.parameterized: bool = value in ("rx", "ry", "rz")

    # members are singletons: identity hashing runs in C, where
    # Enum.__hash__ is a Python call on every Gate and Circuit hash
    __hash__ = object.__hash__


FULL_GATE_SET = frozenset(GateKind)

# Hardware-motivated restricted set used by the built-in experiments.
RESTRICTED_GATE_SET = frozenset(
    {GateKind.ID, GateKind.RZ, GateKind.SX, GateKind.X, GateKind.CX}
)

_SQ2 = 1.0 / np.sqrt(2.0)

_FIXED_MATRICES = {
    GateKind.ID: np.eye(2, dtype=complex),
    GateKind.X: np.array([[0, 1], [1, 0]], dtype=complex),
    GateKind.Y: np.array([[0, -1j], [1j, 0]], dtype=complex),
    GateKind.Z: np.array([[1, 0], [0, -1]], dtype=complex),
    GateKind.H: np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
    GateKind.SX: 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex),
    GateKind.CX: np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    ),
    GateKind.CZ: np.diag([1, 1, 1, -1]).astype(complex),
}
# every simulation reads these: a caller of gate_matrix must not change them
for _m in _FIXED_MATRICES.values():
    _m.flags.writeable = False


def gate_matrix(kind: GateKind, theta: float | None = None) -> np.ndarray:
    """Return the unitary matrix for `kind` (2x2 or 4x4)."""
    if kind.parameterized:
        if theta is None:
            raise ValueError(f"{kind.value} requires a rotation angle")
        c, s = cos(theta / 2.0), sin(theta / 2.0)
        if kind is GateKind.RX:
            entries = (c, -1j * s, -1j * s, c)
        elif kind is GateKind.RY:
            entries = (c, -s, s, c)
        else:
            entries = (np.exp(-0.5j * theta), 0, 0, np.exp(0.5j * theta))
        # filling an empty array stores the same values as np.array(...)
        # and costs half as much
        m = np.empty((2, 2), dtype=complex)
        m[0, 0], m[0, 1], m[1, 0], m[1, 1] = entries
        return m
    if theta is not None:
        raise ValueError(f"{kind.value} takes no rotation angle")
    return _FIXED_MATRICES[kind]


_NAMED_GATE_SETS = {"full": FULL_GATE_SET, "restricted": RESTRICTED_GATE_SET}


def parse_gate_set(names: str) -> frozenset[GateKind]:
    """Parse 'full', 'restricted' or a comma-separated gate list such as
    'id,rz,sx,x,cx'."""
    named = _NAMED_GATE_SETS.get(names.strip().lower())
    if named is not None:
        return named
    kinds = set()
    for token in names.split(","):
        token = token.strip().lower()
        if not token:
            continue
        try:
            kinds.add(GateKind(token))
        except ValueError:
            valid = ",".join(k.value for k in GateKind)
            raise ConfigurationError(
                f"unknown gate '{token}' (valid: {valid})"
            ) from None
    if not kinds:
        raise ConfigurationError("gate set is empty")
    return frozenset(kinds)
