import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# no deadline: a shared host can stall any single example. CI selects
# "ci" (--hypothesis-profile=ci): the same examples on every run.
settings.register_profile("default", deadline=None)
settings.register_profile("ci", deadline=None, derandomize=True, print_blob=True)
settings.load_profile("default")

from qcevolve.circuit import Circuit, Gate, Role
from qcevolve.gates import GateKind


def bell_circuit() -> Circuit:
    """H on q0 then CX(0 -> 1)."""
    h = Gate(GateKind.H)
    i = Gate(GateKind.ID)
    ctrl = Gate(GateKind.CX, Role.CONTROL, partner=1)
    tgt = Gate(GateKind.CX, Role.TARGET, partner=0)
    return Circuit(2, ((h, ctrl), (i, tgt)))


def ghz3_circuit() -> Circuit:
    """H on q0, CX(0 -> 1), CX(1 -> 2)."""
    h = Gate(GateKind.H)
    i = Gate(GateKind.ID)
    c01 = Gate(GateKind.CX, Role.CONTROL, partner=1)
    t01 = Gate(GateKind.CX, Role.TARGET, partner=0)
    c12 = Gate(GateKind.CX, Role.CONTROL, partner=2)
    t12 = Gate(GateKind.CX, Role.TARGET, partner=1)
    return Circuit(3, ((h, c01, i), (i, t01, c12), (i, i, t12)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
