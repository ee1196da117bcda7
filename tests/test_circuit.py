import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import bell_circuit
from oracles import repair_oracle

from qcevolve.circuit import (
    MAX_QUBITS,
    Circuit,
    Gate,
    Role,
    _pair_problem,
    deserialize,
    export_qasm,
    from_columns,
    pad_to,
    random_circuit,
    repair,
    serialize,
    validate,
)
from qcevolve.errors import CircuitStructureError, ConfigurationError, ParseError
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind
from qcevolve.simulator import partial_trace, simulate

ID = Gate(GateKind.ID)


class TestRandomCircuit:
    def test_shape(self, rng):
        c = random_circuit(2, 3, FULL_GATE_SET, rng)
        assert c.n_qubits == 2 and c.depth == 3
        validate(c)

    def test_single_qubit_identity_only(self, rng):
        c = random_circuit(1, 5, frozenset({GateKind.ID}), rng)
        assert all(g.kind is GateKind.ID for row in c.grid for g in row)

    def test_two_qubit_only_set_needs_two_qubits(self, rng):
        with pytest.raises(ConfigurationError):
            random_circuit(1, 3, frozenset({GateKind.CX}), rng)

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
    def test_width_out_of_range(self, n, rng):
        with pytest.raises(ConfigurationError, match=f"^n_qubits {n} out of range$"):
            random_circuit(n, 3, FULL_GATE_SET, rng)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one(self, depth, rng):
        with pytest.raises(ConfigurationError, match=f"^depth {depth} must be >= 1$"):
            random_circuit(2, depth, FULL_GATE_SET, rng)

    def test_theta_in_init_range(self, rng):
        c = random_circuit(3, 30, frozenset({GateKind.RX, GateKind.RZ}), rng)
        thetas = [g.theta for row in c.grid for g in row if g.theta is not None]
        assert thetas and all(-np.pi <= t <= np.pi for t in thetas)

    def test_always_valid(self, rng):
        for _ in range(2000):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(1, 8))
            gate_set = FULL_GATE_SET if rng.random() < 0.5 else RESTRICTED_GATE_SET
            validate(random_circuit(n, m, gate_set, rng))


class TestPadTo:
    def test_noop(self, rng):
        c = random_circuit(2, 3, FULL_GATE_SET, rng)
        assert pad_to(c, 2, 3) == c

    def test_new_cells_are_identity(self, rng):
        c = random_circuit(2, 2, FULL_GATE_SET, rng)
        p = pad_to(c, 3, 4)
        assert p.n_qubits == 3 and p.depth == 4
        new_cells = [p.grid[2][j] for j in range(4)] + [
            p.grid[i][j] for i in range(2) for j in range(2, 4)
        ]
        assert len(new_cells) == 8
        assert all(g.kind is GateKind.ID for g in new_cells)

    def test_shrink_rejected(self, rng):
        c = random_circuit(2, 3, FULL_GATE_SET, rng)
        with pytest.raises(ValueError):
            pad_to(c, 2, 2)

    def test_state_on_original_qubits_unchanged(self, rng):
        for _ in range(20):
            c = random_circuit(2, 3, FULL_GATE_SET, rng)
            padded = pad_to(c, 4, 5)
            rho = partial_trace(simulate(padded), {0, 1})
            psi = simulate(c)
            overlap = float(np.real(psi.conj() @ rho @ psi))
            assert overlap == pytest.approx(1.0, abs=1e-9)


# any nonempty gate set; a one-row circuit needs a one-qubit kind
shaped_sets = st.tuples(
    st.sets(st.sampled_from(list(GateKind)), min_size=1).map(frozenset),
    st.integers(1, 6),
    st.integers(1, 12),
).filter(lambda t: t[1] > 1 or any(k.arity == 1 for k in t[0]))


class TestRepair:
    def test_clean_circuit_unchanged(self, rng):
        c = random_circuit(3, 5, FULL_GATE_SET, rng)
        assert repair(c, rng) == c

    def test_lone_control_completed(self, rng):
        grid = [[ID] * 5 for _ in range(3)]
        grid[0][2] = Gate(GateKind.CX, Role.CONTROL, partner=None)
        broken = Circuit(3, tuple(tuple(r) for r in grid))
        fixed = repair(broken, rng)
        validate(fixed)
        col = [fixed.grid[r][2] for r in range(3)]
        assert sum(g.role is Role.TARGET for g in col) == 1
        assert sum(g.role is Role.CONTROL for g in col) == 1
        # nearest identity row wins
        assert fixed.grid[0][2].partner == 1

    def test_single_row_dangling_becomes_one_qubit(self, rng):
        grid = ((Gate(GateKind.CX, Role.CONTROL, partner=None), ID),)
        fixed = repair(Circuit(1, grid), rng)
        validate(fixed)
        assert fixed.grid[0][0].kind.arity == 1

    def test_full_column_of_halves(self, rng):
        # 3 dangling halves, no identity: one must become a one-qubit gate
        col = tuple(Gate(GateKind.CX, Role.CONTROL, partner=None) for _ in range(3))
        broken = from_columns(3, [col])
        validate(repair(broken, rng))

    def test_idempotent(self, rng):
        for _ in range(50):
            c = random_circuit(3, 4, FULL_GATE_SET, rng)
            grid = [list(row) for row in c.grid]
            r = int(rng.integers(3))
            col = int(rng.integers(4))
            grid[r][col] = Gate(GateKind.CZ, Role.TARGET, partner=None)
            broken = Circuit(3, tuple(tuple(row) for row in grid))
            once = repair(broken, rng)
            assert repair(once, rng) == once

    @given(shaped_sets, st.integers(0, 2**32 - 1))
    def test_valid_circuit_returned_equal_without_draws(self, drawn, seed):
        gate_set, n, depth = drawn
        rng = np.random.default_rng(seed)
        c = random_circuit(n, depth, gate_set, rng)
        before = rng.bit_generator.state
        assert repair(c, rng) == c
        assert rng.bit_generator.state == before

    @given(shaped_sets, shaped_sets, st.integers(0, 2**32 - 1), st.data())
    def test_quadrant_swap_repaired_as_the_docstring_says(self, a_drawn, b_drawn, seed, data):
        """A blockwise crossover's swapped top-left quadrant breaks the
        pairs that span its row cut; the repaired circuit and the draws
        taken match the oracle."""
        (set_a, n, depth), (set_b, _, _) = a_drawn, b_drawn
        if n == 1:
            set_b = set_a  # a one-row circuit needs a one-qubit kind
        rng = np.random.default_rng(seed)
        a = random_circuit(n, depth, set_a, rng)
        b = random_circuit(n, depth, set_b, rng)
        rows = data.draw(st.integers(1, n))
        cols = data.draw(st.integers(1, depth))
        grid = [
            b.grid[r][:cols] + a.grid[r][cols:] if r < rows else a.grid[r]
            for r in range(n)
        ]
        broken = Circuit(n, tuple(grid))
        got_rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        fixed = repair(broken, got_rng)
        assert fixed == repair_oracle(broken, oracle_rng)
        assert got_rng.bit_generator.state == oracle_rng.bit_generator.state
        validate(fixed)


class TestSerialization:
    def test_round_trip(self, rng):
        for _ in range(20):
            c = random_circuit(4, 20, FULL_GATE_SET, rng)
            back = deserialize(serialize(c))
            assert back == c
            assert np.array_equal(simulate(back), simulate(c))

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError):
            deserialize("{}")
        with pytest.raises(ParseError):
            deserialize("not json")

    def test_theta_on_fixed_gate_rejected(self):
        doc = serialize(Circuit(1, ((Gate(GateKind.X),),)))
        bad = doc.replace('"kind": "x"', '"kind": "x", "theta": 0.5')
        with pytest.raises(ParseError):
            deserialize(bad)

    def test_structurally_broken_grid_rejected(self):
        text = """{
 "format_version": 1, "n_qubits": 2, "depth": 1,
 "cells": [[{"kind": "cx", "role": "control", "partner": 1}],
           [{"kind": "id", "role": "single"}]]
}"""
        with pytest.raises(ParseError):
            deserialize(text)


class TestQasmExport:
    def test_bell(self):
        text = export_qasm(bell_circuit())
        lines = text.strip().splitlines()
        assert lines[0] == "OPENQASM 2.0;"
        assert lines[1] == 'include "qelib1.inc";'
        assert "h q[0];" in lines
        assert "cx q[0],q[1];" in lines

    def test_all_identity(self):
        c = Circuit(2, ((ID, ID), (ID, ID)))
        assert export_qasm(c).count("id q[") == 4

    def test_restricted_set_mnemonics(self, rng):
        c = random_circuit(4, 20, RESTRICTED_GATE_SET, rng)
        body = export_qasm(c).splitlines()[3:]
        for line in body:
            assert line.split("(")[0].split()[0] in {"id", "rz", "sx", "x", "cx"}


class TestValidate:
    def test_partner_mismatch_named(self):
        grid = (
            (Gate(GateKind.CX, Role.CONTROL, partner=1),),
            (Gate(GateKind.ID),),
        )
        with pytest.raises(CircuitStructureError, match=r"\(0, 0\)"):
            validate(Circuit(2, grid))

    @pytest.mark.parametrize(
        "cell0, cell1, message",
        [
            (
                Gate(GateKind.CX, Role.SINGLE, partner=1),
                Gate(GateKind.CX, Role.TARGET, partner=0),
                "cell (0, 0): two-qubit gate needs a control/target role",
            ),
            (
                Gate(GateKind.CX, Role.CONTROL, partner=0),
                ID,
                "cell (0, 0): invalid partner row",
            ),
            (
                Gate(GateKind.CX, Role.CONTROL, partner=1),
                Gate(GateKind.CZ, Role.TARGET, partner=0),
                "cell (0, 0): partner cell (1, 0) does not match",
            ),
        ],
        ids=["bad_role", "bad_partner_row", "mismatched_partner"],
    )
    def test_broken_pair_named_and_repaired(self, cell0, cell1, message, rng):
        broken = Circuit(2, ((cell0,), (cell1,)))
        with pytest.raises(CircuitStructureError) as exc:
            validate(broken)
        assert str(exc.value) == message
        validate(repair(broken, rng))

    @pytest.mark.parametrize("n", [0, MAX_QUBITS + 1])
    def test_width_out_of_range(self, n):
        with pytest.raises(CircuitStructureError) as exc:
            validate(Circuit(n, ((ID,),) * n))
        assert str(exc.value) == f"n_qubits {n} out of range [1, {MAX_QUBITS}]"

    def test_no_columns(self):
        with pytest.raises(CircuitStructureError, match="^circuit has no columns$"):
            validate(Circuit(2, ((), ())))

    def test_ragged_grid(self):
        with pytest.raises(CircuitStructureError, match="^ragged grid$"):
            validate(Circuit(2, ((ID, ID), (ID,))))

    def test_row_count_must_match_n_qubits(self):
        with pytest.raises(CircuitStructureError, match="^3 rows for 2 qubits$"):
            validate(Circuit(2, ((ID,),) * 3))

    def test_random_circuit_valid_and_missing_theta_rejected(self, rng):
        validate(random_circuit(2, 2, FULL_GATE_SET, rng))
        with pytest.raises(CircuitStructureError, match="theta must be present"):
            validate(Circuit(1, ((Gate(GateKind.RX, theta=None),),)))


class TestHashing:
    """Gate kinds and roles hash by identity; gates and circuits are named
    tuples, so they hash, compare and pickle as their fields."""

    def test_enum_members_as_keys_and_set_members(self):
        kinds = {kind: kind.value for kind in GateKind}
        assert len(kinds) == len(GateKind)
        assert all(kinds[GateKind(v)] == v for v in kinds.values())
        assert set(GateKind) == set(FULL_GATE_SET)
        assert GateKind("cx") in RESTRICTED_GATE_SET
        assert GateKind.H not in RESTRICTED_GATE_SET
        roles = {Role.CONTROL, Role.TARGET, Role("control")}
        assert roles == {Role.TARGET, Role.CONTROL}
        assert {Role.SINGLE: 1}[Role("single")] == 1

    @pytest.mark.parametrize("role", [Role.CONTROL, Role.TARGET])
    def test_pair_with_equal_roles_rejected(self, role):
        columns = [
            (
                Gate(GateKind.CX, role, partner=1),
                Gate(GateKind.CX, role, partner=0),
            )
        ]
        assert _pair_problem(columns, 0, 0) == "partner cell (1, 0) does not match"
        assert _pair_problem(columns, 1, 0) == "partner cell (0, 0) does not match"
        with pytest.raises(CircuitStructureError, match="does not match"):
            validate(from_columns(2, columns))

    def test_pickled_circuit_equals_fresh_one(self, rng):
        c = random_circuit(3, 6, FULL_GATE_SET, rng)
        memo = {c: "scored"}
        restored = pickle.loads(pickle.dumps(c))
        fresh = Circuit(c.n_qubits, tuple(tuple(row) for row in c.grid))
        assert type(restored) is Circuit
        assert restored == fresh == c
        assert hash(restored) == hash(fresh) == hash(c) == hash((c.n_qubits, c.grid))
        assert memo[restored] == "scored"
        assert memo[fresh] == "scored"
        for field in ("n_qubits", "grid"):
            with pytest.raises(AttributeError):
                setattr(c, field, None)

    def test_gate_is_an_immutable_value(self, rng):
        c = random_circuit(4, 20, FULL_GATE_SET, rng)
        cells = {g for row in c.grid for g in row}
        assert {g.kind.arity for g in cells} == {1, 2}
        assert any(g.theta is not None for g in cells)
        for g in cells:
            assert hash(g) == hash((g.kind, g.role, g.theta, g.partner))
            for field in ("kind", "role", "theta", "partner"):
                with pytest.raises(AttributeError):
                    setattr(g, field, None)
            restored = pickle.loads(pickle.dumps(g))
            assert type(restored) is Gate and restored == g
            assert hash(restored) == hash(g)
        moved = c.grid[0][0]._replace(theta=0.25)
        assert moved.theta == 0.25 and moved.kind is c.grid[0][0].kind

    def test_circuit_hashed_in_another_process_found_in_memo(self):
        # identity hashes of gate kinds and roles differ between processes
        script = (
            "import pickle, sys\n"
            "import numpy as np\n"
            "from qcevolve.circuit import random_circuit\n"
            "from qcevolve.gates import FULL_GATE_SET\n"
            "c = random_circuit(3, 5, FULL_GATE_SET, np.random.default_rng(4))\n"
            "hash(c)\n"
            "sys.stdout.buffer.write(pickle.dumps(c))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "random"}
        out = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, check=True
        ).stdout
        c = random_circuit(3, 5, FULL_GATE_SET, np.random.default_rng(4))
        memo = {c: "scored"}
        assert memo[pickle.loads(out)] == "scored"


# frozen statevector of random_circuit(4, 20, restricted set, seed 10),
# cross-checked against the index-embedding oracle when first recorded
SEED10_RESTRICTED_TARGET = np.array(
    [
        -0.09504502054620197 + 0.04450654620295j,
        0.08697148239118385 - 0.05873967855056133j,
        0.30575543689807566 - 0.14317550147187724j,
        0.2797832379157957 - 0.18896283019633758j,
        -0.08697148239118385 + 0.05873967855056133j,
        -0.09504502054620197 + 0.04450654620295j,
        -0.2797832379157957 + 0.18896283019633758j,
        0.30575543689807566 - 0.14317550147187724j,
        0.18896283019633758 + 0.2797832379157957j,
        -0.14317550147187727 - 0.3057554368980756j,
        -0.05873967855056133 - 0.08697148239118385j,
        -0.044506546202949984 - 0.09504502054620197j,
        0.14317550147187727 + 0.3057554368980756j,
        0.18896283019633758 + 0.2797832379157957j,
        0.044506546202949984 + 0.09504502054620197j,
        -0.05873967855056133 - 0.08697148239118385j,
    ]
)


class TestSeededTargetRegression:
    def test_seed10_restricted_circuit_statevector(self):
        from oracles import simulate_oracle

        c = random_circuit(4, 20, RESTRICTED_GATE_SET, np.random.default_rng(10))
        state = simulate(c)
        assert np.abs(state - SEED10_RESTRICTED_TARGET).max() < 1e-12
        assert np.abs(state - simulate_oracle(c)).max() < 1e-9
