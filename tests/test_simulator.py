import numpy as np
import pytest

from conftest import bell_circuit
from oracles import embed_unitary, partial_trace_oracle, simulate_oracle

from qcevolve.circuit import Circuit, Gate, Role, random_circuit
from qcevolve.errors import ConfigurationError
from qcevolve.gates import FULL_GATE_SET, GateKind, gate_matrix
from qcevolve.simulator import (
    apply_gate,
    fidelity,
    partial_trace,
    run_gates,
    simulate,
    von_neumann_entropy,
    zero_state,
)

SQ2 = 1.0 / np.sqrt(2.0)


class TestZeroState:
    def test_one_qubit(self):
        assert np.array_equal(zero_state(1), [1, 0])

    def test_two_qubits(self):
        assert np.array_equal(zero_state(2), [1, 0, 0, 0])

    def test_three_qubits(self):
        s = zero_state(3)
        assert len(s) == 8 and s[0] == 1 and not s[1:].any()

    @pytest.mark.parametrize("n", [0, -1, 21])
    def test_out_of_range(self, n):
        with pytest.raises(ConfigurationError):
            zero_state(n)


class TestGateMatrix:
    def test_rz_zero_is_identity(self):
        assert np.allclose(gate_matrix(GateKind.RZ, 0.0), np.eye(2))

    def test_pauli_x(self):
        assert np.array_equal(gate_matrix(GateKind.X), [[0, 1], [1, 0]])

    def test_sx_squared_is_x(self):
        sx = gate_matrix(GateKind.SX)
        assert np.allclose(sx @ sx, gate_matrix(GateKind.X), atol=1e-12)

    @pytest.mark.parametrize("kind", [k for k in GateKind if not k.parameterized])
    def test_fixed_matrices_are_read_only(self, kind):
        with pytest.raises(ValueError, match="read-only"):
            gate_matrix(kind)[0, 0] = 2

    def test_theta_contract(self):
        with pytest.raises(ValueError):
            gate_matrix(GateKind.RX)
        with pytest.raises(ValueError):
            gate_matrix(GateKind.X, 0.1)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_unitarity(self, kind, rng):
        thetas = rng.uniform(-np.pi, np.pi, size=100) if kind.parameterized else [None]
        for theta in thetas:
            u = gate_matrix(kind, theta)
            assert np.abs(u.conj().T @ u - np.eye(len(u))).max() < 1e-10


class TestApplyGate:
    def test_hadamard(self):
        out = apply_gate(zero_state(1), GateKind.H, None, (0,))
        assert np.allclose(out, [SQ2, SQ2])

    def test_cnot_truth_table(self):
        # |q1 q0> = |01>: control q0 set -> flips q1 to give |11>
        state = np.array([0, 1, 0, 0], dtype=complex)
        out = apply_gate(state, GateKind.CX, None, (0, 1))
        assert np.allclose(out, [0, 0, 0, 1])

    def test_contract_violations(self):
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), GateKind.CX, None, (0, 0))
        with pytest.raises(ValueError):
            apply_gate(zero_state(2), GateKind.X, None, (2,))

    @pytest.mark.parametrize("kind", [GateKind.CX, GateKind.CZ])
    def test_angle_on_two_qubit_gate_rejected(self, kind):
        with pytest.raises(ValueError, match="takes no rotation angle"):
            apply_gate(zero_state(2), kind, 0.3, (0, 1))

    def test_missing_angle_rejected(self):
        with pytest.raises(ValueError, match="requires a rotation angle"):
            apply_gate(zero_state(1), GateKind.RX, None, (0,))

    def test_matches_embedding_oracle(self, rng):
        for _ in range(50):
            state = rng.normal(size=8) + 1j * rng.normal(size=8)
            state /= np.linalg.norm(state)
            kind = list(GateKind)[rng.integers(len(GateKind))]
            theta = float(rng.uniform(-np.pi, np.pi)) if kind.parameterized else None
            targets = tuple(
                int(q) for q in rng.choice(3, size=kind.arity, replace=False)
            )
            expected = embed_unitary(gate_matrix(kind, theta), targets, 3) @ state
            assert np.abs(apply_gate(state, kind, theta, targets) - expected).max() < 1e-10

    def test_norm_preserved(self, rng):
        state = rng.normal(size=16) + 1j * rng.normal(size=16)
        state /= np.linalg.norm(state)
        for _ in range(1000):
            kind = list(GateKind)[rng.integers(len(GateKind))]
            theta = float(rng.uniform(-np.pi, np.pi)) if kind.parameterized else None
            targets = tuple(
                int(q) for q in rng.choice(4, size=kind.arity, replace=False)
            )
            state = apply_gate(state, kind, theta, targets)
            assert abs(np.linalg.norm(state) - 1.0) < 1e-9


class TestSimulate:
    def test_all_identity(self):
        i = Gate(GateKind.ID)
        c = Circuit(2, ((i, i), (i, i)))
        assert np.allclose(simulate(c), [1, 0, 0, 0])

    def test_bell(self):
        assert np.allclose(simulate(bell_circuit()), [SQ2, 0, 0, SQ2])

    def test_random_circuits_match_oracle(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 5))
            depth = int(rng.integers(1, 11))
            c = random_circuit(n, depth, FULL_GATE_SET, rng)
            assert np.abs(simulate(c) - simulate_oracle(c)).max() < 1e-9


class TestRunGatesBatch:
    def test_stack_equals_per_row_runs(self, rng):
        seen = set()  # (kind, where) of every placed gate
        for _ in range(60):
            n = int(rng.integers(2, 6))
            c = random_circuit(n, 6, FULL_GATE_SET, rng)
            for r, row in enumerate(c.grid):
                for g in row:
                    if g.kind.arity == 1:
                        where = "q0" if r == 0 else "last" if r == n - 1 else ""
                        seen.add((g.kind, where))
                    elif g.role is Role.CONTROL:
                        seen.add((g.kind, "up" if g.partner > r else "down"))
            stack = rng.normal(size=(5, 2**n)) + 1j * rng.normal(size=(5, 2**n))
            batched = run_gates(stack, c)
            assert batched.shape == stack.shape
            rows = np.array([run_gates(row.copy(), c) for row in stack])
            assert np.array_equal(batched, rows)
        one_qubit = [k for k in GateKind if k.arity == 1 and k is not GateKind.ID]
        assert {(k, "q0") for k in one_qubit} <= seen
        assert {(k, "last") for k in one_qubit} <= seen
        two_qubit = (GateKind.CX, GateKind.CZ)
        assert {(k, d) for k in two_qubit for d in ("up", "down")} <= seen

    def test_single_state_keeps_shape(self, rng):
        c = random_circuit(3, 4, FULL_GATE_SET, rng)
        out = run_gates(zero_state(3), c)
        assert out.shape == (8,)
        assert np.array_equal(out, simulate(c))


class TestOneCallLayout:
    """On wide states `run_gates` runs a one-qubit gate on bit q >= 2 as one
    BLAS call over all (2, 2**q) blocks. Every row must keep the bits of one
    `np.matmul` call per block, the layout it replaces, on whichever
    OpenBLAS kernel runs the test."""

    ONE_QUBIT = [k for k in GateKind if k.arity == 1 and k is not GateKind.ID]

    @pytest.mark.parametrize("n", [8, 9, 11, 13])
    @pytest.mark.parametrize("batch", [None, 3])
    def test_rows_match_per_block_matmul(self, n, batch, rng):
        shape = (2**n,) if batch is None else (batch, 2**n)
        state = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for kind in self.ONE_QUBIT:
            theta = float(rng.uniform(-np.pi, np.pi)) if kind.parameterized else None
            matrix = gate_matrix(kind, theta)
            for q in range(n):
                rows = [(Gate(GateKind.ID),)] * n
                rows[q] = (Gate(kind, theta=theta),)
                out = run_gates(state, Circuit(n, tuple(rows)))
                blocks = state.reshape(-1, 2, 1 << q)
                expected = np.matmul(matrix, blocks).reshape(shape)
                assert out.shape == shape and out.flags.c_contiguous
                assert out.tobytes() == expected.tobytes(), (kind, q)


class TestFidelity:
    def test_self(self, rng):
        psi = rng.normal(size=4) + 1j * rng.normal(size=4)
        psi /= np.linalg.norm(psi)
        assert fidelity(psi, psi) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal(self):
        assert fidelity(np.array([1, 0]), np.array([0, 1])) == 0.0

    def test_plus_state(self):
        assert fidelity(np.array([1, 0]), np.array([SQ2, SQ2])) == pytest.approx(0.5)

    def test_symmetric_and_phase_invariant(self, rng):
        a = rng.normal(size=8) + 1j * rng.normal(size=8)
        b = rng.normal(size=8) + 1j * rng.normal(size=8)
        a /= np.linalg.norm(a)
        b /= np.linalg.norm(b)
        assert fidelity(a, b) == fidelity(b, a)
        assert fidelity(np.exp(0.7j) * a, b) == pytest.approx(fidelity(a, b), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            fidelity(np.array([1, 0]), np.array([1, 0, 0, 0]))


class TestPartialTrace:
    def test_product_state(self):
        rho = partial_trace(zero_state(2), {0})
        assert np.allclose(rho, [[1, 0], [0, 0]])

    def test_bell_marginal(self):
        rho = partial_trace(simulate(bell_circuit()), {0})
        assert np.allclose(rho, 0.5 * np.eye(2), atol=1e-12)

    def test_matches_outer_product_oracle(self, rng):
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        for keep in ([0], [1], [2], [0, 2], [1, 2]):
            got = partial_trace(psi, set(keep))
            assert np.abs(got - partial_trace_oracle(psi, keep)).max() < 1e-10

    def test_contract(self):
        with pytest.raises(ValueError):
            partial_trace(zero_state(2), set())
        with pytest.raises(ValueError):
            partial_trace(zero_state(2), {0, 1})


class TestVonNeumannEntropy:
    def test_pure_marginal(self):
        assert von_neumann_entropy(partial_trace(zero_state(2), {0})) == 0.0

    def test_maximally_mixed(self):
        assert von_neumann_entropy(0.5 * np.eye(2)) == pytest.approx(1.0, abs=1e-12)

    def test_known_value(self):
        # independently: -0.75*log2(0.75) - 0.25*log2(0.25) = 0.8112781244591328
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(0.8112781244591328, abs=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            von_neumann_entropy(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_schmidt_symmetry(self, rng):
        for _ in range(20):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            keep = {0, 2}
            comp = {1, 3}
            s1 = von_neumann_entropy(partial_trace(psi, keep))
            s2 = von_neumann_entropy(partial_trace(psi, comp))
            assert s1 == pytest.approx(s2, abs=1e-8)
