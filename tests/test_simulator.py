import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import bell_circuit
from oracles import embed_unitary, partial_trace_oracle, simulate_oracle

from qcevolve import simulator
from qcevolve.circuit import Circuit, Gate, Role, random_circuit
from qcevolve.errors import CircuitStructureError, ConfigurationError
from qcevolve.gates import (
    FULL_GATE_SET,
    RESTRICTED_GATE_SET,
    GateKind,
    gate_matrix,
    parse_gate_set,
)
from qcevolve.simulator import (
    apply_gate,
    fidelity,
    partial_trace,
    run_gates,
    simulate,
    simulate_all,
    von_neumann_entropy,
    zero_state,
)

SQ2 = 1.0 / np.sqrt(2.0)
INF_J = complex(0.0, np.inf)
NAN_INF_J = complex(np.nan, np.inf)


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


class TestParseGateSet:
    def test_empty_tokens_are_skipped(self):
        assert parse_gate_set(" RX,,ry, ") == {GateKind.RX, GateKind.RY}

    def test_unknown_gate_named_with_the_valid_ones(self):
        valid = ",".join(k.value for k in GateKind)
        with pytest.raises(ConfigurationError) as exc:
            parse_gate_set("rx,toffoli")
        assert str(exc.value) == f"unknown gate 'toffoli' (valid: {valid})"

    @pytest.mark.parametrize("names", ["", " , ,"])
    def test_empty_set_rejected(self, names):
        with pytest.raises(ConfigurationError, match="^gate set is empty$"):
            parse_gate_set(names)


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

    @pytest.mark.parametrize(
        "kind, targets, message",
        [
            (GateKind.X, (0, 1), "^x needs 1 targets, got 2$"),
            (GateKind.CZ, (1,), "^cz needs 2 targets, got 1$"),
        ],
    )
    def test_arity_mismatch_rejected(self, kind, targets, message):
        with pytest.raises(ValueError, match=message):
            apply_gate(zero_state(2), kind, None, targets)

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

    @pytest.mark.parametrize(
        "shapes",
        [[(3, 4), (3, 5), (2, 4)], [(9, 3)] * 3, [(3, 4)]],
        ids=["mixed", "wide", "one"],
    )
    def test_simulate_all_runs_others_one_at_a_time(self, shapes, rng, monkeypatch):
        circuits = [random_circuit(n, d, FULL_GATE_SET, rng) for n, d in shapes]
        monkeypatch.setattr(simulator, "_run_stack", None)
        states = simulate_all(circuits)
        assert [s.tobytes() for s in states] == [simulate(c).tobytes() for c in circuits]

    def test_simulate_all_runs_one_stack_per_list(self, rng, monkeypatch):
        circuits = [random_circuit(8, 2, FULL_GATE_SET, rng) for _ in range(200)]
        calls = []
        run_stack = simulator._run_stack

        def counted(stack):
            calls.append(len(stack))
            return run_stack(stack)

        monkeypatch.setattr(simulator, "_run_stack", counted)
        states = list(simulate_all(circuits))
        assert calls == [200]
        assert [s.tobytes() for s in states] == [simulate(c).tobytes() for c in circuits]

    def test_simulate_all_validates_every_circuit_first(self, rng, monkeypatch):
        circuits = [random_circuit(2, 3, FULL_GATE_SET, rng) for _ in range(3)]
        circuits.append(Circuit(2, circuits[0].grid[:1]))
        monkeypatch.setattr(simulator, "_run_stack", None)
        with pytest.raises(CircuitStructureError, match="1 rows for 2 qubits"):
            simulate_all(circuits)


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


@pytest.mark.per_kernel
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


def reference_run_gates(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    """`run_gates` written out: a one-qubit gate as one `np.matmul` per
    (2, 2**q) block; CX as a swap of each index pair with the control bit
    set, CZ as a product by -1 of each index with both bits set. The
    product by -1 is the kernels' negation: on a zero it gives other signs
    than unary minus."""
    out = state.copy()
    for column in zip(*circuit.grid):
        for q, g in enumerate(column):
            if g.kind is GateKind.ID or g.role is Role.TARGET:
                continue
            if g.kind.arity == 1:
                blocks = out.reshape(-1, 2, 1 << q)
                matrix = gate_matrix(g.kind, g.theta)
                for b in range(len(blocks)):
                    blocks[b] = np.matmul(matrix, blocks[b])
                continue
            c, t = 1 << q, 1 << g.partner
            for i in range(out.shape[-1]):
                if i & c and not i & t:
                    if g.kind is GateKind.CX:
                        out[..., [i, i | t]] = out[..., [i | t, i]]
                    elif g.kind is GateKind.CZ:
                        out[..., i | t] = out[..., i | t] * -1
    return out


@pytest.mark.per_kernel
class TestRunGatesBitForBit:
    """The gate loop gives the bits of the loop written out above, on
    whichever OpenBLAS kernel runs the test (below 9 qubits no one-qubit
    gate takes the one-call layout)."""

    @given(
        st.integers(1, 6),
        st.integers(1, 12),
        st.sampled_from([FULL_GATE_SET, RESTRICTED_GATE_SET]),
        st.sampled_from([None, 3]),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_loop(self, n, depth, gate_set, batch, seed):
        rng = np.random.default_rng(seed)
        circuit = random_circuit(n, depth, gate_set, rng)
        shape = (2**n,) if batch is None else (batch, 2**n)
        parts = rng.normal(size=shape + (2,))
        # signed zeros in half the parts: the kernels must keep their signs
        parts[rng.random(parts.shape) < 0.5] *= 0.0
        state = parts.view(complex).reshape(shape)
        out = run_gates(state, circuit)
        assert out.shape == state.shape
        assert out.tobytes() == reference_run_gates(state, circuit).tobytes()


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


@pytest.mark.per_kernel
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

    @pytest.mark.parametrize("keep", [{3}, {-1}, {0, 3}])
    def test_keep_out_of_range(self, keep):
        with pytest.raises(ValueError) as exc:
            partial_trace(zero_state(3), keep)
        assert str(exc.value) == f"keep {sorted(keep)} out of range for 3 qubits"


@pytest.mark.per_kernel
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

    @given(
        st.sampled_from([2, 4]),
        st.lists(st.floats(-1, 1), min_size=32, max_size=32),
        st.integers(0, 3),
        st.integers(0, 3),
        st.sampled_from([1.0, 1j]),
        st.floats(0.4, 1.6) | st.sampled_from([0.5, 1.0, 1 - 2**-52, 1 + 2**-52]),
        st.none() | st.sampled_from([np.nan, np.inf, -np.inf, NAN_INF_J, INF_J]),
    )
    # on the diagonal, d <= tol passes inf <= inf for these two
    @example(2, [0.0] * 32, 0, 0, 1.0, 1.0, NAN_INF_J)
    @example(4, [0.5] * 32, 3, 3, 1.0, 1.0, INF_J)
    # inf - inf must not warn before the check rejects the matrix
    @pytest.mark.filterwarnings("error")
    def test_hermitian_check_is_allclose(self, d, xs, i, j, unit, edge, bad):
        """Where `np.allclose(rho, rho^H, atol=1e-8)` fails, or an entry is
        not finite, the same error; elsewhere the bits of the former
        allclose-checked implementation."""

        def allclose_entropy(rho):
            if not np.allclose(rho, rho.conj().T, atol=1e-8):
                raise ValueError("density matrix is not Hermitian")
            lam = np.linalg.eigvalsh(rho)
            lam = lam[lam > 1e-12]
            return float(-np.sum(lam * np.log2(lam)))

        a = (np.array(xs[:16]) + 1j * np.array(xs[16:])).reshape(4, 4)[:d, :d]
        rho = a @ a.conj().T
        i, j = i % d, j % d
        # move one entry away from rho^H by `edge` times the tolerance
        # (twice that for an imaginary step on the diagonal)
        h = np.conj(rho[j, i])
        rho[i, j] += unit * edge * (1e-8 + 1e-5 * abs(h))
        if bad is not None:
            rho[j, i] = bad
        if not np.allclose(rho, rho.conj().T, atol=1e-8) or not np.isfinite(rho).all():
            with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
                von_neumann_entropy(rho)
        else:
            got = von_neumann_entropy(rho)
            assert np.float64(got).tobytes() == np.float64(allclose_entropy(rho)).tobytes()

    def test_schmidt_symmetry(self, rng):
        for _ in range(20):
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            keep = {0, 2}
            comp = {1, 3}
            s1 = von_neumann_entropy(partial_trace(psi, keep))
            s2 = von_neumann_entropy(partial_trace(psi, comp))
            assert s1 == pytest.approx(s2, abs=1e-8)


@pytest.mark.per_kernel
class TestStackContracts:
    """`partial_trace` takes a (batch, 2**n) stack and `von_neumann_entropy`
    a (..., d, d) stack; each row or matrix gives the bytes it gives alone."""

    @given(st.integers(2, 5), st.integers(1, 4), st.integers(0, 2**32 - 1), st.data())
    def test_partial_trace_rows_match_single_states(self, n, batch, seed, data):
        keep = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        rng = np.random.default_rng(seed)
        stack = rng.normal(size=(batch, 2**n)) + 1j * rng.normal(size=(batch, 2**n))
        got = partial_trace(stack, keep)
        d = 2 ** len(keep)
        assert got.shape == (batch, d, d)
        for row, rho in zip(stack, got):
            assert rho.tobytes() == partial_trace(row, keep).tobytes()

    @given(st.sampled_from([2, 4]), st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
    def test_entropy_matrices_match_single_matrices(self, d, k, seed, data):
        rank = data.draw(st.integers(1, d))  # rank < d exercises the clamp
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(k, d, rank)) + 1j * rng.normal(size=(k, d, rank))
        rho = a @ a.conj().swapaxes(-1, -2)
        rho /= np.trace(rho, axis1=-2, axis2=-1)[:, None, None]
        got = von_neumann_entropy(rho)
        assert got.shape == (k,)
        for r, s in zip(rho, got):
            assert np.float64(s).tobytes() == np.float64(von_neumann_entropy(r)).tobytes()

    @given(
        st.sampled_from([2, 4]),
        st.integers(1, 4),
        st.data(),
        st.sampled_from([1.0, np.nan, np.inf, -np.inf, NAN_INF_J, INF_J]),
    )
    @pytest.mark.filterwarnings("error")
    def test_entropy_rejects_a_bad_matrix_anywhere(self, d, k, data, bad):
        rho = np.array([np.eye(d) / d] * k, dtype=complex)
        at = data.draw(st.tuples(st.integers(0, k - 1), st.integers(0, d - 1)))
        rho[at[0], at[1], (at[1] + 1) % d] = bad  # 1.0 is finite but not Hermitian
        with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
            von_neumann_entropy(rho)

    @pytest.mark.parametrize(
        "shape, match",
        [
            ((2, 2, 4), r"got shape \(2, 2, 4\)"),
            ((), r"got shape \(\)"),
            ((0, 4), r"got shape \(0, 4\)"),
            ((3, 6), "length 6 is not a power of two"),
            ((3, 0), "length 0 is not a power of two"),
        ],
    )
    def test_partial_trace_rejects_bad_stacks(self, shape, match):
        with pytest.raises(ValueError, match=match):
            partial_trace(np.zeros(shape, dtype=complex), {0})
