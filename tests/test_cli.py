
import errno
import json
import os
import signal
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import read_statevector_oracle, statevector_text_oracle

from qcevolve import cli, engine
from qcevolve.circuit import Circuit, Gate, deserialize, pad_to, serialize
from qcevolve.cli import (
    emit_convergence_svg,
    emit_trace_csv,
    main,
    parse_config,
    read_statevector,
    run_experiment,
    write_statevector,
)
from qcevolve.engine import GenerationRecord
from qcevolve.errors import ConfigurationError, ParseError, QcevolveError
from qcevolve.fitness import _REGISTRY, FitnessFunction
from qcevolve.gates import FULL_GATE_SET, RESTRICTED_GATE_SET, GateKind


def write_config(tmp_path, text, name="run.properties"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestParseConfig:
    def test_minimal_file_applies_defaults(self, tmp_path):
        p = write_config(tmp_path, "fitness = entanglement\nn_qubits = 2\n")
        spec = parse_config(p)
        assert spec.fitness_name == "entanglement"
        assert spec.run_config.n_qubits == 2
        assert spec.run_config.population_size == 100
        assert spec.n_repeats == 1

    def test_line_without_equals_sign(self, tmp_path):
        p = write_config(tmp_path, "fitness = entanglement\n# a comment\nn_qubits 2\n")
        with pytest.raises(ConfigurationError) as exc:
            parse_config(p)
        assert str(exc.value) == f"{p}:3: expected 'key = value'"

    def test_restricted_gate_set(self, tmp_path):
        p = write_config(tmp_path, "gate_set = id,rz,sx,x,cx\n")
        spec = parse_config(p)
        assert spec.run_config.gate_set == RESTRICTED_GATE_SET

    @pytest.mark.parametrize(
        "name,gate_set", [("full", FULL_GATE_SET), ("restricted", RESTRICTED_GATE_SET)]
    )
    @pytest.mark.parametrize("key", ["gate_set", "target_gate_set"])
    def test_named_gate_set(self, tmp_path, key, name, gate_set):
        spec = parse_config(write_config(tmp_path, f"{key} = {name}\n"))
        if key == "gate_set":
            assert spec.run_config.gate_set == gate_set
        else:
            assert spec.target_gate_set == gate_set

    def test_population_size_one_rejected(self, tmp_path):
        p = write_config(tmp_path, "population_size = 1\n")
        with pytest.raises(ConfigurationError, match="population_size"):
            parse_config(p)

    def test_unknown_key_names_line(self, tmp_path):
        p = write_config(tmp_path, "# comment\nnot_a_key = 3\n")
        with pytest.raises(ConfigurationError, match=r":2: unknown key 'not_a_key'"):
            parse_config(p)

    def test_type_mismatch_names_key(self, tmp_path):
        p = write_config(tmp_path, "generations = many\n")
        with pytest.raises(ConfigurationError, match="generations"):
            parse_config(p)

    def test_comments_and_blank_lines(self, tmp_path):
        p = write_config(tmp_path, "\n# full line comment\nseed = 9  # trailing\n")
        assert parse_config(p).run_config.seed == 9

    def test_duplicate_key_rejected(self, tmp_path):
        p = write_config(tmp_path, "seed = 1\nseed = 2\n")
        with pytest.raises(ConfigurationError, match="duplicate"):
            parse_config(p)


def _read_outcome(path) -> np.ndarray | str:
    try:
        return read_statevector(path)
    except ParseError as exc:
        return str(exc)


def _same_outcome(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def state_texts(draw) -> str:
    """A normalised state written by hand: spaces or tabs, LF or CRLF,
    blank lines, a leading '+' and underscores between digits."""
    n = draw(st.integers(0, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    state = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    state /= np.linalg.norm(state)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    lines = []
    for amp in state:
        parts = []
        for x in (amp.real, amp.imag):
            part = f"{x:.17g}"
            if draw(st.booleans()) and not part.startswith("-"):
                part = "+" + part
            digits = [i for i in range(1, len(part)) if (part[i - 1] + part[i]).isdigit()]
            if digits and draw(st.booleans()):
                i = draw(st.sampled_from(digits))
                part = part[:i] + "_" + part[i:]
            parts.append(part)
        sep = draw(st.sampled_from([" ", "\t", "  ", " \t "]))
        lines.append(draw(st.sampled_from(["", "  ", "\t"])) + sep.join(parts))
        if draw(st.booleans()):
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return end.join(lines) + draw(st.sampled_from(["", end]))


# fragments of statevector texts, good and bad: every line break of
# str.splitlines, spaces that str.split takes, separators it does not
text_pieces = st.sampled_from(
    ["1", "0", "-0", "+0.5", "0.5", "1_0", "0.7_5", "1e-320", "1e400", "nan",
     "-inf", "x", "#", ",", "0.70710678118654757", "-0.70710678118654757",
     " ", "\t", "\xa0", "\x1f", "\v", "\f", "\x1c", "\x85", "\u2028",
     "\r", "\n", "\r\n", "\n\n"]
)


class TestStatevectorFiles:
    def test_round_trip(self, tmp_path, rng):
        state = rng.normal(size=8) + 1j * rng.normal(size=8)
        state /= np.linalg.norm(state)
        path = tmp_path / "state.txt"
        write_statevector(state, path)
        back = read_statevector(path)
        assert np.allclose(back, state, atol=1e-15)

    @given(st.lists(st.complex_numbers(), min_size=1, max_size=64))
    @example([complex(-0.0, 5e-324), complex(1e308, -1e308), complex(-2.2e-308, 0.0)])
    def test_written_bytes_match_per_amplitude_formatting(self, amps):
        state = np.array(amps, dtype=complex)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "state.txt"
            write_statevector(state, path)
            assert path.read_bytes() == statevector_text_oracle(state).encode()

    @given(st.one_of(state_texts(), st.lists(text_pieces, max_size=30).map("".join)))
    @example("1 0\n0 0\n0 0\n0 1_0\n")
    @example("1\v0\n0 0\n")
    @example("+1\t0\r\n\r\n0 0\r\n")
    def test_read_matches_line_by_line_oracle(self, text):
        """Every text reads back with the oracle's bits, or is rejected
        with the oracle's message."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "target.txt"
            path.write_bytes(text.encode())
            got, expected = _read_outcome(path), read_statevector_oracle(path)
            assert _same_outcome(got, expected), (got, expected)

    @pytest.mark.parametrize("text", ["", "\n \t\n\n"])
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_empty_target_says_only_why(self, tmp_path, capsys, text, command):
        target = tmp_path / "target.txt"
        target.write_text(text)
        if command == "run":
            cfg = write_config(tmp_path, f"n_qubits = 1\ntarget_file = {target}\n")
            argv = ["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]
        else:
            circuit = tmp_path / "circuit.json"
            circuit.write_text(serialize(Circuit(1, ((Gate(GateKind.X),),))))
            argv = ["eval", str(circuit), "--target", str(target)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {target}: amplitude count 0 is not a power of two\n"
        assert captured.out == ""


class TestTraceCsv:
    def records(self, n):
        return [GenerationRecord(i, 0.5 + 0.1 * i, 0.3 + 0.1 * i) for i in range(n)]

    def test_row_count(self, tmp_path):
        path = tmp_path / "trace.csv"
        emit_trace_csv(self.records(3), [0.4] * 3, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == "generation,best_fitness,mean_fitness,baseline_best_fitness"

    def test_empty_trace_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_trace_csv([], [], tmp_path / "trace.csv")

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_trace_csv(self.records(5), [0.4] * 5, p1)
        emit_trace_csv(self.records(5), [0.4] * 5, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestConvergenceSvg:
    def trace(self, values):
        return [GenerationRecord(i, v, v - 0.1) for i, v in enumerate(values)]

    def baseline(self, values):
        return [v - 0.2 for v in values]

    def test_no_runs_rejected(self, tmp_path):
        path = tmp_path / "plot.svg"
        with pytest.raises(ValueError, match="^no runs to plot$"):
            emit_convergence_svg([], [], path)
        assert not path.exists()

    def test_single_run_no_bands(self, tmp_path):
        path = tmp_path / "plot.svg"
        values = [0.2, 0.4, 0.6]
        emit_convergence_svg([self.trace(values)], [self.baseline(values)], path)
        text = path.read_text()
        assert text.startswith("<svg")
        assert "<polygon" not in text
        assert text.count("<polyline") == 3

    def test_multiple_runs_have_bands(self, tmp_path):
        path = tmp_path / "plot.svg"
        runs = [[0.2, 0.5, 0.7], [0.3, 0.4, 0.8]]
        traces = [self.trace(v) for v in runs]
        emit_convergence_svg(traces, [self.baseline(v) for v in runs], path)
        assert path.read_text().count("<polygon") == 3

    def test_constant_trace(self, tmp_path):
        path = tmp_path / "plot.svg"
        values = [0.5, 0.5, 0.5]
        emit_convergence_svg([self.trace(values)], [self.baseline(values)], path)
        assert "<polyline" in path.read_text()


SMOKE_CONFIG = """
fitness = fidelity
n_qubits = 2
depth = 3
population_size = 4
generations = 2
seed = 3
target_seeds = 0
n_repeats = 1
"""


class TestRunExperiment:
    def test_smoke_artifacts(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SMOKE_CONFIG))
        out = tmp_path / "out"
        spec = type(spec)(**{**spec.__dict__, "output_dir": str(out)})
        assert run_experiment(spec, quiet=True) == 0
        run_dir = out / "target0_rep0"
        trace = (run_dir / "trace.csv").read_text().splitlines()
        assert len(trace) == 4  # header + 3 generations
        deserialize((run_dir / "best_circuit.json").read_text())
        assert (run_dir / "best_circuit.qasm").read_text().startswith("OPENQASM 2.0;")
        assert len(read_statevector(run_dir / "target_state.txt")) == 4
        summary = (out / "summary.csv").read_text().splitlines()
        assert len(summary) == 2
        assert (out / "convergence.svg").exists()

    def test_summary_best_equals_trace_max(self, tmp_path):
        spec = parse_config(write_config(tmp_path, SMOKE_CONFIG))
        out = tmp_path / "out"
        spec = type(spec)(**{**spec.__dict__, "output_dir": str(out)})
        run_experiment(spec, quiet=True)
        trace_rows = (out / "target0_rep0" / "trace.csv").read_text().splitlines()[1:]
        best_col = max(float(r.split(",")[1]) for r in trace_rows)
        base_col = max(float(r.split(",")[3]) for r in trace_rows)
        summary = (out / "summary.csv").read_text().splitlines()[1].split(",")
        assert float(summary[3]) == best_col
        assert float(summary[5]) == base_col

    def test_target_file_mode(self, tmp_path, rng):
        state = np.zeros(4, dtype=complex)
        state[3] = 1.0
        target_path = tmp_path / "target.txt"
        write_statevector(state, target_path)
        config = (
            f"fitness = fidelity\nn_qubits = 2\ndepth = 2\npopulation_size = 4\n"
            f"generations = 1\ntarget_file = {target_path}\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        spec = parse_config(write_config(tmp_path, config))
        assert run_experiment(spec, quiet=True) == 0


class TestMainEntry:
    def test_run_and_determinism(self, tmp_path):
        cfg = write_config(tmp_path, SMOKE_CONFIG)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["run", str(cfg), "--out", str(out1), "--quiet"]) == 0
        assert main(["run", str(cfg), "--out", str(out2), "--quiet"]) == 0
        t1 = (out1 / "target0_rep0" / "trace.csv").read_bytes()
        t2 = (out2 / "target0_rep0" / "trace.csv").read_bytes()
        assert t1 == t2
        assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, "population_size = 1\n")
        assert main(["run", str(cfg)]) == 2

    def test_fidelity_needs_fixed_width(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMOKE_CONFIG + "max_qubits = 3\n")
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "min_qubits == n_qubits == max_qubits" in capsys.readouterr().err
        assert not out.exists()

    def test_entanglement_needs_two_qubits(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "fitness = entanglement\nn_qubits = 2\nmin_qubits = 1\n"
            "depth = 2\npopulation_size = 4\ngenerations = 1\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "min_qubits >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_width_beyond_the_simulator_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "fitness = entanglement\nn_qubits = 2\nmax_qubits = 21\n"
            "depth = 2\npopulation_size = 4\ngenerations = 1\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "max_qubits 21 exceeds the simulator's limit of 20 qubits" in err
        assert not out.exists()

    def test_non_finite_mutation_weight_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "fitness = entanglement\nn_qubits = 2\ndepth = 2\n"
            "population_size = 4\ngenerations = 2\nmutation_prob = 1.0\n"
            "mutation_weights = nan,1,1,1,1,1\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "mutation_weights must be finite and nonnegative" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_mutation_weights_whose_sum_overflows_are_a_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            "fitness = entanglement\nn_qubits = 2\ndepth = 2\n"
            "population_size = 4\ngenerations = 2\nmutation_prob = 1.0\n"
            "mutation_weights = 1e308,1e308,1e308,1e308,1e308,1e308\n",
        )
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "mutation_weights must be finite and nonnegative, not all zero, with a finite sum" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["gate_set", "target_gate_set"])
    def test_two_qubit_gates_alone_on_one_qubit(self, tmp_path, capsys, monkeypatch, key):
        def no_draw(*args, **kwargs):
            raise AssertionError("a circuit was drawn")

        monkeypatch.setattr(cli, "random_circuit", no_draw)
        monkeypatch.setattr(engine, "random_circuits", no_draw)
        cfg = write_config(
            tmp_path,
            f"n_qubits = 1\ndepth = 2\npopulation_size = 4\ngenerations = 1\n{key} = cx,cz\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: {key} contains only two-qubit gates but n_qubits < 2\n"
        )
        assert not out.exists()

    def test_ml_needs_a_qubit_per_feature(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.2,0.3,0\n0.9,0.8,0.7,1\n")
        cfg = write_config(
            tmp_path,
            f"fitness = ml\ndataset = {data}\nn_qubits = 3\nmin_qubits = 2\n"
            "depth = 2\npopulation_size = 4\ngenerations = 1\n",
        )
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 2
        assert "min_qubits >= 3" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_fitness_is_a_run_failure(self, tmp_path, capsys, monkeypatch):
        class NanFitness(FitnessFunction):
            name = "bad_for_test"

            def evaluate(self, circuit):
                return float("nan")

        def returning(make):
            class BadReturnFitness(FitnessFunction):
                name = "bad_for_test"

                def score(self, circuit):
                    return make(circuit)

            return BadReturnFitness

        cases = [
            (NanFitness, "returned nan, not a finite real number"),
            (returning(lambda c: 0.5), "returned 0.5, not a (score, circuit) pair"),
            # not read as the pair (width, grid): the message names the Circuit
            (returning(lambda c: c), "returned Circuit(n_qub"),
            (returning(lambda c: (0.5, "c")), "returned 'c' as its circuit, not a Circuit"),
            (
                returning(lambda c: (0.5, pad_to(c, 3, 2))),
                "returned a 3x2 circuit, not one of its shape",
            ),
            (
                returning(lambda c: (0.5, Circuit(2, c.grid + c.grid[:1]))),
                "returned an invalid circuit (3 rows for 2 qubits)",
            ),
        ]
        cfg = write_config(
            tmp_path,
            "fitness = bad_for_test\nn_qubits = 2\ndepth = 2\n"
            "population_size = 4\ngenerations = 1\n",
        )
        for i, (fitness, returned) in enumerate(cases):
            monkeypatch.setitem(_REGISTRY, "bad_for_test", fitness)
            out = str(tmp_path / f"out{i}")
            assert main(["run", str(cfg), "--out", out, "--quiet"]) == 1
            err = capsys.readouterr().err
            named = f"run failed: fitness 'bad_for_test' ({fitness.__name__}) "
            assert err.startswith(named + returned)
            assert ", for the 2x2 circuit: " in err
            assert "Traceback" not in err

    def test_eval_subcommand(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMOKE_CONFIG)
        out = tmp_path / "out"
        main(["run", str(cfg), "--out", str(out), "--quiet"])
        run_dir = out / "target0_rep0"
        code = main(
            [
                "eval",
                str(run_dir / "best_circuit.json"),
                "--target",
                str(run_dir / "target_state.txt"),
            ]
        )
        assert code == 0
        assert "fidelity =" in capsys.readouterr().out


class TestUnreadableInputs:
    """Bad input files are configuration errors: `error: ...`, exit code 2,
    and `run` makes no output directory."""

    def run_error(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if "--out" in argv:
            assert not Path(argv[argv.index("--out") + 1]).exists()
        return err

    def test_missing_dataset(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            f"fitness = ml\ndataset = {tmp_path / 'no_such.csv'}\nn_qubits = 2\n"
            "depth = 2\npopulation_size = 4\ngenerations = 1\n",
        )
        err = self.run_error(capsys, ["run", str(cfg), "--out", str(tmp_path / "out")])
        assert "no_such.csv" in err

    def test_missing_target_file(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            f"fitness = fidelity\nn_qubits = 2\ndepth = 2\npopulation_size = 4\n"
            f"generations = 1\ntarget_file = {tmp_path / 'no_such.txt'}\n",
        )
        err = self.run_error(capsys, ["run", str(cfg), "--out", str(tmp_path / "out")])
        assert "no_such.txt" in err

    def test_eval_missing_circuit(self, tmp_path, capsys):
        target = tmp_path / "target.txt"
        write_statevector(np.array([1, 0, 0, 0], dtype=complex), target)
        missing = str(tmp_path / "no_such.json")
        err = self.run_error(capsys, ["eval", missing, "--target", str(target)])
        assert "no_such.json" in err

    def test_eval_target_width_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, SMOKE_CONFIG)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--quiet"]) == 0
        target = tmp_path / "three_qubits.txt"
        write_statevector(np.eye(8, dtype=complex)[0], target)
        circuit = str(out / "target0_rep0" / "best_circuit.json")
        err = self.run_error(capsys, ["eval", circuit, "--target", str(target)])
        assert "8 amplitudes" in err

    def test_key_the_fitness_does_not_take(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.9,0\n0.8,0.2,1\n")
        for fitness in ("entanglement", f"ml\ndataset = {data}"):
            cfg = write_config(
                tmp_path,
                f"fitness = {fitness}\ndepth_weight = 0.1\nn_qubits = 2\n"
                "depth = 2\npopulation_size = 4\ngenerations = 1\n",
            )
            err = self.run_error(capsys, ["run", str(cfg), "--out", str(tmp_path / "out")])
            assert "'depth_weight'" in err


SMALL_RUN = "n_qubits = 2\ndepth = 2\npopulation_size = 4\ngenerations = 1\n"
ML = "fitness = ml\ndataset = {data}\n"

# Property-file lines that `run` must reject before it draws a search
# circuit: (lines, fragments of the message)
BAD_SETTINGS = {
    "no target seed": (
        "target_seeds = ,\n",
        ["run.properties:5: bad value for 'target_seeds': names no seed"],
    ),
    "negative target seed": (
        "target_seeds = 3, -1\n",
        ["run.properties:5: bad value for 'target_seeds': seed -1 is negative"],
    ),
    "nan depth_weight": ("depth_weight = nan\n", ["depth_weight must be finite, got nan"]),
    # max_depth is 2 * depth = 4: the penalty of a 4-deep circuit would overflow
    "huge depth_weight": (
        "depth_weight = 1e308\n",
        ["depth_weight * max_depth must be finite, got 1e+308 * 4"],
    ),
    "negative crossover_points": (
        "crossover_method = multi_point\ncrossover_points = -3\n",
        ["run.properties", "crossover_points must be >= 1"],
    ),
    "not a boolean": (
        ML + "lamarckian = maybe\n",
        ["run.properties:7: bad value for 'lamarckian': not a boolean: maybe"],
    ),
    "nan learning_rate": (ML + "learning_rate = nan\n", ["learning_rate must be finite, got nan"]),
    "inf learning_rate": (ML + "learning_rate = inf\n", ["learning_rate must be finite, got inf"]),
    "negative train_steps": (ML + "train_steps = -2\n", ["train_steps must be >= 0, got -2"]),
    "no repeats": ("n_repeats = 0\n", ["run.properties", "n_repeats must be >= 1"]),
    "seeds and a file": (
        "target_seeds = 1\ntarget_file = {target}\n",
        ["run.properties", "target_seeds and target_file are mutually exclusive"],
    ),
    # the target settings apply to the fidelity fitness alone
    "target file without fidelity": (
        "fitness = entanglement\ntarget_file = /no/such/file.txt\ntarget_gate_set = x\n",
        ["run.properties: target_file is read only by fitness 'fidelity'"],
    ),
    "target gate set without fidelity": (
        "fitness = entanglement\ntarget_gate_set = x\n",
        ["run.properties: target_gate_set is read only by fitness 'fidelity'"],
    ),
    "target seeds without fidelity": (
        ML + "target_seeds = 1\n",
        ["run.properties: target_seeds is read only by fitness 'fidelity'"],
    ),
}

# dataset CSV text -> fragments of the message
BAD_DATASETS = {
    "ragged row": ("0.1,0.2,0\n0.3,1\n", ["data.csv:2: 2 values, but the first sample has 3"]),
    "fractional label": ("0.1,0.2,0\n0.3,0.4,0.5\n", ["data.csv:2: label 0.5 is not 0 or 1"]),
    "nan feature": ("0.1,0.2,0\nnan,0.4,1\n", ["data.csv:2: values must be finite"]),
    "inf feature": ("# samples\n0.1,inf,0\n", ["data.csv:2: values must be finite"]),
    "label only": ("0\n1\n", ["data.csv:1: a sample needs features and a label"]),
    "header only": ("# comment\nf1,f2,label\n", ["data.csv: no samples"]),
    "second header": ("f1,f2,label\n0.1,0.2,0\nf1,f2\n", ["data.csv:3: not a numeric sample"]),
}

# target statevector text -> fragments of the message
BAD_TARGETS = {
    "nan amplitude": ("1 0\nnan 0\n0 0\n0 0\n", ["target.txt:2: amplitude is not finite"]),
    "norm 4": ("2 0\n0 0\n0 0\n0 0\n", ["target.txt: squared norm 4 is not within 1e-06 of 1"]),
    "norm off by 1e-5": ("1.00001 0\n0 0\n0 0\n0 0\n", ["squared norm 1.0000200001"]),
    "three fields": ("1 0 0\n0 0\n", ["target.txt:1: expected 're im'"]),
    "not numeric": ("1 0\nzero zero\n", ["target.txt:2: not numeric"]),
    "three amplitudes": ("1 0\n0 0\n0 0\n", ["target.txt: amplitude count 3 is not"]),
}


def one_qubit_doc(**changes):
    """A 1x1 circuit document (an X gate) with top-level fields changed;
    a field changed to None is left out."""
    doc = json.loads(serialize(Circuit(1, ((Gate(GateKind.X),),))))
    doc.update(changes)
    return json.dumps({key: value for key, value in doc.items() if value is not None})


def one_cell_doc(**cell):
    return one_qubit_doc(cells=[[cell]])


# circuit document -> fragment of the message
BAD_DOCUMENTS = {
    "not json": ("{", "invalid document"),
    "not an object": ("[1]", "document root must be an object"),
    "unknown version": (one_qubit_doc(format_version=99), "unsupported format_version 99"),
    "missing field": (one_qubit_doc(cells=None), "missing field 'cells'"),
    "zero qubits": (one_qubit_doc(n_qubits=0), "n_qubits and depth must be positive integers"),
    "rows": (one_qubit_doc(cells=[]), "cells must hold 1 rows"),
    "cells": (one_qubit_doc(cells=[[]]), "row 0 must hold 1 cells"),
    "cell": (one_qubit_doc(cells=[["x"]]), "cells[0][0]: cell must be an object"),
    "kind": (one_cell_doc(kind="toffoli"), "cells[0][0]: unknown gate kind"),
    "role": (one_cell_doc(kind="x", role="boss"), "cells[0][0]: unknown role"),
    "theta": (one_cell_doc(kind="rx", theta="pi"), "cells[0][0]: theta must be a number"),
    "partner": (one_cell_doc(kind="x", partner="0"), "cells[0][0]: partner must be an integer"),
    "nan theta": (one_cell_doc(kind="rx", theta=float("nan")), "cells[0][0]: theta must be finite"),
    "infinite theta": (
        one_cell_doc(kind="rx", theta=float("-inf")),
        "cells[0][0]: theta must be finite",
    ),
    "theta past the float range": (
        one_cell_doc(kind="rx", theta=0.5).replace("0.5", "1e400"),
        "cells[0][0]: theta must be finite",
    ),
    "integer theta past the float range": (
        one_cell_doc(kind="rx", theta=0.5).replace("0.5", "1" + "0" * 400),
        "cells[0][0]: theta must be finite",
    ),
    "boolean theta": (one_cell_doc(kind="rx", theta=True), "cells[0][0]: theta must be a number"),
    "boolean partner": (
        one_cell_doc(kind="cx", role="control", partner=False),
        "cells[0][0]: partner must be an integer",
    ),
    "boolean qubit count": (
        one_qubit_doc(n_qubits=True),
        "n_qubits and depth must be positive integers",
    ),
    "boolean depth": (one_qubit_doc(depth=True), "n_qubits and depth must be positive integers"),
    "invalid circuit": (
        one_cell_doc(kind="cx", role="control", partner=0),
        "cell (0, 0): invalid partner row",
    ),
}


class TestMalformedInputs:
    """Each bad input ends with `error: ...` naming the file and line, or
    the setting, and exit code 2, before any search circuit is drawn and
    before `run` makes its output directory."""

    @pytest.fixture
    def files(self, tmp_path):
        data = tmp_path / "data.csv"
        data.write_text("0.1,0.9,0\n0.8,0.2,1\n")
        target = tmp_path / "target.txt"
        write_statevector(np.eye(4, dtype=complex)[0], target)
        return {"data": data, "target": target}

    def rejected(self, capsys, monkeypatch, argv, fragments):
        def no_draw(*args, **kwargs):
            raise AssertionError("a search circuit was drawn")

        monkeypatch.setattr(engine, "random_circuits", no_draw)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if "--out" in argv:  # a file in its place is left as it was
            assert not Path(argv[argv.index("--out") + 1]).is_dir()
        for fragment in fragments:
            assert fragment in err
        return err

    def run_argv(self, tmp_path, text):
        cfg = write_config(tmp_path, text)
        return ["run", str(cfg), "--out", str(tmp_path / "out"), "--quiet"]

    @pytest.mark.parametrize("case", sorted(BAD_SETTINGS))
    def test_bad_setting(self, tmp_path, capsys, monkeypatch, files, case):
        lines, fragments = BAD_SETTINGS[case]
        text = SMALL_RUN + lines.format(**files)
        self.rejected(capsys, monkeypatch, self.run_argv(tmp_path, text), fragments)

    @pytest.mark.parametrize("case", sorted(BAD_DATASETS))
    def test_bad_dataset(self, tmp_path, capsys, monkeypatch, files, case):
        text, fragments = BAD_DATASETS[case]
        files["data"].write_text(text)
        config = SMALL_RUN + ML.format(**files)
        self.rejected(capsys, monkeypatch, self.run_argv(tmp_path, config), fragments)

    @pytest.mark.parametrize("case", sorted(BAD_TARGETS))
    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_bad_target(self, tmp_path, capsys, monkeypatch, files, command, case):
        text, fragments = BAD_TARGETS[case]
        files["target"].write_text(text)
        if command == "run":
            argv = self.run_argv(tmp_path, SMALL_RUN + f"target_file = {files['target']}\n")
        else:
            circuit = tmp_path / "circuit.json"
            two_qubits = Circuit(2, ((Gate(GateKind.X),), (Gate(GateKind.H),)))
            circuit.write_text(serialize(two_qubits))
            argv = ["eval", str(circuit), "--target", str(files["target"])]
        self.rejected(capsys, monkeypatch, argv, fragments)

    @pytest.mark.parametrize("command", ["run", "eval"])
    def test_target_width_mismatch(self, tmp_path, capsys, monkeypatch, files, command):
        target = files["target"]  # two qubits
        if command == "run":
            text = SMALL_RUN.replace("n_qubits = 2", "n_qubits = 3")
            argv = self.run_argv(tmp_path, text + f"target_file = {target}\n")
            fragment = f"target_file {target} has 4 amplitudes, n_qubits = 3 needs 8"
        else:
            circuit = tmp_path / "circuit.json"
            circuit.write_text(serialize(Circuit(3, ((Gate(GateKind.X),),) * 3)))
            argv = ["eval", str(circuit), "--target", str(target)]
            fragment = f"{target}: target has 4 amplitudes, the 3-qubit circuit needs 8"
        self.rejected(capsys, monkeypatch, argv, [fragment])

    @pytest.mark.parametrize("case", sorted(BAD_DOCUMENTS))
    def test_bad_circuit_document(self, tmp_path, capsys, monkeypatch, files, case):
        text, fragment = BAD_DOCUMENTS[case]
        circuit = tmp_path / "circuit.json"
        circuit.write_text(text)
        target = tmp_path / "one_qubit.txt"
        write_statevector(np.array([0, 1], dtype=complex), target)
        argv = ["eval", str(circuit), "--target", str(target)]
        self.rejected(capsys, monkeypatch, argv, [fragment])

    @pytest.mark.parametrize(
        "below,reason", [(None, "File exists"), ("sub", "Not a directory")]
    )
    def test_unusable_output_directory(self, tmp_path, capsys, monkeypatch, below, reason):
        out = tmp_path / "afile"
        out.write_text("")
        if below is not None:
            out = out / below
        argv = ["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out)]
        err = self.rejected(capsys, monkeypatch, argv, [])
        assert err == f"error: cannot create output directory {out}: {reason}\n"

    @pytest.mark.parametrize(
        "blocker,reason",
        [
            ("target0_rep0", "File exists"),
            ("target0_rep0/trace.csv", "Is a directory"),
            ("summary.csv", "Is a directory"),
        ],
    )
    def test_unwritable_artifact_is_a_run_failure(self, tmp_path, capsys, blocker, reason):
        out = tmp_path / "out"
        if blocker == "target0_rep0":
            out.mkdir()
            (out / blocker).write_text("")
        else:
            (out / blocker).mkdir(parents=True)
        argv = ["run", str(write_config(tmp_path, SMALL_RUN)), "--out", str(out), "--quiet"]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"run failed: cannot write {out / blocker}: {reason}\n"

    def test_header_after_comments(self, tmp_path, files):
        files["data"].write_text("# made by hand\n\nf1,f2,label\n0.1,0.9,0\n0.8,0.2,1\n")
        config = SMALL_RUN + ML.format(**files) + "train_steps = 1\n"
        assert main(self.run_argv(tmp_path, config)) == 0

    @pytest.mark.parametrize(
        "text,value",
        [
            ("true", True), ("Yes", True), ("1", True),
            ("false", False), ("NO", False), ("0", False),
        ],
    )
    def test_lamarckian_spellings(self, tmp_path, files, text, value):
        config = SMALL_RUN + ML.format(**files) + f"lamarckian = {text}\n"
        spec = parse_config(write_config(tmp_path, config))
        assert spec.fitness_params["lamarckian"] is value

    def test_seed_option_writes_what_the_seed_key_writes(self, tmp_path):
        seed_11 = SMOKE_CONFIG.replace("seed = 3", "seed = 11")
        by_key = write_config(tmp_path, seed_11, "key.properties")
        by_option = write_config(tmp_path, SMOKE_CONFIG, "option.properties")

        def run(config, *options):
            return main(["run", str(config), *options, "--quiet"])

        assert run(by_key, "--out", str(tmp_path / "key")) == 0
        assert run(by_option, "--seed", "11", "--out", str(tmp_path / "option")) == 0
        assert run(by_option, "--out", str(tmp_path / "three")) == 0
        assert snapshot(tmp_path / "key") == snapshot(tmp_path / "option")
        assert snapshot(tmp_path / "key") != snapshot(tmp_path / "three")


def snapshot(out):
    return {
        str(f.relative_to(out)): f.read_bytes()
        for f in sorted(out.rglob("*"))
        if f.is_file()
    }


def ml_config(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("0.1,0.9,0\n0.8,0.2,1\n0.3,0.7,0\n0.9,0.1,1\n")
    return (
        f"fitness = ml\ndataset = {data}\ntrain_steps = 3\nn_qubits = 2\n"
        "depth = 2\npopulation_size = 4\ngenerations = 2\nseed = 5\n"
    )


OVERLAP_CONFIGS = {
    "fidelity": lambda tmp_path: (
        "fitness = fidelity\nn_qubits = 2\ndepth = 3\npopulation_size = 6\n"
        "generations = 3\nseed = 5\ntarget_seeds = 0, 1\nn_repeats = 2\n"
    ),
    "ml": ml_config,
    "entanglement": lambda tmp_path: (
        "fitness = entanglement\nn_qubits = 3\nmin_qubits = 2\nmax_qubits = 4\n"
        "depth = 3\nmax_depth = 6\npopulation_size = 6\ngenerations = 3\n"
        "crossover_method = blockwise\nmutation_prob = 0.5\nseed = 5\n"
        "n_repeats = 2\n"
    ),
}


class UnpicklableArgsError(Exception):
    """Pickles, but cannot be rebuilt from its pickle: __init__ takes two
    arguments and the pickle holds one."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def local_error(*args):
    class LocalError(Exception):
        pass

    raise LocalError("cannot be pickled")


def two_argument_error(*args):
    raise UnpicklableArgsError("baseline", "cannot be unpickled")


class TestBaselineAlongside:
    """`qcevolve run` runs each random baseline in a forked child while the
    GA runs in this process, or in this process after the GA where it
    cannot fork or has one CPU. Both paths give the same outputs and the
    same errors, and leave no child behind."""

    @pytest.fixture(autouse=True)
    def no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def use(monkeypatch, path):
        cpus = 2 if path == "forked" else 1
        monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)

    def run(self, tmp_path, monkeypatch, path, text):
        self.use(monkeypatch, path)
        cfg = write_config(tmp_path, text, name=f"{path}.properties")
        out = tmp_path / path
        return main(["run", str(cfg), "--out", str(out), "--quiet"]), out

    @pytest.mark.parametrize("fitness", sorted(OVERLAP_CONFIGS))
    def test_both_paths_write_identical_bytes(self, tmp_path, monkeypatch, fitness):
        text = OVERLAP_CONFIGS[fitness](tmp_path)
        forked, out_f = self.run(tmp_path, monkeypatch, "forked", text)
        in_process, out_p = self.run(tmp_path, monkeypatch, "in_process", text)
        assert forked == in_process == 0
        files = snapshot(out_f)
        assert files == snapshot(out_p)
        assert len(files) > 2

    def test_forked_child_really_runs_the_baseline(self, tmp_path, monkeypatch):
        pids = []

        def record_pid(*args):
            pids.append(os.getpid())
            return real(*args)

        real = cli.random_baseline
        monkeypatch.setattr(cli, "random_baseline", record_pid)
        code, _ = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        assert code == 0
        assert pids == []  # appended in the child, not here
        code, _ = self.run(tmp_path, monkeypatch, "in_process", SMOKE_CONFIG)
        assert code == 0
        assert pids == [os.getpid()]

    def test_failed_fork_runs_the_baseline_here(self, tmp_path, monkeypatch):
        def no_fork():
            raise BlockingIOError("no process to spare")

        monkeypatch.setattr(os, "fork", no_fork)
        code, out = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        monkeypatch.undo()
        assert code == 0
        code, expected = self.run(tmp_path, monkeypatch, "in_process", SMOKE_CONFIG)
        assert snapshot(out) == snapshot(expected)

    def test_failed_pipe_runs_the_baseline_here(self, tmp_path, monkeypatch):
        def no_pipe():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", no_pipe)
        code, out = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        monkeypatch.undo()
        assert code == 0
        code, expected = self.run(tmp_path, monkeypatch, "in_process", SMOKE_CONFIG)
        assert snapshot(out) == snapshot(expected)

    def test_unwritable_artifact_after_a_forked_pair(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "forked"
        out.mkdir()
        (out / "target0_rep0").write_text("")
        code, _ = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        assert code == 1
        assert capsys.readouterr().err == (
            f"run failed: cannot write {out / 'target0_rep0'}: File exists\n"
        )

    def test_one_child_at_a_time_reaped_after_its_artifacts(self, tmp_path, monkeypatch):
        unreaped, most, written = set(), [], []

        def fork():
            pid = real_fork()
            if pid:
                unreaped.add(pid)
                most.append(len(unreaped))
            return pid

        def waitpid(pid, options):
            done = real_waitpid(pid, options)
            if done[0] in unreaped:
                unreaped.remove(done[0])
                written.append(len(list(out.glob("target*_rep0/trace.csv"))))
            return done

        real_fork, real_waitpid = os.fork, os.waitpid
        monkeypatch.setattr(os, "fork", fork)
        monkeypatch.setattr(os, "waitpid", waitpid)
        text = SMOKE_CONFIG.replace("target_seeds = 0", "target_seeds = 0,1,2,3")
        out = tmp_path / "forked"
        code, _ = self.run(tmp_path, monkeypatch, "forked", text)
        monkeypatch.undo()
        assert code == 0
        assert most == [1, 1, 1, 1]
        assert not unreaped
        assert written == [1, 2, 3, 4]  # each after its own pair's artifacts
        code, expected = self.run(tmp_path, monkeypatch, "in_process", text)
        assert snapshot(out) == snapshot(expected)

    @pytest.mark.parametrize("path", ["forked", "in_process"])
    def test_baseline_error_is_a_run_failure(self, tmp_path, monkeypatch, capsys, path):
        def broken(*args):
            raise QcevolveError("baseline broke")

        monkeypatch.setattr(cli, "random_baseline", broken)
        code, out = self.run(tmp_path, monkeypatch, path, SMOKE_CONFIG)
        assert code == 1
        assert capsys.readouterr().err == "run failed: baseline broke\n"
        assert not (out / "target0_rep0").exists()

    @pytest.mark.parametrize("path", ["forked", "in_process"])
    @pytest.mark.parametrize("baseline", ["slow", "failing"])
    def test_ga_error_wins_and_the_child_is_reaped(
        self, tmp_path, monkeypatch, capsys, path, baseline
    ):
        def ga_broke(*args):
            raise QcevolveError("ga broke")

        def slow(*args):
            time.sleep(60)

        def failing(*args):
            raise QcevolveError("baseline broke")

        monkeypatch.setattr(cli, "evolve", ga_broke)
        monkeypatch.setattr(cli, "random_baseline", {"slow": slow, "failing": failing}[baseline])
        t0 = time.monotonic()
        code, _ = self.run(tmp_path, monkeypatch, path, SMOKE_CONFIG)
        assert code == 1
        assert capsys.readouterr().err == "run failed: ga broke\n"
        assert time.monotonic() - t0 < 30  # the slow child was killed

    @pytest.mark.parametrize("path", ["forked", "in_process"])
    def test_ga_interrupt_propagates_and_the_child_is_reaped(self, tmp_path, monkeypatch, path):
        interrupt = KeyboardInterrupt("stop")
        calls = []

        def ga_interrupted(*args):
            raise interrupt

        def slow(*args):
            calls.append(os.getpid())
            time.sleep(60)

        monkeypatch.setattr(cli, "evolve", ga_interrupted)
        monkeypatch.setattr(cli, "random_baseline", slow)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt) as exc:
            self.run(tmp_path, monkeypatch, path, SMOKE_CONFIG)
        assert exc.value is interrupt
        assert time.monotonic() - t0 < 30  # the slow child was killed
        assert calls == []  # in the child, or never

    @pytest.mark.parametrize("path", ["forked", "in_process"])
    def test_diverging_training_is_a_run_failure(self, tmp_path, monkeypatch, capsys, path):
        # at seed 2 the first circuit trained has a gradient of 1.97 > 1.8,
        # so its first step overflows; at most seeds every gradient is
        # smaller, and the angle stops at the finite-difference check below
        text = ml_config(tmp_path) + "learning_rate = 1e308\ngate_set = rx,ry,rz\n"
        text = text.replace("depth = 2", "depth = 3").replace("seed = 5", "seed = 2")
        code, out = self.run(tmp_path, monkeypatch, path, text)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("run failed: fitness 'ml': training step ")
        assert err.endswith(" left a rotation angle that is not finite (learning_rate = 1e+308)\n")
        assert err.count("\n") == 1
        assert not (out / "target0_rep0").exists()

    @pytest.mark.parametrize("path", ["forked", "in_process"])
    def test_frozen_training_is_a_run_failure(self, tmp_path, monkeypatch, capsys, path):
        # every gradient is at most 4, so no angle overflows, but one step
        # takes some angle past 5e12, where theta +- FD_STEP is one float
        text = ml_config(tmp_path) + "learning_rate = 1e20\n"
        code, out = self.run(tmp_path, monkeypatch, path, text)
        assert code == 1
        assert capsys.readouterr().err == (
            "run failed: fitness 'ml': training step 1 left a rotation angle too "
            "large for the finite-difference step FD_STEP = 0.001 (learning_rate = 1e+20)\n"
        )
        assert not (out / "target0_rep0").exists()

    def test_child_killed_by_a_signal(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(
            cli, "random_baseline", lambda *args: os.kill(os.getpid(), signal.SIGKILL)
        )
        code, _ = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        assert code == 1
        assert capsys.readouterr().err == (
            "run failed: the random baseline's process ended without a result "
            "(killed by signal SIGKILL)\n"
        )

    def test_child_that_exits_early(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "random_baseline", lambda *args: os._exit(3))
        code, _ = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        assert code == 1
        assert "ended without a result (exit status 3)" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "raiser, message",
        [
            (local_error, "LocalError: cannot be pickled"),
            (two_argument_error, "UnpicklableArgsError: baseline: cannot be unpickled"),
        ],
    )
    def test_exception_that_cannot_travel(self, tmp_path, monkeypatch, capsys, raiser, message):
        monkeypatch.setattr(cli, "random_baseline", raiser)
        code, _ = self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        assert code == 1
        assert capsys.readouterr().err == f"run failed: {message}\n"

    def test_other_errors_keep_their_type_and_the_child_traceback(
        self, tmp_path, monkeypatch
    ):
        def buggy(*args):
            return 1 / 0

        monkeypatch.setattr(cli, "random_baseline", buggy)
        with pytest.raises(ZeroDivisionError) as exc:
            self.run(tmp_path, monkeypatch, "forked", SMOKE_CONFIG)
        cause = str(exc.value.__cause__)
        assert "in the random baseline's process" in cause
        assert "return 1 / 0" in cause

    @pytest.mark.parametrize("path", ["forked", "in_process"])
    def test_each_line_is_printed_once(self, tmp_path, monkeypatch, path):
        def chatty(*args):
            print("baseline says hi")
            return real(*args)

        real = cli.random_baseline
        monkeypatch.setattr(cli, "random_baseline", chatty)
        self.use(monkeypatch, path)
        text = SMOKE_CONFIG.replace("n_repeats = 1", "n_repeats = 3")
        spec = parse_config(write_config(tmp_path, text))
        spec = type(spec)(**{**spec.__dict__, "output_dir": str(tmp_path / "out")})
        # block-buffered, as stdout is when it is a file or a pipe
        with open(tmp_path / "stdout.txt", "w") as stream:
            monkeypatch.setattr(sys, "stdout", stream)
            assert run_experiment(spec) == 0
        lines = (tmp_path / "stdout.txt").read_text().splitlines()
        assert lines.count("baseline says hi") == 3
        assert [line.split(":")[0] for line in lines if line.startswith("target")] == [
            "target0 repeat 0", "target0 repeat 1", "target0 repeat 2"
        ]
