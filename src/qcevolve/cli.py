"""Experiment runner CLI: property-file parsing, GA + baseline orchestration,
and artifact output (CSV traces, circuit documents, QASM, SVG plot)."""
from __future__ import annotations

import argparse
import inspect
import os
import pickle
import signal
import sys
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .circuit import deserialize, export_qasm, random_circuit, serialize
from .engine import (
    GenerationRecord,
    RunConfig,
    evolve,
    make_rng_streams,
    random_baseline,
)
from .errors import ConfigurationError, ParseError, QcevolveError
from .fitness import (
    FidelityFitness,
    FitnessFunction,
    get_fitness_constructor,
    load_dataset,
)
from .gates import FULL_GATE_SET, parse_gate_set
from .simulator import fidelity, simulate


@dataclass(frozen=True)
class ExperimentSpec:
    run_config: RunConfig
    fitness_name: str = "fidelity"
    fitness_params: dict = None  # type: ignore[assignment]
    n_repeats: int = 1
    target_seeds: tuple[int, ...] = (0,)
    target_file: str | None = None
    target_gate_set: frozenset = FULL_GATE_SET
    output_dir: str = "runs"


def _parse_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"not a boolean: {value}")


def _parse_int_list(value: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in value.split(",") if v.strip())


def _parse_float_list(value: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in value.split(",") if v.strip())


# key -> (destination, parser); destinations: run config, fitness, experiment
_RUN_KEYS = {
    "population_size": int,
    "generations": int,
    "n_qubits": int,
    "depth": int,
    "min_qubits": int,
    "max_qubits": int,
    "max_depth": int,
    "crossover_prob": float,
    "mutation_prob": float,
    "crossover_method": str,
    "crossover_points": int,
    "parent_selection": str,
    "survivor_selection": str,
    "tournament_size": int,
    "elitism": int,
    "gate_set": parse_gate_set,
    "mutation_weights": _parse_float_list,
    "seed": int,
    "children_per_generation": int,
}
_FITNESS_KEYS = {
    "fitness": str,
    "depth_weight": float,
    "dataset": str,
    "train_steps": int,
    "learning_rate": float,
    "lamarckian": _parse_bool,
}
_EXPERIMENT_KEYS = {
    "n_repeats": int,
    "target_seeds": _parse_int_list,
    "target_file": str,
    "target_gate_set": parse_gate_set,
    "output_dir": str,
}


def _read_input(path: str | Path) -> str:
    """Text of an input file; an unreadable file is a configuration error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read {path}: {exc}") from None


def parse_config(path: str | Path) -> ExperimentSpec:
    """Parse a `key = value` property file into an ExperimentSpec."""
    run_kwargs: dict = {}
    fitness_kwargs: dict = {}
    exp_kwargs: dict = {}
    for line_no, raw in enumerate(_read_input(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        for table, kwargs in (
            (_RUN_KEYS, run_kwargs),
            (_FITNESS_KEYS, fitness_kwargs),
            (_EXPERIMENT_KEYS, exp_kwargs),
        ):
            if key in table:
                if key in kwargs:
                    raise ConfigurationError(f"{path}:{line_no}: duplicate key '{key}'")
                try:
                    kwargs[key] = table[key](value)
                except (ValueError, ConfigurationError) as exc:
                    raise ConfigurationError(
                        f"{path}:{line_no}: bad value for '{key}': {exc}"
                    ) from None
                break
        else:
            raise ConfigurationError(f"{path}:{line_no}: unknown key '{key}'")
    try:
        run_config = RunConfig(**run_kwargs).resolved()
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    fitness_name = fitness_kwargs.pop("fitness", "fidelity")
    spec = ExperimentSpec(
        run_config=run_config,
        fitness_name=fitness_name,
        fitness_params=fitness_kwargs,
        **exp_kwargs,
    )
    if spec.n_repeats < 1:
        raise ConfigurationError(f"{path}: n_repeats must be >= 1")
    if spec.target_file is not None and "target_seeds" in exp_kwargs:
        raise ConfigurationError(
            f"{path}: target_seeds and target_file are mutually exclusive"
        )
    return spec


# ---------------------------------------------------------------------------
# statevector files


def write_statevector(state: np.ndarray, path: Path) -> None:
    lines = [f"{amp.real:.17g} {amp.imag:.17g}" for amp in state]
    path.write_text("\n".join(lines) + "\n")


def read_statevector(path: str | Path) -> np.ndarray:
    amps = []
    for line_no, line in enumerate(_read_input(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"{path}:{line_no}: expected 're im'")
        try:
            amps.append(complex(float(parts[0]), float(parts[1])))
        except ValueError:
            raise ParseError(f"{path}:{line_no}: not numeric") from None
    state = np.array(amps, dtype=complex)
    n = int(np.log2(len(state))) if len(state) else 0
    if len(state) == 0 or 2**n != len(state):
        raise ParseError(f"{path}: amplitude count {len(state)} is not a power of two")
    return state


# ---------------------------------------------------------------------------
# artifacts


def emit_trace_csv(trace: list[GenerationRecord], path: Path) -> None:
    if not trace:
        raise ValueError("trace is empty")
    rows = ["generation,best_fitness,mean_fitness,baseline_best_fitness"]
    for rec in trace:
        rows.append(
            f"{rec.generation},{rec.best_fitness:.17g},"
            f"{rec.mean_fitness:.17g},{rec.baseline_best_fitness:.17g}"
        )
    path.write_text("\n".join(rows) + "\n")


def _svg_path(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def emit_convergence_svg(
    traces: list[list[GenerationRecord]], path: Path
) -> None:
    """Convergence plot: mean and 95% CI of best / average / baseline across runs."""
    if not traces:
        raise ValueError("no runs to plot")
    n_gen = min(len(t) for t in traces)
    gens = np.arange(n_gen)
    series = {
        "best": np.array([[r.best_fitness for r in t[:n_gen]] for t in traces]),
        "average": np.array([[r.mean_fitness for r in t[:n_gen]] for t in traces]),
        "random baseline": np.array(
            [[r.baseline_best_fitness for r in t[:n_gen]] for t in traces]
        ),
    }
    colors = {"best": "#1f77b4", "average": "#ff7f0e", "random baseline": "#2ca02c"}
    width, height = 640, 480
    left, right, top, bottom = 60, 620, 20, 440

    def to_x(g):
        span = max(n_gen - 1, 1)
        return left + (right - left) * g / span

    def to_y(v):
        v = np.clip(v, 0.0, 1.0)
        return bottom - (bottom - top) * v

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{left}" y1="{bottom}" x2="{right}" y2="{bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{bottom}" stroke="black"/>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = to_y(frac)
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.0f}" font-size="12" '
            f'text-anchor="end">{frac:g}</text>'
        )
        parts.append(
            f'<line x1="{left}" y1="{y:.0f}" x2="{right}" y2="{y:.0f}" '
            f'stroke="#dddddd"/>'
        )
    for frac in (0.0, 0.5, 1.0):
        g = frac * (n_gen - 1)
        parts.append(
            f'<text x="{to_x(g):.0f}" y="{bottom + 18}" font-size="12" '
            f'text-anchor="middle">{g:.0f}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.0f}" y="{height - 6}" font-size="13" '
        f'text-anchor="middle">generation</text>'
    )
    parts.append(
        f'<text x="16" y="{(top + bottom) / 2:.0f}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(top + bottom) / 2:.0f})">'
        f"fitness</text>"
    )
    n_runs = len(traces)
    for i, (label, values) in enumerate(series.items()):
        mean = values.mean(axis=0)
        xs = np.array([to_x(g) for g in gens])
        ys = np.array([to_y(v) for v in mean])
        if n_runs >= 2:
            stderr = values.std(axis=0, ddof=1) / np.sqrt(n_runs)
            hi = np.array([to_y(v) for v in mean + 1.96 * stderr])
            lo = np.array([to_y(v) for v in mean - 1.96 * stderr])
            band = _svg_path(xs, hi) + " " + _svg_path(xs[::-1], lo[::-1])
            parts.append(
                f'<polygon points="{band}" fill="{colors[label]}" '
                f'fill-opacity="0.2" stroke="none"/>'
            )
        parts.append(
            f'<polyline points="{_svg_path(xs, ys)}" fill="none" '
            f'stroke="{colors[label]}" stroke-width="1.5"/>'
        )
        ly = top + 16 + 16 * i
        parts.append(
            f'<line x1="{left + 10}" y1="{ly}" x2="{left + 34}" y2="{ly}" '
            f'stroke="{colors[label]}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{left + 40}" y="{ly + 4}" font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# experiment orchestration


def _build_targets(spec: ExperimentSpec) -> list[tuple[str, np.ndarray | None]]:
    cfg = spec.run_config
    if spec.fitness_name != "fidelity":
        return [("target0", None)]
    if spec.target_file is not None:
        state = read_statevector(spec.target_file)
        if len(state) != 2**cfg.n_qubits:
            raise ConfigurationError(
                f"target statevector has {len(state)} amplitudes, "
                f"expected {2 ** cfg.n_qubits}"
            )
        return [("target0", state)]
    targets = []
    for i, target_seed in enumerate(spec.target_seeds):
        rng = np.random.default_rng(target_seed)
        target_circuit = random_circuit(
            cfg.n_qubits, cfg.depth, spec.target_gate_set, rng
        )
        targets.append((f"target{i}", simulate(target_circuit)))
    return targets


def _make_fitness(spec: ExperimentSpec, target: np.ndarray | None) -> FitnessFunction:
    params = dict(spec.fitness_params or {})
    args: tuple = ()
    if spec.fitness_name == "fidelity":
        ctor, args = FidelityFitness, (target,)
        params["max_depth"] = spec.run_config.resolved().max_depth
    else:
        ctor = get_fitness_constructor(spec.fitness_name)
    try:
        # names a key the constructor does not take, or one it needs
        inspect.signature(ctor).bind(*args, **params)
    except TypeError as exc:
        raise ConfigurationError(f"fitness '{spec.fitness_name}': {exc}") from None
    if spec.fitness_name == "ml":
        params["dataset"] = load_dataset(params["dataset"])
    return ctor(*args, **params)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _child(read_fd: int, write_fd: int, fn, args) -> None:
    """Body of the forked child, which never returns: pickle (True,
    fn(*args), None), or (False, the exception, its traceback), into
    `write_fd`, flush the child's own output and leave through os._exit,
    so that no parent-side cleanup or atexit handler runs. An exception
    that does not survive pickling is sent as a QcevolveError naming its
    type and message."""
    code = 1
    try:
        # with no read end left once the parent is gone, the write below
        # fails instead of blocking on a full pipe
        os.close(read_fd)
        try:
            data = pickle.dumps((True, fn(*args), None))
        except BaseException as exc:  # interrupts too: the parent re-raises it
            tb = "".join(traceback.format_exception(exc))
            try:
                data = pickle.dumps((False, exc, tb))
                pickle.loads(data)
            except Exception:
                error = QcevolveError(f"{type(exc).__name__}: {exc}")
                data = pickle.dumps((False, error, tb))
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(data)
        code = 0
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


@contextmanager
def _alongside(fn, *args):
    """Run `fn(*args)` while the with-block runs. The block gets a callable
    that returns fn's result, or raises what fn raised.

    With os.fork and at least two usable CPUs, fn starts in a forked child
    on entry. The callable waits for the child's pickled reply and reaps
    it; a child that ends without one is a QcevolveError naming its exit
    status or signal. A block that ends without calling it kills the child
    with SIGKILL and reaps it. If this process itself is killed, the child
    runs on until fn returns: its write to the pipe then fails and it
    exits. Otherwise, or when no process can be forked, fn runs in this
    process when the callable is called.
    """
    pid = None
    if hasattr(os, "fork") and _usable_cpus() >= 2:
        # flushed here, the parent's pending output cannot be written twice
        sys.stdout.flush()
        sys.stderr.flush()
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid is None:
        yield lambda: fn(*args)
        return
    if pid == 0:
        _child(read_fd, write_fd, fn, args)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    status = None

    def result():
        nonlocal status
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        code = os.waitstatus_to_exitcode(status)
        if code != 0 or not data:
            how = (
                f"killed by signal {signal.Signals(-code).name}"
                if code < 0
                else f"exit status {code}"
            )
            raise QcevolveError(
                f"the random baseline's process ended without a result ({how})"
            )
        ok, value, tb = pickle.loads(data)
        if ok:
            return value
        raise value from RuntimeError(f"in the random baseline's process:\n{tb}")

    try:
        yield result
    finally:
        pipe.close()
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def run_experiment(spec: ExperimentSpec, quiet: bool = False) -> int:
    """Run GA + baseline for every target x repeat; write all artifacts."""
    cfg = spec.run_config.resolved()
    out_dir = Path(spec.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    targets = _build_targets(spec)
    all_traces: list[list[GenerationRecord]] = []
    summary_rows = ["run,target,repeat,best_fitness,final_mean_fitness,baseline_best_fitness"]
    run_index = 0
    for t_idx, (target_name, target) in enumerate(targets):
        fitness_fn = _make_fitness(spec, target)
        for rep in range(spec.n_repeats):
            label = f"t{t_idx}r{rep}"
            streams = make_rng_streams(cfg.seed, [f"{label}/ga", f"{label}/baseline"])
            with _alongside(
                random_baseline, cfg, fitness_fn, streams[f"{label}/baseline"]
            ) as baseline_result:
                best, trace = evolve(cfg, fitness_fn, streams[f"{label}/ga"])
                baseline = baseline_result()
            trace = [
                replace(rec, baseline_best_fitness=baseline[i])
                for i, rec in enumerate(trace)
            ]
            run_dir = out_dir / f"{target_name}_rep{rep}"
            run_dir.mkdir(parents=True, exist_ok=True)
            emit_trace_csv(trace, run_dir / "trace.csv")
            (run_dir / "best_circuit.json").write_text(serialize(best.circuit) + "\n")
            (run_dir / "best_circuit.qasm").write_text(export_qasm(best.circuit))
            if target is not None:
                write_statevector(target, run_dir / "target_state.txt")
            best_fit = max(rec.best_fitness for rec in trace)
            base_best = max(rec.baseline_best_fitness for rec in trace)
            summary_rows.append(
                f"{run_index},{t_idx},{rep},{best_fit:.17g},"
                f"{trace[-1].mean_fitness:.17g},{base_best:.17g}"
            )
            all_traces.append(trace)
            if not quiet:
                print(
                    f"{target_name} repeat {rep}: best={best_fit:.6f} "
                    f"baseline={base_best:.6f}"
                )
            run_index += 1
    (out_dir / "summary.csv").write_text("\n".join(summary_rows) + "\n")
    emit_convergence_svg(all_traces, out_dir / "convergence.svg")
    return 0


# ---------------------------------------------------------------------------
# entry point


def _cmd_run(args: argparse.Namespace) -> int:
    spec = parse_config(args.config)
    if args.seed is not None:
        spec = replace(spec, run_config=replace(spec.run_config, seed=args.seed))
    if args.out is not None:
        spec = replace(spec, output_dir=args.out)
    return run_experiment(spec, quiet=args.quiet)


def _cmd_eval(args: argparse.Namespace) -> int:
    circ = deserialize(_read_input(args.circuit))
    target = read_statevector(args.target)
    if len(target) != 2**circ.n_qubits:
        raise ConfigurationError(
            f"target has {len(target)} amplitudes, the {circ.n_qubits}-qubit "
            f"circuit needs {2 ** circ.n_qubits}"
        )
    score = fidelity(simulate(circ), target)
    print(f"fidelity = {score:.12f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qcevolve",
        description="Evolve quantum circuits with a genetic algorithm",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run an experiment from a property file")
    p_run.add_argument("config")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--quiet", action="store_true")
    p_run.set_defaults(func=_cmd_run)
    p_eval = sub.add_parser("eval", help="score one circuit against a target state")
    p_eval.add_argument("circuit")
    p_eval.add_argument("--target", required=True)
    p_eval.set_defaults(func=_cmd_eval)
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigurationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QcevolveError as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
