"""Experiment runner CLI: property-file parsing, GA + baseline orchestration,
and artifact output (CSV traces, circuit documents, QASM, SVG plot)."""
from __future__ import annotations

import argparse
import cmath
import inspect
import os
import pickle
import signal
import sys
import traceback
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .circuit import check_gate_set, deserialize, export_qasm, random_circuit, serialize
from .engine import (
    GenerationRecord,
    RunConfig,
    evolve,
    make_rng_streams,
    random_baseline,
)
from .errors import ConfigurationError, ParseError, QcevolveError
from .fitness import FitnessFunction, get_fitness_constructor, load_dataset
from .gates import FULL_GATE_SET, parse_gate_set
from .simulator import fidelity, simulate


@dataclass(frozen=True)
class ExperimentSpec:
    run_config: RunConfig
    fitness_name: str = "fidelity"
    fitness_params: dict = field(default_factory=dict)
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


def _parse_target_seeds(value: str) -> tuple[int, ...]:
    seeds = tuple(int(v.strip()) for v in value.split(",") if v.strip())
    if not seeds:
        raise ValueError("names no seed")
    if min(seeds) < 0:
        raise ValueError(f"seed {min(seeds)} is negative")
    return seeds


def _parse_float_list(value: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in value.split(",") if v.strip())


# key -> parser, one table per destination: the run config, the fitness, the experiment
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
    "target_seeds": _parse_target_seeds,
    "target_file": str,
    "target_gate_set": parse_gate_set,
    "output_dir": str,
}
_TARGET_KEYS = ("target_seeds", "target_file", "target_gate_set")


def _reads_target(fitness_name: str) -> bool:
    """Whether the fitness reads a target state, set by _TARGET_KEYS."""
    return fitness_name == "fidelity"


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
    unread = [key for key in exp_kwargs if key in _TARGET_KEYS]
    if unread and not _reads_target(fitness_name):
        raise ConfigurationError(
            f"{path}: {unread[0]} is read only by fitness 'fidelity'"
        )
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
    try:
        check_gate_set(spec.target_gate_set, run_config.n_qubits, "target_gate_set")
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    return spec


# ---------------------------------------------------------------------------
# statevector files


def write_statevector(state: np.ndarray, path: Path) -> None:
    """One `re im` pair per line, each part in repr-exact `%.17g`."""
    parts = np.ascontiguousarray(state, dtype=complex).view(float).tolist()
    path.write_text("%.17g %.17g\n" * len(state) % tuple(parts))


_NORM_TOLERANCE = 1e-6  # a target's squared norm may differ from 1 by this


def _read_pairs(text: str) -> np.ndarray | None:
    """The amplitudes of a well-formed statevector text in one np.loadtxt
    call over the lines read_statevector's loop reads, or None where that
    loop must read them: any fault, for a message naming the line."""
    if not text or text.isspace():
        return None
    try:
        pairs = np.loadtxt(text.splitlines(), dtype=float, comments=None, ndmin=2)
    except ValueError:
        return None
    if pairs.shape[1] != 2 or not np.isfinite(pairs).all():
        return None
    return pairs.view(complex).ravel()


def read_statevector(path: str | Path) -> np.ndarray:
    """One `re im` pair per line; finite, with a squared norm of 1."""
    text = _read_input(path)
    state = _read_pairs(text)
    if state is None:
        amps = []
        for line_no, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(f"{path}:{line_no}: expected 're im'")
            try:
                amp = complex(float(parts[0]), float(parts[1]))
            except ValueError:
                raise ParseError(f"{path}:{line_no}: not numeric") from None
            if not cmath.isfinite(amp):
                raise ParseError(f"{path}:{line_no}: amplitude is not finite")
            amps.append(amp)
        state = np.array(amps, dtype=complex)
    n = int(np.log2(len(state))) if len(state) else 0
    if len(state) == 0 or 2**n != len(state):
        raise ParseError(f"{path}: amplitude count {len(state)} is not a power of two")
    norm = float(np.vdot(state, state).real)
    if abs(norm - 1.0) > _NORM_TOLERANCE:
        raise ParseError(
            f"{path}: squared norm {norm:.17g} is not within {_NORM_TOLERANCE:g} of 1"
        )
    return state


# ---------------------------------------------------------------------------
# artifacts


def emit_trace_csv(
    trace: list[GenerationRecord], baseline: list[float], path: Path
) -> None:
    """One row per generation; `baseline` is what `random_baseline` returned."""
    if not trace:
        raise ValueError("trace is empty")
    rows = ["generation,best_fitness,mean_fitness,baseline_best_fitness"]
    for rec, base in zip(trace, baseline, strict=True):
        rows.append(
            f"{rec.generation},{rec.best_fitness:.17g},"
            f"{rec.mean_fitness:.17g},{base:.17g}"
        )
    path.write_text("\n".join(rows) + "\n")


def _svg_path(xs: np.ndarray, ys: np.ndarray) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))


def emit_convergence_svg(
    traces: list[list[GenerationRecord]], baselines: list[list[float]], path: Path
) -> None:
    """Convergence plot: mean and 95% CI of best / average / baseline across runs."""
    if not traces:
        raise ValueError("no runs to plot")
    n_gen = min(len(t) for t in traces)
    gens = np.arange(n_gen)
    series = {
        "best": np.array([[r.best_fitness for r in t[:n_gen]] for t in traces]),
        "average": np.array([[r.mean_fitness for r in t[:n_gen]] for t in traces]),
        "random baseline": np.array([b[:n_gen] for b in baselines]),
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


def _build_targets(spec: ExperimentSpec) -> list[np.ndarray | None]:
    cfg = spec.run_config
    if not _reads_target(spec.fitness_name):
        return [None]
    if spec.target_file is not None:
        state = read_statevector(spec.target_file)
        if len(state) != 2**cfg.n_qubits:
            raise ConfigurationError(
                f"target_file {spec.target_file} has {len(state)} amplitudes, "
                f"n_qubits = {cfg.n_qubits} needs {2 ** cfg.n_qubits}"
            )
        return [state]
    return [
        simulate(random_circuit(cfg.n_qubits, cfg.depth, spec.target_gate_set, rng))
        for rng in map(np.random.default_rng, spec.target_seeds)
    ]


def _make_fitness(
    spec: ExperimentSpec, cfg: RunConfig, target: np.ndarray | None
) -> FitnessFunction:
    """The spec's fitness; `cfg` is its resolved run config."""
    ctor = get_fitness_constructor(spec.fitness_name)
    params = dict(spec.fitness_params)
    if target is not None:
        params.update(target=target, max_depth=cfg.max_depth)
    try:
        # names a key the constructor does not take, or one it needs
        inspect.signature(ctor).bind(**params)
    except TypeError as exc:
        raise ConfigurationError(f"fitness '{spec.fitness_name}': {exc}") from None
    if spec.fitness_name == "ml":
        params["dataset"] = load_dataset(params["dataset"])
    return ctor(**params)


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


def _search_pair(cfg: RunConfig, fitness_fn: FitnessFunction, ga_rng, baseline_rng):
    """Run the GA and the random baseline on one budget; return the GA's
    (best, trace), the baseline's per-generation best and the pid of a
    child still to reap, or None, as a 4-tuple.

    With os.fork and at least two usable CPUs, the baseline runs in a
    forked child while the GA runs here, and the child's pickled reply is
    read. A child that replied with the baseline's result is left for the
    caller to reap with os.waitpid, so this process does not wait while
    the child exits. Any other child is reaped here: one that ends without
    a whole reply is a QcevolveError naming its exit status or signal, and
    one that replies with an error raises it. If the GA raises, or an
    interrupt comes while this process waits, the child is killed with
    SIGKILL and reaped. If this process itself is killed, the child runs on
    until the baseline returns: its write to the pipe then fails and it
    exits. Otherwise, or when no pipe or process can be made, the baseline
    runs here after the GA.
    """
    pid = None
    if hasattr(os, "fork") and _usable_cpus() >= 2:
        # flushed here, the parent's pending output cannot be written twice
        sys.stdout.flush()
        sys.stderr.flush()
        with suppress(OSError):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
    if pid is None:
        best, trace = evolve(cfg, fitness_fn, ga_rng)
        return best, trace, random_baseline(cfg, fitness_fn, baseline_rng), None
    if pid == 0:
        _child(read_fd, write_fd, random_baseline, (cfg, fitness_fn, baseline_rng))
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            best, trace = evolve(cfg, fitness_fn, ga_rng)
            data = pipe.read()
        try:
            ok, value, tb = pickle.loads(data)
        except Exception:  # no reply, or a cut one
            ok = None
        if ok:
            return best, trace, value, pid
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    if ok is None:
        how = f"exit status {code}"
        if code < 0:
            how = f"killed by signal {signal.Signals(-code).name}"
        raise QcevolveError(
            f"the random baseline's process ended without a result ({how})"
        )
    raise value from RuntimeError(f"in the random baseline's process:\n{tb}")


@contextmanager
def _writing_in(directory: Path):
    """Turn an OSError in the block into a QcevolveError naming the file it
    names, or else `directory`."""
    try:
        yield
    except OSError as exc:
        path = exc.filename or directory
        raise QcevolveError(f"cannot write {path}: {exc.strerror or exc}") from None


def run_experiment(spec: ExperimentSpec, quiet: bool = False) -> int:
    """Run GA + baseline for every target x repeat; write all artifacts."""
    cfg = spec.run_config.resolved()
    # every configuration error is raised before the output directory is made
    targets = _build_targets(spec)
    fitnesses = [_make_fitness(spec, cfg, target) for target in targets]
    for fitness_fn in fitnesses:
        fitness_fn.check_qubit_bounds(cfg.min_qubits, cfg.n_qubits, cfg.max_qubits)
    out_dir = Path(spec.output_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {out_dir}: {exc.strerror or exc}"
        ) from None
    all_traces: list[list[GenerationRecord]] = []
    all_baselines: list[list[float]] = []
    summary_rows = ["run,target,repeat,best_fitness,final_mean_fitness,baseline_best_fitness"]
    # the last pair's forked baseline, which has replied but may still be
    # exiting: reaped before the next fork, so at most one is unreaped
    child = None
    try:
        for t_idx, (target, fitness_fn) in enumerate(zip(targets, fitnesses)):
            for rep in range(spec.n_repeats):
                label = f"t{t_idx}r{rep}"
                streams = make_rng_streams(cfg.seed, [f"{label}/ga", f"{label}/baseline"])
                if child is not None:
                    os.waitpid(child, 0)
                    child = None
                best, trace, baseline, child = _search_pair(
                    cfg, fitness_fn, streams[f"{label}/ga"], streams[f"{label}/baseline"]
                )
                run_dir = out_dir / f"target{t_idx}_rep{rep}"
                with _writing_in(run_dir):
                    run_dir.mkdir(parents=True, exist_ok=True)
                    emit_trace_csv(trace, baseline, run_dir / "trace.csv")
                    (run_dir / "best_circuit.json").write_text(serialize(best.circuit) + "\n")
                    (run_dir / "best_circuit.qasm").write_text(export_qasm(best.circuit))
                    if target is not None:
                        write_statevector(target, run_dir / "target_state.txt")
                best_fit = max(rec.best_fitness for rec in trace)
                base_best = max(baseline)
                summary_rows.append(
                    f"{len(all_traces)},{t_idx},{rep},{best_fit:.17g},"
                    f"{trace[-1].mean_fitness:.17g},{base_best:.17g}"
                )
                all_traces.append(trace)
                all_baselines.append(baseline)
                if not quiet:
                    print(
                        f"target{t_idx} repeat {rep}: best={best_fit:.6f} "
                        f"baseline={base_best:.6f}"
                    )
        with _writing_in(out_dir):
            (out_dir / "summary.csv").write_text("\n".join(summary_rows) + "\n")
            emit_convergence_svg(all_traces, all_baselines, out_dir / "convergence.svg")
    finally:
        if child is not None:
            os.waitpid(child, 0)
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
            f"{args.target}: target has {len(target)} amplitudes, the "
            f"{circ.n_qubits}-qubit circuit needs {2 ** circ.n_qubits}"
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
