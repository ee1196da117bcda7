"""GA experiment benchmark for qcevolve.

Usage (from the repository root):

    python3 gabench/run.py --workload fidelity-narrow --seed 1 --seconds 25 --trace 0

One process imports qcevolve from ./src and writes the workload's inputs
from the seed: one property file per piece (one GA + baseline run). It then
runs `qcevolve run <piece>` through `cli.main` for every piece in turn, in
whole rounds, until `--seconds` have passed. Times are corrected for host
contention by hostclock.py. Each piece's first output is re-scored by the
independent checker in reference.py, and later outputs must match it byte
for byte. The last line of standard output is one JSON object: end-to-end
metrics with `--trace 0`, per-module metrics with `--trace 1`.
"""
from __future__ import annotations

import os

# one process, one BLAS/OpenMP thread: the load stays within two cores
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import hostclock  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 7
MODULES = ("circuit", "cli", "engine", "fitness", "gates", "operators", "simulator")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def set_up(name: str, seed: int, inputs: Path):
    """Import qcevolve afresh, write the inputs and parse every piece's config.

    Returns ((start, end), cli module, prepared workload, parsed specs)."""
    for mod in [m for m in sys.modules if m == "qcevolve" or m.startswith("qcevolve.")]:
        del sys.modules[mod]
    t0 = perf_counter()
    cli = importlib.import_module("qcevolve.cli")
    prepared = workloads.prepare(name, seed, inputs)
    specs = [cli.parse_config(path) for path in prepared.config_paths]
    return (t0, perf_counter()), cli, prepared, specs


def expected_target(prepared, spec, modules):
    """Target state the checker compares a piece's target file with.

    fidelity-narrow targets come from the program's seeded random_circuit;
    the checker simulates that circuit with its own simulator."""
    if prepared.fitness != "fidelity":
        return None
    if prepared.target is not None:
        return prepared.target
    cfg, circuit = spec.run_config, modules["circuit"]
    (target_seed,) = spec.target_seeds
    rng = np.random.default_rng(target_seed)
    doc = circuit.serialize(
        circuit.random_circuit(cfg.n_qubits, cfg.depth, spec.target_gate_set, rng)
    )
    return reference.simulate(*reference.parse_circuit(doc))


def check_piece(out: Path, prepared, target) -> tuple[list[dict], list[str]]:
    """Returns (summary rows, problems found by the reference checker) for
    the output directory of one piece's `qcevolve run`."""
    try:
        rows = reference.read_summary(out / "summary.csv")
    except OSError as exc:
        return [], [f"summary.csv unreadable: {exc}"]
    problems = []
    if len(rows) != 1:
        problems.append(f"summary.csv has {len(rows)} rows, expected 1")
    if not (out / "convergence.svg").is_file():
        problems.append("convergence.svg missing")
    for row in rows:
        problems += reference.check_run_dir(
            out / f"target{row['target']}_rep{row['repeat']}",
            row,
            prepared.fitness,
            prepared.settings["generations"],
            target=target,
            dataset=prepared.dataset,
        )
    return rows, problems


def snapshot(out: Path) -> dict[str, bytes]:
    """Every output file of one run, by path relative to `out`."""
    return {str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()}


def run_rounds(args, work: Path):
    """Set up, then run whole rounds (every piece once) until `--seconds`
    are used. Returns the figures `main` reports, or an exit code."""
    setups = []
    for _ in range(SETUP_REPEATS):
        span, cli, prepared, specs = set_up(args.workload, args.seed, work / "inputs")
        setups.append(span)
    modules = {name: sys.modules[f"qcevolve.{name}"] for name in MODULES}
    targets = [expected_target(prepared, spec, modules) for spec in specs]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(modules)

    n = len(prepared.pieces)
    round_spans: list[list[tuple[float, float]]] = []
    first: list[dict | None] = [None] * n
    best = [0.0] * n
    problems: list[str] = []
    attempted = failed = 0
    start = perf_counter()
    while True:
        round_start = perf_counter()
        spans = []
        for i, config in enumerate(prepared.config_paths):
            out = work / "out" / f"piece{i:02d}"
            shutil.rmtree(out, ignore_errors=True)
            attempted += 1
            t0 = perf_counter()
            try:
                rc = cli.main(["run", str(config), "--out", str(out), "--quiet"])
            except Exception:  # a crash fails this operation, not the benchmark
                traceback.print_exc()
                rc = -1
            spans.append((t0, perf_counter()))
            if rc != 0:
                failed += 1
                continue
            if first[i] is None:
                # the reference checker re-scores each piece's first output;
                # later runs of the same config must reproduce it byte for byte
                rows, found = check_piece(out, prepared, targets[i])
                problems += [f"piece {i}: {p}" for p in found]
                best[i] = float(rows[0]["best_fitness"]) if rows else 0.0
                first[i] = snapshot(out)
            elif snapshot(out) != first[i]:
                problems.append(f"piece {i}: outputs differ between runs of the same config")
        round_spans.append(spans)
        done = perf_counter()
        if done - start + (done - round_start) > args.seconds:
            break
    if tracer is not None:
        tracer.restore()
    return setups, prepared, round_spans, best, problems, attempted, failed, tracer


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "qcevolve" / "cli.py").is_file():
        print(f"error: no qcevolve sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    with hostclock.HostClock() as clock:
        setups, prepared, round_spans, best, problems, attempted, failed, tracer = (
            run_rounds(args, work)
        )
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    if failed == attempted:
        print("error: every operation failed", file=sys.stderr)
        return 1
    # one experiment = one round over every piece
    rounds = len(round_spans)
    wall = [sum(t1 - t0 for t0, t1 in spans) for spans in round_spans]
    corrected = [sum(clock.corrected(t0, t1) for t0, t1 in spans) for spans in round_spans]
    run_s = statistics.median(corrected)
    probe_us = np.array(clock.took) * 1e6
    print(
        f"rounds {rounds}; round wall s: " + " ".join(f"{w:.3f}" for w in wall)
        + "; corrected s: " + " ".join(f"{c:.3f}" for c in corrected)
        + f"; probe us p10/p50/p90 {np.percentile(probe_us, [10, 50, 90]).round(1).tolist()}",
        file=sys.stderr,
    )
    if tracer is None:
        metrics = {
            "setup_s": (statistics.median(clock.corrected(*span) for span in setups), "s"),
            "run_s": (run_s, "s"),
            "evals_per_s": (prepared.evaluations / run_s, "1/s"),
            "best_fitness": (sum(best) / len(best), "fitness"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    else:
        metrics = tracer.metrics(rounds)
        metrics["bench.traced_run_s"] = (run_s, "s")
        metrics["bench.traced_wall_s"] = (statistics.median(wall), "s")
        metrics["bench.host_slowdown"] = (statistics.mean(clock.took) / hostclock.PROBE_REF_S, "ratio")
        (work / "trace.json").write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "rounds": rounds,
            "metrics": {k: v for k, (v, _) in metrics.items()}, **tracer.summary(),
        }, indent=1) + "\n")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
