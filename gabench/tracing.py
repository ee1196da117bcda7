"""Per-module timing of qcevolve, recorded from outside the package.

Each traced function is replaced by a wrapper at the place where its
callers look the name up (`qcevolve.engine.mutate`, `qcevolve.fitness.simulate`,
`qcevolve.simulator.validate`, ...). Fitness objects are traced by wrapping
methods on their classes, so an MLFitness stays an MLFitness for the
engine's isinstance test. Spans nest on one stack; each keeps its duration
and the time its traced children took, so self time is their difference.
"""
from __future__ import annotations

from array import array
from time import perf_counter

import numpy as np

# metric name -> (module, attribute) pairs where callers look the name up
MODULE_SITES = {
    "circuit.random_circuit": [("engine", "random_circuit"), ("cli", "random_circuit")],
    "circuit.validate": [("simulator", "validate")],
    "circuit.repair": [("operators", "repair")],
    "gates.gate_matrix": [("simulator", "gate_matrix")],
    "simulator.simulate": [("fitness", "simulate"), ("cli", "simulate")],
    "simulator.run_gates": [("simulator", "run_gates")],
    "simulator.apply_gate": [("fitness", "apply_gate")],
    "simulator.partial_trace": [("fitness", "partial_trace")],
    "simulator.von_neumann_entropy": [("fitness", "von_neumann_entropy")],
    "operators.select_random": [("engine", "select_random")],
    "operators.select_tournament": [("engine", "select_tournament")],
    "operators.select_roulette": [("engine", "select_roulette")],
    "operators.crossover_single_point": [("engine", "crossover_single_point")],
    "operators.crossover_multi_point": [("engine", "crossover_multi_point")],
    "operators.crossover_blockwise": [("engine", "crossover_blockwise")],
    "operators.mutate": [("engine", "mutate")],
    "engine.evolve": [("cli", "evolve")],
    "engine.random_baseline": [("cli", "random_baseline")],
    "cli.parse_config": [("cli", "parse_config")],
}
# metric name -> (class name in qcevolve.fitness, method)
METHOD_SITES = {
    "fitness.evaluate": [
        ("FidelityFitness", "evaluate"),
        ("EntanglementFitness", "evaluate"),
        ("MLFitness", "evaluate"),
    ],
    "fitness.evaluate_trained": [("MLFitness", "evaluate_trained")],
}
FUNCTIONS = list(MODULE_SITES) + list(METHOD_SITES)
ARTIFACT_SITES = ["emit_trace_csv", "serialize", "export_qasm", "write_statevector", "emit_convergence_svg"]
ENGINE = ("engine.evolve", "engine.random_baseline")
P99_MIN_SAMPLES = 1000  # ten samples beyond the 99th percentile

AMPLITUDE_BYTES = 16  # complex128


class Span:
    """Running totals for one traced name."""

    def __init__(self):
        self.durations = array("d")
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: dict[str, Span] = {}
        self.edge_s: dict[tuple[str, str], float] = {}
        self.stack: list[list] = []  # [name, seconds spent in traced children]
        self.gates_applied = 0
        self.bytes_moved = 0
        self.ga_evals = 0
        self.ga_distinct = 0
        self.ml_simulations = 0
        self.artifact_bytes = 0
        self._seen: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, before=None):
        span = self.spans.setdefault(name, Span())
        stack, edge_s = self.stack, self.edge_s

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                span.durations.append(dt)
                span.child_s += frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    key = (parent[0], name)
                    edge_s[key] = edge_s.get(key, 0.0) + dt

        return traced

    def _patch(self, owner, attr: str, name: str, before=None) -> None:
        original = getattr(owner, attr)
        self._restore.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, before))

    def install(self, modules: dict) -> None:
        """Patch every site; `modules` maps short names ('cli', 'engine',
        ...) to the imported qcevolve submodules."""
        gate_kind, role = modules["gates"].GateKind, modules["circuit"].Role
        identity, control = gate_kind.ID, role.CONTROL

        def count_circuit(args):
            state, circuit = args[0], args[1]
            placed = sum(
                g.kind is not identity and (g.kind.arity == 1 or g.role is control)
                for row in circuit.grid
                for g in row
            )
            self.gates_applied += placed
            self.bytes_moved += placed * 2 * AMPLITUDE_BYTES * len(state)
            if any(frame[0] == "fitness.evaluate_trained" for frame in self.stack):
                self.ml_simulations += 1

        def count_gate(args):
            self.gates_applied += 1
            self.bytes_moved += 2 * AMPLITUDE_BYTES * len(args[0])

        def count_evaluation(args):
            if self.stack and self.stack[-1][0] == "engine.evolve":
                self.ga_evals += 1
                if args[1] not in self._seen:
                    self._seen.add(args[1])
                    self.ga_distinct += 1

        def new_search(args):
            self._seen = set()

        def count_bytes(args):
            self.artifact_bytes += len(args[1].encode())

        hooks = {
            "simulator.run_gates": count_circuit,
            "simulator.apply_gate": count_gate,
            "engine.evolve": new_search,
        }
        for name, sites in MODULE_SITES.items():
            for module, attr in sites:
                self._patch(modules[module], attr, name, hooks.get(name))
        for name, sites in METHOD_SITES.items():
            for cls, attr in sites:
                self._patch(getattr(modules["fitness"], cls), attr, name, count_evaluation)

        cli = modules["cli"]
        for attr in ARTIFACT_SITES:
            self._patch(cli, attr, f"cli.artifact.{attr}")
        base = type(cli.Path())

        class TracedPath(base):
            pass

        TracedPath.write_text = self.wrap("cli.artifact.write_text", base.write_text, count_bytes)
        self._restore.append((cli, "Path", cli.Path))
        cli.Path = TracedPath

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def busy_s(self, name: str) -> float:
        span = self.spans.get(name)
        return float(sum(span.durations)) if span else 0.0

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer figures; counts and times are per experiment (round)."""
        out: dict[str, tuple[float, str]] = {}
        for name in FUNCTIONS:
            d = np.frombuffer(self.spans[name].durations, dtype=float)
            out[f"{name}.calls"] = (len(d) / rounds, "count")
            out[f"{name}.busy_s"] = (float(d.sum()) / rounds, "s")
            out[f"{name}.ms_p50"] = (float(np.percentile(d, 50)) * 1e3 if len(d) else 0.0, "ms")
            p99 = float(np.percentile(d, 99)) * 1e3 if len(d) >= P99_MIN_SAMPLES else 0.0
            out[f"{name}.ms_p99"] = (p99, "ms")
        sim_s = self.busy_s("simulator.run_gates") + self.busy_s("simulator.apply_gate")
        out["simulator.gates_applied"] = (self.gates_applied / rounds, "count")
        out["simulator.bytes_moved_computed"] = (self.bytes_moved / rounds, "B")
        out["simulator.gates_per_s"] = (self.gates_applied / sim_s if sim_s else 0.0, "1/s")
        out["fitness.distinct_ratio"] = (
            self.ga_distinct / self.ga_evals if self.ga_evals else 0.0, "ratio"
        )
        trained = len(self.spans["fitness.evaluate_trained"].durations)
        out["fitness.ml.simulations_per_eval"] = (
            self.ml_simulations / trained if trained else 0.0, "count"
        )
        engine_self = sum(
            self.busy_s(n) - self.spans[n].child_s for n in ENGINE
        )
        out["engine.self_s"] = (engine_self / rounds, "s")
        artifact = [n for n in self.spans if n.startswith("cli.artifact.")]
        nested = sum(
            s for (parent, child), s in self.edge_s.items()
            if parent in artifact and child in artifact
        )
        artifact_s = sum(self.busy_s(n) for n in artifact) - nested
        out["cli.artifacts.busy_s"] = (artifact_s / rounds, "s")
        out["cli.artifact_bytes"] = (self.artifact_bytes / rounds, "B")
        return out

    def summary(self) -> dict:
        """Call-graph totals for the trace file: per name, and per
        (caller, callee) pair of traced names."""
        return {
            "spans": {
                name: {
                    "calls": len(s.durations),
                    "busy_s": float(sum(s.durations)),
                    "self_s": float(sum(s.durations)) - s.child_s,
                }
                for name, s in sorted(self.spans.items())
            },
            "edges_s": {f"{p} -> {c}": s for (p, c), s in sorted(self.edge_s.items())},
        }
