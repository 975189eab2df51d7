"""Spans around calls into each layer of `magnonwalk`, recorded from outside.

`Tracer.install()` replaces module attributes of the imported package with
wrappers; `src/` is not modified.  A span is
[name, layer, start, end, parent_index, attrs]; spans stay in memory until
the invocation ends.  `layer_metrics` turns one invocation's spans into
the per-layer metrics the benchmark reports.

Layers are the package's modules: model (with operators), solver,
observables, cli and algebra.  Self time is a span's duration minus the
durations of its direct children, so the layer self times of one
invocation sum to the root span (`cli.main`); what the wrappers cost
shows as the difference to the untraced call.
"""

from __future__ import annotations

import math
import time
import tracemalloc

LAYERS = ("model", "solver", "observables", "cli", "algebra")

# Padé-13 scaling threshold of scipy.linalg.expm (Higham 2005, theta_13).
PADE13_THETA = 5.371920351148152


def _propagator_counts(L, dt):
    """Computed from the operand, not timed: dimension, ||L dt||_1, the
    Padé-13 squaring count and the bytes of the dense complex operand."""
    import numpy as np
    import scipy.sparse as sp

    col_sums = abs(L).sum(axis=0) if sp.issparse(L) else np.abs(L).sum(axis=0)
    norm1 = float(np.max(col_sums)) * abs(dt)
    dim = L.shape[0]
    squarings = max(0, math.ceil(math.log2(norm1 / PADE13_THETA))) if norm1 > 0 else 0
    return {"dim": dim, "norm1": norm1, "squarings": squarings,
            "operand_bytes": dim * dim * 16}


def _checks_counts(reports):
    return {"checks": len(reports), "failed": sum(not r.passed for r in reports)}


def _plan():
    """(module, attribute, span name, layer, attrs(result) or None)."""
    import magnonwalk.algebra as algebra
    import magnonwalk.cli as cli
    import magnonwalk.solver as solver

    return [
        (cli, "main", "cli.main", "cli", None),
        (cli, "run", "cli.run", "cli", None),
        (cli, "_verify", "cli.verify", "cli", None),
        *[(cli, f, "model.build", "model", None)
          for f in ("derive", "pulse_schedule", "hamiltonian_rotframe",
                    "dissipators", "initial_state")],
        (cli, "evolve", "solver.evolve", "solver",
         lambda traj: {"steps": len(traj.times) - 1}),
        (solver, "liouvillian", "solver.liouvillian", "solver",
         lambda L: {"nnz": int(L.nnz)}),
        *[(solver, f, "observables.sample", "observables", None)
          for f in ("mean_number", "qubit_populations")],
        *[(cli, f, "observables.phase", "observables", None)
          for f in ("reduce_boson", "phase_distribution", "sharpness_holevo",
                    "rotate_mode", "loglog_slope")],
        (cli, "wigner", "observables.wigner", "observables",
         lambda g: {"points": int(g.w.size)}),
        (cli, "run_all_checks", "algebra.checks", "algebra", _checks_counts),
        (algebra, "check_hubbard_algebra", "algebra.hubbard", "algebra", None),
        (algebra, "check_contraction", "algebra.contraction", "algebra", None),
        (algebra, "check_mode_decoupling", "algebra.decoupling", "algebra", None),
        (algebra, "check_inhomogeneous_mode", "algebra.inhomogeneous", "algebra", None),
        (algebra, "frohlich_residual", "algebra.frohlich", "algebra", None),
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def begin(self, name: str, layer: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, layer, time.perf_counter(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, module, attr, name, layer, attrs):
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            span = self.begin(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if attrs is not None:
                span[5] = attrs(result)
            return result

        self._restore.append((module, attr, fn))
        setattr(module, attr, traced)

    def _wrap_propagator(self):
        import magnonwalk.solver as solver

        fn = solver.propagator

        def traced(*args, **kwargs):
            counts = _propagator_counts(*args, **kwargs)
            span = self.begin("solver.propagator", "solver")
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                self.end(span)
            span[5] = {**counts, "peak_mb": peak / 1e6}
            return result

        self._restore.append((solver, "propagator", fn))
        solver.propagator = traced

    def install(self) -> None:
        for module, attr, name, layer, attrs in _plan():
            self._wrap(module, attr, name, layer, attrs)
        self._wrap_propagator()

    def close(self) -> None:
        for module, attr, fn in reversed(self._restore):
            setattr(module, attr, fn)
        self._restore.clear()


def layer_metrics(spans: list[list], run_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced invocation whose `cli.main` call took
    `run_s` seconds, timed around the root span."""
    dur = [s[3] - s[2] for s in spans]
    child_s = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[4] >= 0:
            child_s[s[4]] += dur[i]
    self_s = [d - c for d, c in zip(dur, child_s)]

    busy: dict[str, float] = {}  # union of a name's spans: outermost only
    calls: dict[str, int] = {}
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        name = s[0]
        calls[name] = calls.get(name, 0) + 1
        by_name.setdefault(name, []).append(i)
        p = s[4]
        while p >= 0 and spans[p][0] != name:
            p = spans[p][4]
        if p < 0:
            busy[name] = busy.get(name, 0.0) + dur[i]

    def attr_values(name, key):
        return [spans[i][5][key] for i in by_name.get(name, []) if spans[i][5]]

    def total(name, key):
        return sum(attr_values(name, key))

    def self_of(name):
        return sum(self_s[i] for i in by_name.get(name, []))

    steps = total("solver.evolve", "steps")
    n_prop = calls.get("solver.propagator", 0)
    evolve_self = self_of("solver.evolve")

    m = {
        "model.build_s": busy.get("model.build", 0.0),
        "model.calls": calls.get("model.build", 0),
        "solver.liouvillian_s": busy.get("solver.liouvillian", 0.0),
        "solver.liouvillian_calls": calls.get("solver.liouvillian", 0),
        "solver.liouvillian_nnz": total("solver.liouvillian", "nnz"),
        "solver.propagator_s": busy.get("solver.propagator", 0.0),
        "solver.propagator_calls": n_prop,
        "solver.propagator_dim": max(attr_values("solver.propagator", "dim"), default=0),
        "solver.propagator_norm1": max(attr_values("solver.propagator", "norm1"), default=0.0),
        "solver.propagator_squarings": total("solver.propagator", "squarings"),
        "solver.propagator_operand_bytes": total("solver.propagator", "operand_bytes"),
        "solver.propagator_peak_mb": max(attr_values("solver.propagator", "peak_mb"), default=0.0),
        "solver.evolve.self_s": evolve_self,
        "solver.steps": steps,
        "solver.step_us": 1e6 * evolve_self / steps if steps else 0.0,
        "solver.propagator_reuse": steps / n_prop if n_prop else 0.0,
        "observables.sample_s": busy.get("observables.sample", 0.0),
        # evolve calls mean_number and qubit_populations once per sample
        "observables.samples": calls.get("observables.sample", 0) // 2,
        "observables.phase_s": busy.get("observables.phase", 0.0),
        "observables.phase_calls": calls.get("observables.phase", 0),
        "observables.wigner_s": busy.get("observables.wigner", 0.0),
        "observables.wigner_calls": calls.get("observables.wigner", 0),
        "observables.wigner_points": total("observables.wigner", "points"),
        "cli.emit.self_s": self_of("cli.run"),
        "algebra.checks_s": busy.get("algebra.checks", 0.0),
        "algebra.checks": total("algebra.checks", "checks"),
        "algebra.checks_failed": total("algebra.checks", "failed"),
    }
    for part in ("decoupling", "contraction", "hubbard", "inhomogeneous", "frohlich"):
        m[f"algebra.{part}_s"] = busy.get(f"algebra.{part}", 0.0)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, s in enumerate(spans):
        layer_self[s[1]] += self_s[i]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.run_s"] = run_s
    m["trace.self_sum_ratio"] = sum(layer_self.values()) / run_s
    return m
