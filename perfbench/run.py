"""magnonwalk benchmark: each workload is a closed loop with one client that
runs `magnonwalk` CLI invocations back to back, each in a fresh interpreter.

    python3 perfbench/run.py --workload walk_base --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from ./src.  Every
invocation is timed from outside (CPU time and peak RSS from its rusage)
and from inside (`import magnonwalk.cli`, then `cli.main`), and its outputs
are compared with perfbench/reference/<workload>.json.  Outputs go to a
directory under .bench_build/ that is deleted after each invocation.

--trace 0 reports the end-to-end metrics of untraced invocations.
--trace 1 alternates traced and untraced invocations and reports the
per-layer metrics of the traced ones (see tracer.py) plus the tracing
overhead.  The workloads are the paper's fixed presets, so --seed does not
change them; it is recorded with the result.  The last line of stdout is
the JSON result; the lines before it repeat each metric with its unit and
sample count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import outputs
import tracer

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# name -> (CLI arguments, why the workload exists)
WORKLOADS = {
    "walk_base": (
        ["run", "--preset", "base"],
        "the paper's benchmark walk; dense expm of the 1156^2 Liouvillian dominates",
    ),
    "walk_long": (
        ["run", "--preset", "realistic", "--steps", "32", "--samples-per-segment", "20"],
        "same 2 expm calls but 1280 steps, 32 Wigner snapshots and ~19 MB of CSV",
    ),
    "verify": (
        ["verify"],
        "operator-algebra checks only; bypasses solver, observables and emission",
    ),
}

END_TO_END = {"run_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

MIN_INVOCATIONS = 3
RUN_DEADLINE_S = 160  # stop starting invocations so the whole run ends < 180 s

# Per-layer metrics: name -> unit.  Counts marked computed come from the
# operands (see tracer._propagator_counts), not from timing.
PER_LAYER = {
    "model.build_s": "s", "model.calls": "count",
    "solver.liouvillian_s": "s", "solver.liouvillian_calls": "count",
    "solver.liouvillian_nnz": "count",
    "solver.propagator_s": "s", "solver.propagator_calls": "count",
    "solver.propagator_dim": "count", "solver.propagator_norm1": "1",
    "solver.propagator_squarings": "count", "solver.propagator_operand_bytes": "B",
    "solver.propagator_peak_mb": "MB",
    "solver.evolve.self_s": "s", "solver.steps": "count", "solver.step_us": "us",
    "solver.propagator_reuse": "steps/expm",
    "observables.sample_s": "s", "observables.samples": "count",
    "observables.phase_s": "s", "observables.phase_calls": "count",
    "observables.wigner_s": "s", "observables.wigner_calls": "count",
    "observables.wigner_points": "count",
    "cli.emit.self_s": "s", "cli.emit_rows": "count", "cli.emit_bytes": "B",
    "cli.artifacts": "count", "cli.artifacts_identical": "count",
    "algebra.checks_s": "s", "algebra.checks": "count", "algebra.checks_failed": "count",
    "algebra.decoupling_s": "s", "algebra.contraction_s": "s", "algebra.hubbard_s": "s",
    "algebra.inhomogeneous_s": "s", "algebra.frohlich_s": "s",
    **{f"{layer}.self_s": "s" for layer in tracer.LAYERS},
    "trace.run_s": "s", "trace.overhead_s": "s", "trace.self_sum_ratio": "1",
}
COMPUTED = ("solver.propagator_dim", "solver.propagator_norm1",
            "solver.propagator_squarings", "solver.propagator_operand_bytes")


def _share(m: dict, *names: str) -> float:
    return sum(m[n] for n in names) / m["trace.run_s"]


# What a traced run must show for its workload to stress what it claims:
# (description, value of the median per-layer metrics, operator, threshold).
_SELF_SUM = [("|layer self times / trace.run_s - 1|",
              lambda m: abs(m["trace.self_sum_ratio"] - 1), "<=", 0.05)]
CLAIMS = {
    "walk_base": [
        ("solver.propagator_s / trace.run_s", lambda m: _share(m, "solver.propagator_s"),
         ">=", 0.75),
    ],
    "walk_long": [
        ("solver.propagator_s / trace.run_s", lambda m: _share(m, "solver.propagator_s"),
         "<=", 0.60),
        ("(solver.evolve.self_s + observables.wigner_s + cli.emit.self_s) / trace.run_s",
         lambda m: _share(m, "solver.evolve.self_s", "observables.wigner_s", "cli.emit.self_s"),
         ">=", 0.30),
    ],
    "verify": [
        ("solver, observables and emission calls",
         lambda m: sum(m[n] for n in ("solver.liouvillian_calls", "solver.propagator_calls",
                                      "solver.steps", "observables.samples",
                                      "observables.phase_calls", "observables.wigner_calls",
                                      "cli.emit_rows")),
         "<=", 0),
    ],
}


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                threads = int(getattr(lib, sym)())
                break
    except (OSError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


class Invocation:
    """One child process: wall, rusage, and what the child reported."""

    def __init__(self, workdir: Path, child_args: list[str], timeout: float):
        result = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(result), *child_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p)
        with open(workdir / "stdout", "wb") as so, open(workdir / "stderr", "wb") as se:
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, env=env)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.exit_code = proc.returncode
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux
        self.stdout = (workdir / "stdout").read_text(errors="replace")
        self.stderr = (workdir / "stderr").read_text(errors="replace")
        self.report = json.loads(result.read_text()) if result.exists() else None

    @property
    def ok(self) -> bool:
        return self.exit_code == 0 and self.report is not None and self.report["rc"] == 0


@contextlib.contextmanager
def scratch_dir():
    """A directory under .bench_build/ that is deleted on exit."""
    Path(".bench_build").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=".bench_build"))
    try:
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def invoke_workload(name: str, traced: bool, timeout: float) -> dict:
    """Invoke the CLI once in a scratch directory that is deleted afterwards.

    Returns the invocation and, if it succeeded, its outputs reduced to
    numbers, the sha256 of each artifact and the (rows, bytes) emitted."""
    cli_args = WORKLOADS[name][0]
    with scratch_dir() as workdir:
        args = [*cli_args, "--out", str(workdir / "out")] if cli_args[0] == "run" else cli_args
        inv = Invocation(workdir, [*(["--trace"] if traced else []), "--", *args], timeout)
        got = {"inv": inv, "outputs": None, "sha256": {}, "emitted": (0, 0)}
        if inv.ok and cli_args[0] == "run":
            got["outputs"], got["sha256"] = outputs.walk_outputs(workdir / "out")
            got["emitted"] = outputs.emitted_totals(workdir / "out")
        elif inv.ok:
            got["outputs"] = outputs.verify_outputs(inv.stdout)
        return got


def run_workload(name: str, traced: bool, reference: dict, timeout: float) -> dict:
    """Invoke the CLI once and check its outputs; returns the sample."""
    got = invoke_workload(name, traced, timeout)
    inv = got["inv"]
    sample = {"traced": traced, "cpu_s": inv.cpu_s, "peak_rss_mb": inv.peak_rss_mb,
              "import_s": None, "run_s": None, "problems": []}
    if not inv.ok:
        sample["problems"].append(
            f"exit {inv.exit_code}, rc {inv.report and inv.report['rc']}: "
            + inv.stderr.strip()[-400:])
        return sample
    sample["import_s"] = inv.report["import_s"]
    sample["run_s"] = inv.report["run_s"]
    sample["problems"] += outputs.mismatches(reference["outputs"], got["outputs"])
    if traced:
        m = tracer.layer_metrics(inv.report["spans"], inv.report["run_s"])
        m["cli.emit_rows"], m["cli.emit_bytes"] = got["emitted"]
        m["cli.artifacts"] = len(got["sha256"])
        m["cli.artifacts_identical"] = sum(
            sha == reference["sha256"].get(k) for k, sha in got["sha256"].items())
        sample["layers"] = m
    return sample


def warm_up(timeout: float) -> bool:
    """Import the package once, untimed, so that its files are in the page
    cache and its bytecode is compiled where bytecode is written; False if
    the import fails."""
    with scratch_dir() as workdir:
        return Invocation(workdir, ["--import-only"], timeout).ok


def describe(name: str, unit: str, values: list[float]) -> str:
    """Median with sample count; a tail percentile only where at least ten
    samples lie beyond it."""
    line = f"# {name:44s} {statistics.median(values):.6g} {unit}  (median, n={len(values)}"
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= 10:
            pct = statistics.quantiles(values, n=100)[q - 1]
            return line + f", p{q} {pct:.6g} {unit})"
    return line + ")"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    t_begin = time.perf_counter()
    if not Path("src/magnonwalk/cli.py").is_file():
        print("perfbench: run from the root of a magnonwalk checkout (no src/magnonwalk)",
              file=sys.stderr)
        return 2
    reference = json.loads((REFERENCE_DIR / f"{args.workload}.json").read_text())

    def remaining() -> float:
        return max(5.0, RUN_DEADLINE_S + 10 - (time.perf_counter() - t_begin))

    if not warm_up(remaining()):
        print("perfbench: `import magnonwalk.cli` failed", file=sys.stderr)
        return 1

    samples = []
    t0 = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - t0
        if len(samples) >= MIN_INVOCATIONS:
            typical = statistics.median(s["wall_s"] for s in samples)
            if (elapsed + typical > args.seconds
                    or time.perf_counter() - t_begin + typical > RUN_DEADLINE_S):
                break
        start = time.perf_counter()
        traced = bool(args.trace) and len(samples) % 2 == 0
        sample = run_workload(args.workload, traced, reference, remaining())
        sample["wall_s"] = time.perf_counter() - start
        samples.append(sample)

    failed = [s for s in samples if s["problems"]]
    for s in failed:
        print(f"# FAILED invocation: {s['problems'][:3]}", file=sys.stderr)
    plain = [s for s in samples if not s["traced"] and s["run_s"] is not None]
    # Every invocation sets up afresh; setup_s is the median over them all.
    setup = [s["import_s"] for s in samples if s["import_s"] is not None]

    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} ({WORKLOADS[args.workload][1]}); seed {args.seed}; "
          f"closed loop, 1 client; {len(samples)} invocations, {len(failed)} failed, "
          f"failed_ratio {len(failed)}/{len(samples)} = {len(failed) / len(samples):.3g}; "
          "a tail percentile is shown only where >= 10 samples lie beyond it")
    metrics = {}
    if args.trace:
        traced = [s["layers"] for s in samples if s.get("layers")]
        if not traced or not plain:
            print("perfbench: no successful traced and untraced invocation", file=sys.stderr)
            return 1
        per_layer = {k: [m[k] for m in traced] for k in traced[0]}
        per_layer["trace.overhead_s"] = [
            statistics.median(per_layer["trace.run_s"])
            - statistics.median(s["run_s"] for s in plain)]
        for name, unit in PER_LAYER.items():
            print(describe(name + (" [computed]" if name in COMPUTED else ""), unit,
                           per_layer[name]))
            metrics[name] = {"value": statistics.median(per_layer[name]), "unit": unit}
        medians = {k: v["value"] for k, v in metrics.items()}
        for text, value, op, threshold in _SELF_SUM + CLAIMS[args.workload]:
            v = value(medians)
            ok = v >= threshold if op == ">=" else v <= threshold
            print(f"# claim {text} = {v:.4g} {op} {threshold}: {'PASS' if ok else 'FAIL'}")
    else:
        if not plain or not setup:
            print("perfbench: no successful invocation", file=sys.stderr)
            return 1
        values = {
            "run_s": [s["run_s"] for s in plain],
            "setup_s": setup,
            "cpu_s": [s["cpu_s"] for s in plain],
            "peak_rss_mb": [s["peak_rss_mb"] for s in plain],
        }
        for name, unit in END_TO_END.items():
            print(describe(name, unit, values[name]))
            metrics[name] = {"value": statistics.median(values[name]), "unit": unit}

    try:
        Path(".bench_build").rmdir()  # only if no one else left files there
    except OSError:
        pass
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
