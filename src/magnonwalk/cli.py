"""Experiment orchestration: the command-line flags, the run pipeline
(schedule -> evolution -> observables), plot-ready data emission, and the
operator-algebra verification report.

Every run is deterministic: the pipeline contains no randomness, CSVs are
written with 17 significant digits (lossless float round-trip), and two
runs with the same configuration, on the same machine and BLAS thread
count (the manifest's ``blas``), produce byte-identical artifacts.  The
manifest is not an artifact: it records three wall-clock entries,
``duration_s``, ``timings`` and each ``propagators`` entry's ``build_s``,
and matches between the runs apart from them.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical
failure (floating-point overflow included), 3 verification failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import run_all_checks
from .errors import ConfigError, NumericalFailureError
from .model import (
    PRESET_NAMES,
    PhysicalParams,
    derive,
    dissipators,
    hamiltonian_rotframe,
    initial_state,
    preset,
    pulse_schedule,
)
from .observables import (
    WignerGrid,
    loglog_slope,
    phase_distribution,
    reduce_boson,
    rotate_mode,
    sharpness_holevo,
    wigner,
)
from .solver import evolve

# hashlib and json are imported in the functions that use them: only
# run's emission hashes (hashlib loads OpenSSL's libcrypto, about 3.5 MB
# of RSS) and writes JSON.  So the import and verify load neither, and a
# run loads OpenSSL after the drive-on exponential, past the walk's peak
# RSS.

OUTPUT_ROOT_ENV = "MAGNONWALK_OUTPUT_ROOT"
DEFAULT_FIT_STEPS = {"base": 7, "realistic": 4, "realistic_gamma1": 4}
MAX_PHASE_FILES = 4
# A Wigner call holds one k = m - n block of displacement elements,
# 2 x F x points^2 float64 values (17.8 MB at cutoff 17 and 256 points,
# 272 MB at 1001), next to the grids of the snapshots; 256 points caps a
# Wigner CSV at 65,536 rows, the ceiling m_phase puts on a phase CSV.
MAX_WIGNER_POINTS = 256

# glibc serves an allocation of at least its mmap threshold by a mapping of
# its own, which goes back to the OS when freed.  Left dynamic, the
# threshold rises to the size of the first such block freed, a 10.7 MB
# 1156^2 operand of the drive-on exponential, so the later operands land on
# the heap, which keeps freed pages, and a base walk peaks about 3.2 MB
# higher (59.6 MB against 56.4 MB; verify 34.1 MB against 33.6 MB).
# 1 MiB sits below one dense operand and above the exponential's 0.85 MiB
# row panel and the 131 KB drive-off blocks.  The fixed threshold costs
# page faults: a base run takes about 24k minor faults after the import,
# against 9.8k with the dynamic one.
_M_MMAP_THRESHOLD = -3  # mallopt's parameter number in glibc's malloc.h
_MMAP_THRESHOLD = 1 << 20


@dataclass
class RunConfig:
    preset: str = "base"
    params: dict = field(default_factory=dict)  # overrides for PhysicalParams
    steps: int | None = None
    samples_per_segment: int = 10
    fit_steps: int | None = None
    wigner_min: float = -4.5
    wigner_max: float = 4.5
    wigner_points: int = 101
    emit_wigner: bool = True
    out_dir: str | None = None

    def resolve_params(self) -> PhysicalParams:
        overrides = dict(self.params)
        if self.steps is not None:
            overrides["n_steps"] = self.steps
        try:
            return preset(self.preset, **overrides)
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc)) from exc

    def resolve_fit_steps(self, n_steps: int) -> int:
        """The number of step boundaries in the fit; 0 when there is no fit
        (``fit_steps = 0``, or fewer than two boundaries to fit).  A window
        of 1 or below 0 is a ConfigError."""
        k = self.fit_steps
        if k is None:
            k = DEFAULT_FIT_STEPS.get(self.preset, max(2, n_steps - 1))
        elif k < 0 or k == 1:
            raise ConfigError(f"fit_steps must be >= 2, or 0 for no fit, got {k}")
        k = min(k, n_steps)
        return k if k >= 2 else 0

    def resolve_out_dir(self) -> Path:
        if self.out_dir is not None:
            return Path(self.out_dir)
        root = os.environ.get(OUTPUT_ROOT_ENV, ".")
        return Path(root) / f"run_{self.preset}"


@dataclass
class RunManifest:
    preset: str
    params: dict
    derived: dict
    options: dict
    files: dict  # name -> sha256
    duration_s: float
    version: str
    propagators: list  # one entry per step matrix built, see Trajectory
    health: dict  # worst solver health over the samples, see Trajectory.health
    timings: dict  # stage, and evolve's parts -> wall seconds; not artifacts
    blas: dict  # the BLAS numpy calls, see _blas


# The RunConfig fields the run flags set, and the annotated type of each
# PhysicalParams field, which --param sets.
_RUN_FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
_PARAM_FIELDS = {f.name: f.type for f in dataclasses.fields(PhysicalParams)}

# Annotated type -> parser of a raw string.
_PARSERS = {"int": int, "float": float, "complex": complex}


def _coerce_param(name: str, raw: str):
    """``raw`` as a value of the PhysicalParams field ``name``."""
    if name not in _PARAM_FIELDS:
        raise ConfigError(
            f"unknown parameter {name!r}; valid: {', '.join(_PARAM_FIELDS)}"
        )
    try:
        return _PARSERS[_PARAM_FIELDS[name]](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {name}: {raw!r}") from exc


def _fmt(values) -> list[str]:
    """Each value to 17 significant digits, the lossless float round-trip."""
    return list(map("{:.17g}".format, np.asarray(values, dtype=float).tolist()))


def _csv(header: list[str], columns: list[list[str]]) -> str:
    """CSV text from equally long columns of formatted cells."""
    lines = [",".join(header), *map(",".join, zip(*columns))]
    return "\n".join(lines) + "\n"


def _wigner_csvs(grid: WignerGrid):
    """Yield the long-form CSV of each state of ``grid``, whose ``w`` is a
    stack of K grids, in stack order, x-major.  The axes are formatted once
    per call into a row template whose W cells are ``%.17g``, which one
    ``%`` per state fills: ``%.17g`` and ``{:.17g}`` run the same float
    formatter.  One text is built at a time, so a caller that writes each
    before taking the next holds one."""
    xs, ps = _fmt(grid.x), _fmt(grid.p)
    template = "x,p,W\n" + "".join(f"{xi},{pj},%.17g\n" for xi in xs for pj in ps)
    for w in grid.w:
        yield template % tuple(w.ravel().tolist())


def _write(path: Path, text: str) -> str:
    """Write ``text`` as UTF-8 and return the sha256 of the bytes written."""
    import hashlib

    data = text.encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _params_dict(p: PhysicalParams) -> dict:
    d = dataclasses.asdict(p)
    d["alpha"] = [p.alpha.real, p.alpha.imag]  # JSON-safe
    return d


# The names under which numpy's OpenBLAS exports a function: scipy-openblas
# wheels (numpy 2) prefix it and add a 64-bit-integer suffix.
_OPENBLAS_SYMBOLS = ("scipy_openblas_{}64_", "openblas_{}64_", "openblas_{}")


def _blas() -> dict:
    """The OpenBLAS that numpy calls, which sets the last bits of every
    artifact: ``threads``, its thread count, and ``version``, its
    configuration string (version, CPU kernel, build options).  Each is
    None where numpy's BLAS does not export the function."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
    except (OSError, AttributeError):
        lib = None

    def call(name, restype):
        for symbol in _OPENBLAS_SYMBOLS:
            function = getattr(lib, symbol.format(name), None)
            if function is not None:
                function.restype = restype
                return function()
        return None

    config = call("get_config", ctypes.c_char_p)
    return {"threads": call("get_num_threads", ctypes.c_int),
            "version": config.decode() if config is not None else None}


def run(config: RunConfig) -> RunManifest:
    """Execute one full experiment and write the requested artifacts.

    The stages run one after another (build, evolve, observables,
    emission) and their wall times go to the manifest's ``timings``, with
    evolve's split into ``evolve.generators``, ``evolve.step_matrices`` and
    ``evolve.stepping`` (the rest, which sums the parts to evolve); a
    floating-point error in the model build names the operator being
    built, and one in the observables names its walk step.  The
    observables and the emission each take the snapshots once, in step
    order: the phase distributions and co-rotated mode states are lists
    in that order, all the Wigner grids come from one ``wigner`` call, and
    each Wigner CSV is written before the next is built.
    """
    t_start = time.monotonic()
    t_build = time.perf_counter()
    p = config.resolve_params()
    if config.samples_per_segment < 1:
        raise ConfigError("samples_per_segment must be >= 1")
    if not 1 <= config.wigner_points <= MAX_WIGNER_POINTS:
        raise ConfigError(
            f"wigner points must be 1..{MAX_WIGNER_POINTS}, got {config.wigner_points}"
        )
    if not (math.isfinite(config.wigner_min) and math.isfinite(config.wigner_max)):
        raise ConfigError(
            f"wigner range must be finite, got {config.wigner_min}:{config.wigner_max}"
        )
    fit_steps = config.resolve_fit_steps(p.n_steps)

    d = derive(p)
    schedule = pulse_schedule(p, d)
    stage = "drive-on Hamiltonian"
    try:
        h_on = hamiltonian_rotframe(p, d, drive_on=True)
        stage = "drive-off Hamiltonian"
        h_off = hamiltonian_rotframe(p, d, drive_on=False)
        stage = "dissipators"
        diss = dissipators(p)
        stage = "initial state"
        rho0 = initial_state(p)
    except FloatingPointError as exc:
        raise NumericalFailureError(f"model build ({stage}): {exc}") from exc
    out = config.resolve_out_dir()
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    t_evolve = time.perf_counter()

    traj = evolve(
        schedule,
        rho0,
        h_on,
        h_off,
        diss,
        samples_per_segment=config.samples_per_segment,
    )
    t_observables = time.perf_counter()

    steps, times, sharps, sigmas = [], [], [], []
    # in snapshot order: the phase distributions of steps 1..MAX_PHASE_FILES
    # and the co-rotated mode states of the Wigner grids
    phases, views = [], []
    try:
        for step, t_boundary, rho in traj.snapshots:
            stage = "phase distribution"
            rho_m = reduce_boson(rho)
            sharp, sigma_h = sharpness_holevo(rho_m)
            steps.append(step)
            times.append(t_boundary)
            sharps.append(sharp)
            sigmas.append(sigma_h)
            if step > MAX_PHASE_FILES and not config.emit_wigner:
                continue  # no phase CSV and no Wigner grid reads the view
            # the snapshots are reported in the frame co-rotating with the
            # mode: the drive-mode detuning winds the raw rotating-frame
            # state by many turns per step
            rho_view = rotate_mode(rho_m, -d.delta_c * t_boundary)
            if step <= MAX_PHASE_FILES:
                phases.append(phase_distribution(rho_view, p.m_phase))
            if config.emit_wigner:
                views.append(rho_view)
        if views:
            # one call for every snapshot, which share the displacement
            # elements; a failure is named after the first snapshot
            step, stage = steps[0], "Wigner grid"
            grid = wigner(
                np.stack(views),
                x_min=config.wigner_min,
                x_max=config.wigner_max,
                points=config.wigner_points,
            )
    except FloatingPointError as exc:
        msg = f"observables of step {step} ({stage}): {exc}"
        raise NumericalFailureError(msg) from exc

    fit_payload = None
    if fit_steps:
        slope, stderr = loglog_slope(times, sigmas, fit_steps)
        fit_payload = {
            "slope": slope,
            "stderr": stderr,
            "n_points": fit_steps,
            "steps": steps[:fit_steps],
            "abscissa": "step_boundary_time_ns",
        }
    t_emission = time.perf_counter()

    import json

    files: dict[str, str] = {}

    def emit(name: str, text: str) -> None:
        files[name] = _write(out / name, text)

    emit(
        "timeseries.csv",
        _csv(
            ["t_ns", "n_c", "P_e", "P_g", "drive_on"],
            [
                _fmt(traj.times),
                _fmt(traj.n_c),
                _fmt(traj.p_e),
                _fmt(traj.p_g),
                list(map(str, traj.drive_on.astype(int).tolist())),
            ],
        ),
    )
    wigner_csvs = _wigner_csvs(grid) if views else None
    for i, step in enumerate(steps):
        if i < len(phases):
            emit(
                f"phase_step{step}.csv",
                _csv(["phi_rad", "P"], [_fmt(phases[i].phi), _fmt(phases[i].p)]),
            )
        if wigner_csvs is not None:
            emit(f"wigner_step{step}.csv", next(wigner_csvs))

    if steps:
        emit(
            "holevo.csv",
            _csv(
                ["step", "t_ns", "sharpness", "sigma_H"],
                [list(map(str, steps)), _fmt(times), _fmt(sharps), _fmt(sigmas)],
            ),
        )

    if fit_payload is not None:
        emit("fit.json", json.dumps(fit_payload, indent=2, sort_keys=True) + "\n")
    t_end = time.perf_counter()

    manifest = RunManifest(
        preset=config.preset,
        params=_params_dict(p),
        derived=dataclasses.asdict(d),
        options={
            "samples_per_segment": config.samples_per_segment,
            "fit_steps": fit_steps,
            "wigner_grid": [config.wigner_min, config.wigner_max, config.wigner_points],
        },
        files=files,
        duration_s=time.monotonic() - t_start,
        version=__version__,
        propagators=traj.propagators,
        health=traj.health(),
        timings={
            "build": t_evolve - t_build,
            "evolve": t_observables - t_evolve,
            # evolve's parts: the generators, the step matrices, and the
            # rest, which steps and samples the state
            "evolve.generators": traj.generators_s,
            "evolve.step_matrices": traj.step_matrices_s,
            "evolve.stepping": t_observables - t_evolve
            - traj.generators_s - traj.step_matrices_s,
            "observables": t_emission - t_observables,
            "emission": t_end - t_emission,
        },
        blas=_blas(),
    )
    (out / "manifest.json").write_text(
        json.dumps(
            dataclasses.asdict(manifest), indent=2, sort_keys=True, allow_nan=False
        )
        + "\n"
    )
    return manifest


def _verify(args) -> int:
    reports = run_all_checks()
    width = max(len(r.name) for r in reports)
    all_pass = True
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"{r.name:<{width}}  {r.value:12.4e}  {r.comparison} {r.threshold:.3g}"
            f"  {status}"
        )
        all_pass &= r.passed
    print(f"{'all checks passed' if all_pass else 'VERIFICATION FAILED'}")
    return 0 if all_pass else 3


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="magnonwalk",
        description="Phase-space quantum walk of a driven collective spin mode "
        "coupled to a flux-qubit coin.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    # Every dest but wigner_grid and param names a RunConfig field, and a
    # flag left out is absent from the namespace, not None.
    runp = sub.add_parser(
        "run",
        argument_default=argparse.SUPPRESS,
        help="simulate a preset and emit data files",
    )
    runp.add_argument("--preset", choices=PRESET_NAMES)
    runp.add_argument("--steps", type=int)
    runp.add_argument("--samples-per-segment", type=int)
    runp.add_argument("--fit-steps", type=int)
    runp.add_argument(
        "--wigner-grid",
        default=None,
        metavar="MIN:MAX:POINTS",
        help="phase-space grid, as in --wigner-grid=-4.5:4.5:101; the '=' is "
        "needed because a separate value that starts with '-' is read as an option",
    )
    runp.add_argument("--no-wigner", dest="emit_wigner", action="store_false")
    runp.add_argument("--out", dest="out_dir", help="output directory")
    runp.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a physical parameter (repeatable)",
    )

    sub.add_parser("verify", help="run the operator-algebra check suite")
    return ap


def _config_from_args(args) -> RunConfig:
    cfg = RunConfig()
    for name, value in vars(args).items():
        if name in _RUN_FIELDS:
            setattr(cfg, name, value)
    if args.wigner_grid is not None:
        try:
            lo, hi, n = args.wigner_grid.split(":")
            cfg.wigner_min, cfg.wigner_max = float(lo), float(hi)
            cfg.wigner_points = int(n)
        except ValueError as exc:
            raise ConfigError(f"bad --wigner-grid {args.wigner_grid!r}") from exc
    for item in args.param:
        if "=" not in item:
            raise ConfigError(f"--param needs NAME=VALUE, got {item!r}")
        name, raw = item.split("=", 1)
        cfg.params[name.strip()] = _coerce_param(name.strip(), raw.strip())
    return cfg


def _set_allocator_policy() -> None:
    """Fix the C library's mmap threshold at ``_MMAP_THRESHOLD`` through
    ``mallopt``, so that every array of a MiB or more is returned to the OS
    when freed; a C library without ``mallopt`` keeps its own policy."""
    try:
        mallopt = ctypes.CDLL(None).mallopt  # a symbol the process has loaded
    except (OSError, TypeError, AttributeError):  # TypeError: Windows takes no None
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def main(argv=None) -> int:
    """Run one command and return its exit code.  Floating-point overflow
    and invalid operations raise, and exit 2, in every command, and large
    arrays are returned to the OS when freed (see ``_MMAP_THRESHOLD``)."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help or the usage
        return 1 if exc.code else 0
    _set_allocator_policy()
    try:
        with np.errstate(over="raise", invalid="raise"):
            if args.command == "verify":
                return _verify(args)
            config = _config_from_args(args)
            manifest = run(config)
        out = config.resolve_out_dir()
        top = manifest.health["max_top_fock_population"]
        print(
            f"wrote {len(manifest.files) + 1} files to {out};"
            f" top Fock level held up to {top:.3g} of the state"
        )
        return 0
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailureError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
