import argparse
import ctypes
import dataclasses
import hashlib
import importlib
import io
import json
import math
import re
import shutil
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import magnonwalk
from magnonwalk import cli, model, solver
from magnonwalk import observables as obs
from magnonwalk import errors
from magnonwalk.errors import ConfigError


def small_config(tmp_path, **kw):
    """Fast run: trimmed Fock space, few steps, coarse Wigner grid."""
    defaults = dict(
        preset="base",
        params={"fock_dim": 8, "alpha": 1.5 + 0.0j, "n_steps": 2},
        samples_per_segment=2,
        wigner=(-4.5, 4.5, 11),
        out_dir=str(tmp_path / "out"),
    )
    defaults.update(kw)
    return cli.RunConfig(**defaults)


RUN_FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)}
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _mallopt():
    """The C library's ``mallopt``, or None where there is none."""
    try:
        return ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return None


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = small_config(tmp)
    manifest = cli.run(config)
    return config, manifest


class TestConfigFile:
    """The RunConfig that the run flags fill in."""

    def test_unknown_preset_rejected(self, tmp_path):
        config = small_config(tmp_path, preset="bogus")
        with pytest.raises(ConfigError):
            config.resolve_params()

    def test_default_fit_window_per_preset(self):
        # 7 boundary points enter the benchmark fit, 4 the strong-drive one
        assert set(cli.FIT_STEPS) == set(model.PRESET_NAMES)
        assert cli.RunConfig(preset="base").resolve_fit_steps(8) == 7
        assert cli.RunConfig(preset="realistic").resolve_fit_steps(8) == 4
        assert cli.RunConfig(preset="base").resolve_fit_steps(3) == 3
        # no fit is recorded as a window of 0, not as a window too short to fit
        assert cli.RunConfig(preset="base").resolve_fit_steps(1) == 0

    def test_run_flags_name_run_config_fields(self):
        # every flag but --param and --steps, which appends to it, is
        # copied onto the RunConfig field of its dest, so a dest that is
        # not a field would be dropped
        subparsers = next(
            a
            for a in cli._build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        dests = {
            a.dest
            for a in subparsers.choices["run"]._actions
            if a.option_strings and a.dest != "help"
        }
        assert "param" in dests
        assert dests - {"param"} <= RUN_FIELDS
        assert RUN_FIELDS == {"preset", "params", "samples_per_segment", "wigner", "out_dir"}
        # verify takes no setting
        verify = subparsers.choices["verify"]._actions
        assert [a.option_strings for a in verify] == [["-h", "--help"]]

    @pytest.mark.parametrize(
        "argv, steps",
        [(["--param", "n_steps=2", "--steps", "3"], 3),
         (["--steps", "3", "--param", "n_steps=2"], 2)],
    )
    def test_steps_is_an_n_steps_override(self, argv, steps):
        # --steps N spells --param n_steps=N, so the later of the two wins,
        # as between two --param items
        args = cli._build_parser().parse_args(["run", *argv])
        assert cli._config_from_args(args).resolve_params().n_steps == steps


class TestRunArtifacts:
    def test_expected_files(self, completed_run):
        config, manifest = completed_run
        out = config.resolve_out_dir()
        expected = {
            "timeseries.csv",
            "holevo.csv",
            "phase_step1.csv",
            "phase_step2.csv",
            "wigner_step1.csv",
            "wigner_step2.csv",
            "fit.json",
        }
        assert set(manifest.files) == expected
        for name in expected | {"manifest.json"}:
            assert (out / name).exists()

    def test_timeseries_contract(self, completed_run):
        config, _ = completed_run
        out = config.resolve_out_dir()
        lines = (out / "timeseries.csv").read_text().splitlines()
        assert lines[0] == "t_ns,n_c,P_e,P_g,drive_on"
        # 1 initial sample + 2 steps x 2 segments x 2 samples
        assert len(lines) == 1 + 1 + 8
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == pytest.approx(0.5, abs=1e-9)

    def test_holevo_rows_and_fit(self, completed_run):
        config, _ = completed_run
        out = config.resolve_out_dir()
        lines = (out / "holevo.csv").read_text().splitlines()
        assert lines[0] == "step,t_ns,sharpness,sigma_H"
        assert len(lines) == 3  # header + one row per step
        fit = json.loads((out / "fit.json").read_text())
        assert fit["n_points"] == 2
        assert fit["steps"] == [1, 2]
        assert fit["abscissa"] == "step_boundary_time_ns"
        assert math.isfinite(fit["slope"]) and math.isfinite(fit["stderr"])
        # holevo.csv's 17-digit cells round-trip, so a fit taken again from
        # them, over this window or any other, is the run's to the bit
        table = np.loadtxt(out / "holevo.csv", delimiter=",", skiprows=1)
        refit = obs.loglog_slope(table[:, 1], table[:, 3], fit["n_points"])
        assert refit == (fit["slope"], fit["stderr"])

    def test_csv_roundtrip_lossless(self, completed_run):
        config, _ = completed_run
        out = config.resolve_out_dir()
        lines = (out / "holevo.csv").read_text().splitlines()[1:]
        for line in lines:
            for tok in line.split(",")[1:]:
                v = float(tok)
                assert f"{v:.17g}" == tok

    def test_manifest_matches_derive(self, completed_run):
        config, manifest = completed_run
        p = config.resolve_params()
        d = model.derive(p)
        assert manifest.derived["t_p"] == d.t_p
        assert manifest.derived["chi"] == d.chi
        assert manifest.derived["nu_d"] == d.nu_d
        assert manifest.params["fock_dim"] == 8
        assert manifest.version
        written = json.loads(
            (config.resolve_out_dir() / "manifest.json").read_text()
        )
        assert written["derived"]["t_p"] == d.t_p
        assert set(written["files"]) == set(manifest.files)

    def test_manifest_records_propagation_path(self, tmp_path):
        # base (fock_dim 17): the drive breaks the excitation-number
        # symmetry, so drive-on is one dense block; drive-off splits into
        # one block per k = N_row - N_col in -17..17, and the real
        # Hermitian coordinates merge k and -k: 18 blocks, the largest
        # 2 x 64 for k = +-1
        config = cli.RunConfig(
            preset="base",
            params={"n_steps": 1},
            samples_per_segment=1,
            wigner=None,
            out_dir=str(tmp_path / "base"),
        )
        manifest = cli.run(config)
        written = json.loads((tmp_path / "base" / "manifest.json").read_text())
        assert written["propagators"] == manifest.propagators
        by_flag = {entry["drive_on"]: entry for entry in manifest.propagators}
        assert len(manifest.propagators) == 2
        assert by_flag[True]["blocks"] == 1
        assert by_flag[True]["largest_block"] == 34 ** 2
        assert by_flag[False]["blocks"] == 18
        assert by_flag[False]["largest_block"] == 128
        # one block: the kernel's squarings at the manifest's norm
        assert by_flag[True]["squarings"] == solver._squarings(by_flag[True]["norm1"]) > 0
        for entry in manifest.propagators:
            assert entry["error_bound"] == solver._error_bound(entry["norm1"])
        d = model.derive(config.resolve_params())
        assert by_flag[True]["dt"] == pytest.approx(d.t_H)
        assert by_flag[False]["dt"] == pytest.approx(d.t_p - d.t_H)

    def test_wigner_long_form(self, completed_run):
        config, _ = completed_run
        out = config.resolve_out_dir()
        lines = (out / "wigner_step1.csv").read_text().splitlines()
        assert lines[0] == "x,p,W"
        assert len(lines) == 1 + 11 * 11

    def test_rerun_replaces_the_older_artifacts(self, tmp_path):
        # a shorter run without Wigner grids into the directory of a longer
        # one leaves none of the older phase, Wigner and fit files: the
        # directory holds exactly the manifest's files and the manifest.  A
        # file the program does not write is kept.
        out = tmp_path / "out"
        argv = ["run", "--param", "fock_dim=5", "--param", "alpha=1",
                "--param", "m_phase=8", "--out", str(out)]
        assert cli.main([*argv, "--steps", "3", "--wigner-grid=-2:2:5"]) == 0
        (out / "notes.txt").write_text("kept")
        assert cli.main([*argv, "--steps", "1", "--no-wigner"]) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        assert set(files) == {"timeseries.csv", "holevo.csv", "phase_step1.csv"}
        names = {f.name for f in out.iterdir()}
        assert names == {*files, "manifest.json", "notes.txt"}

    def test_deterministic_reruns(self, tmp_path):
        cfg_a = small_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = small_config(tmp_path, out_dir=str(tmp_path / "b"))
        man_a = cli.run(cfg_a)
        man_b = cli.run(cfg_b)
        assert man_a.files == man_b.files  # sha256 of every artifact
        for name in man_a.files:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()


@pytest.fixture(scope="module")
def base_walk(tmp_path_factory):
    """The stock 8-step ``base`` run, with its trajectory and the number of
    phase grids it evaluated."""
    trajectories, grids = [], []

    def evolve(*args, **kwargs):
        trajectories.append(solver.evolve(*args, **kwargs))
        return trajectories[-1]

    def phase_distribution(*args):
        grids.append(args)
        return obs.phase_distribution(*args)

    config = cli.RunConfig(out_dir=str(tmp_path_factory.mktemp("base")))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "evolve", evolve)
        mp.setattr(cli, "phase_distribution", phase_distribution)
        cli.run(config)
    return config, trajectories[0], len(grids)


@pytest.fixture(scope="module")
def runtime_modules(tmp_path_factory, fresh_python):
    """What a fresh interpreter holds after ``import magnonwalk.cli``, a
    ``verify`` and a 1-step ``run`` at cutoff 3, line by line: the modules
    of OpenSSL and json after each command, the scipy modules
    at the end, and per step matrix built its block count and whether
    OpenSSL was loaded when ``solver.propagator`` returned it."""
    run = ["run", "--preset", "base", "--steps", "1", "--param", "fock_dim=3",
           "--param", "alpha=1", "--no-wigner",
           "--out", str(tmp_path_factory.mktemp("fresh") / "out")]
    code = (
        "import sys\n"
        "import magnonwalk.cli as cli\n"
        "from magnonwalk import solver\n"
        "def loaded():\n"
        "    names = ('hashlib', '_hashlib', 'json')\n"
        "    return sorted(m for m in names if m in sys.modules)\n"
        "assert cli.main(['verify']) == 0\n"
        "print('after verify:', loaded())\n"
        "build, builds = solver.propagator, []\n"
        "def propagator(R, dt):\n"
        "    P = build(R, dt)\n"
        "    builds.append((len(P), '_hashlib' in sys.modules))\n"
        "    return P\n"
        "solver.propagator = propagator\n"
        f"assert cli.main({run!r}) == 0\n"
        "print('builds:', builds)\n"
        "print('after run:', loaded())\n"
        "print('scipy modules:', sorted(m for m in sys.modules"
        " if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line)


class TestPhaseObservables:
    """The sharpness comes from the mode state; a phase grid is evaluated
    only for a phase CSV, and the artifacts hold to the grid oracles within
    1e-14 max(1, |ref|)."""

    def test_phase_grids_only_for_the_csvs(self, base_walk):
        config, traj, grids = base_walk
        assert len(traj.snapshots) == 8
        assert grids == cli.MAX_PHASE_FILES

    @pytest.mark.parametrize("flags, calls", [(["--no-wigner"], 4), ([], 8)])
    def test_co_rotation_only_where_read(self, tmp_path, monkeypatch, flags, calls):
        # a snapshot is co-rotated only for a phase CSV (steps 1-4) or a
        # Wigner grid; the sharpness is read off the unrotated mode state
        rotated = []

        def rotate_mode(rho_m, angle):
            rotated.append(angle)
            return obs.rotate_mode(rho_m, angle)

        monkeypatch.setattr(cli, "rotate_mode", rotate_mode)
        argv = ["run", "--steps", "8", *flags, "--param", "fock_dim=3", "--param",
                "alpha=1", "--param", "m_phase=8", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert len(rotated) == calls

    def test_holevo_csv_matches_grid_oracle(self, base_walk, grid_holevo):
        config, traj, _ = base_walk
        m_phase = config.resolve_params().m_phase
        out = config.resolve_out_dir()
        table = np.loadtxt(out / "holevo.csv", delimiter=",", skiprows=1)
        assert table[:, 0].tolist() == [step for step, _, _ in traj.snapshots]
        for row, (_, _, rho) in zip(table, traj.snapshots):
            ref = grid_holevo(obs.phase_distribution(obs.reduce_boson(rho), m_phase))
            assert np.all(np.abs(row[2:] - ref) <= 1e-14 * np.maximum(1, np.abs(ref)))

    def test_phase_csvs_match_direct_summation(self, base_walk, phase_dist_oracle):
        config, traj, _ = base_walk
        m_phase = config.resolve_params().m_phase
        out = config.resolve_out_dir()
        delta_c = cli.derive(config.resolve_params()).delta_c
        for step, t, rho in traj.snapshots[: cli.MAX_PHASE_FILES]:
            rho_m = obs.rotate_mode(obs.reduce_boson(rho), -delta_c * t)
            weights, vectors = np.linalg.eigh(rho_m)
            ref = sum(w * phase_dist_oracle(v, m_phase) for w, v in zip(weights, vectors.T))
            table = np.loadtxt(out / f"phase_step{step}.csv", delimiter=",", skiprows=1)
            assert np.all(np.abs(table[:, 1] - ref) <= 1e-14)


class TestMainEntry:
    def test_run_subcommand(self, tmp_path, capsys):
        rc = cli.main(
            [
                "run",
                "--preset",
                "base",
                "--steps",
                "1",
                "--samples-per-segment",
                "1",
                "--no-wigner",
                "--param",
                "fock_dim=6",
                "--param",
                "alpha=1.0",
                "--param",
                "m_phase=64",
                "--out",
                str(tmp_path / "cli_out"),
            ]
        )
        assert rc == 0
        written = json.loads((tmp_path / "cli_out" / "manifest.json").read_text())
        assert written["options"]["fit_steps"] == 0  # one step: no fit
        assert not (tmp_path / "cli_out" / "fit.json").exists()
        assert not (tmp_path / "cli_out" / "wigner_step1.csv").exists()

    def test_cli_process_is_warning_free(self, tmp_path, fresh_python):
        # the stock path under -W error, as a user starts it; the success
        # line reports the measured clipping of the Fock cutoff
        out = tmp_path / "base"
        argv = ["run", "--preset", "base", "--steps", "1", "--no-wigner", "--out"]
        proc = fresh_python("-W", "error", "-m", "magnonwalk.cli", *argv, str(out))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        top = json.loads((out / "manifest.json").read_text())["health"][
            "max_top_fock_population"
        ]
        assert proc.stdout.rstrip("\n").endswith(
            f"; top Fock level held up to {top:.3g} of the state"
        )

    @pytest.mark.parametrize(
        "param,code,prefix",
        [
            ("gamma1=1e308", 1, "configuration error: "),
            ("nu_q=1e200", 2, "numerical failure: "),
            ("nu_eta=1e200", 1, "configuration error: "),
            ("alpha=1e200", 1, "configuration error: "),
            (
                "Gamma=1e307",
                2,
                "numerical failure: propagation failed in segment 0",
            ),
            (
                "fock_dim=3 m_phase=4 alpha=1 d_sites=2 nu_q=2.87 nu_D=1e12"
                " nu_eta=0.001 --samples-per-segment=1",
                2,
                "numerical failure: propagation failed in segment 0",
            ),
            (
                "--wigner-grid=-1e200:1e200:3",
                2,
                "numerical failure: observables of step 1 (Wigner grid): ",
            ),
            (
                "fock_dim=3 nu_q=2e307",
                2,
                "numerical failure: model build (drive-on Hamiltonian): ",
            ),
        ],
    )
    def test_overflowing_parameter_exits_with_message(
        self, tmp_path, fresh_python, param, code, prefix
    ):
        # finite inputs that overflow: a rate of inf, R dt, eta**2,
        # |alpha|**2, the generator's rate products, the squarings of
        # exp(R dt), the Wigner table and the Hamiltonian's detuning term;
        # each exits with one stderr line
        # and no numpy warning.  A word of ``param`` is a --flag=value or a
        # --param item; without --wigner-grid the run has no Wigner table.
        argv = ["run", "--preset", "base", "--steps", "1"]
        items = ["fock_dim=4", "alpha=1", "m_phase=8"]
        for word in param.split():
            if word.startswith("--"):
                argv.append(word)
            else:
                items.append(word)
        if "--wigner-grid" not in param:
            argv.append("--no-wigner")
        for item in items:
            argv += ["--param", item]
        out = tmp_path / "out"
        proc = fresh_python("-m", "magnonwalk.cli", *argv, "--out", str(out))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(prefix)
        for csv in out.glob("*.csv"):
            assert "nan" not in csv.read_text()

    def test_readme_python_api(self, fresh_python):
        # the documented example runs as written
        block = re.search(
            r"## Python API\n\n```python\n(.*?)```", README.read_text(), re.DOTALL
        )
        proc = fresh_python("-W", "error", "-c", block.group(1))
        assert proc.returncode == 0, proc.stderr

    def test_readme_commands_parse(self):
        # every command of "Quick start" is a command line the parser
        # takes, and no config file is documented
        text = README.read_text()
        block = re.search(r"## Quick start\n\n```sh\n(.*?)```", text, re.DOTALL)
        commands = [line.split()[1:] for line in block.group(1).splitlines()
                    if line.startswith("magnonwalk ")]
        assert commands
        for argv in commands:
            cli._build_parser().parse_args(argv)
        assert "```ini" not in text
        assert "--config" not in text

    def test_bad_preset_exit_code(self, tmp_path, capsys):
        rc = cli.main(["run", "--param", "nu_eps0=-oops", "--out", str(tmp_path)])
        assert rc == 1

    def test_infeasible_schedule_exit_code(self, tmp_path):
        rc = cli.main(
            ["run", "--param", "nu_eps0=0.0001", "--out", str(tmp_path / "x")]
        )
        assert rc == 1

    def test_wigner_grid_flag(self, tmp_path):
        rc = cli.main(
            [
                "run",
                "--steps",
                "1",
                "--samples-per-segment",
                "1",
                "--param",
                "fock_dim=6",
                "--param",
                "alpha=1.0",
                "--wigner-grid=-2:2:7",
                "--out",
                str(tmp_path / "wg"),
            ]
        )
        assert rc == 0
        lines = (tmp_path / "wg" / "wigner_step1.csv").read_text().splitlines()
        assert len(lines) == 1 + 7 * 7

    def test_wigner_grid_help_example_runs(self, tmp_path, capsys, monkeypatch):
        # the example of ``run --help`` runs as written; its value starts
        # with '-', so it reaches the flag only in the '=' form
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.main(["run", "--help"]) == 0
        example = re.search(r"--wigner-grid=[^\s;]+", capsys.readouterr().out).group(0)
        argv = ["run", "--preset", "base", "--steps", "1", "--samples-per-segment", "1",
                "--param", "fock_dim=3", "--param", "alpha=1", "--out", str(tmp_path / "out")]
        assert cli.main([*argv, example]) == 0
        points = int(example.rsplit(":", 1)[1])
        lines = (tmp_path / "out" / "wigner_step1.csv").read_text().splitlines()
        assert len(lines) == 1 + points**2
        # as a separate word the value is read as an option: a usage error
        assert cli.main([*argv, *example.split("=", 1)]) == 1

    def test_runtime_imports_no_scipy(self, runtime_modules):
        # scipy is the tests' oracle only: after the import, a verify and a
        # 1-step run, a fresh interpreter holds no scipy module
        assert runtime_modules["scipy modules"] == "[]"

    def test_emission_modules_load_only_for_emission(self, runtime_modules):
        # OpenSSL (hashlib's _hashlib) and json serve only a run's
        # emission: verify leaves them out, and a run
        # loads OpenSSL only after its step matrices are built (the
        # drive-on one first, one dense block; the drive-off one four at
        # cutoff 3), past the drive-on build, where the walk's RSS peaks
        assert runtime_modules["after verify"] == "[]"
        assert runtime_modules["builds"] == "[(1, False), (4, False)]"
        assert runtime_modules["after run"] == "['_hashlib', 'hashlib', 'json']"

    @pytest.mark.skipif(
        cli._blas()["threads"] is None,
        reason="numpy's BLAS reports no OpenBLAS thread count",
    )
    def test_manifest_records_blas_threads(self, tmp_path, fresh_python):
        # the thread count moves the last bits of every artifact, so the
        # manifest records the one the run took, here set for OpenBLAS's load
        out = tmp_path / "out"
        argv = ["run", "--preset", "base", "--steps", "1", "--param", "fock_dim=3",
                "--param", "alpha=1", "--no-wigner", "--out", str(out)]
        proc = fresh_python(
            "-c", f"import magnonwalk.cli as cli; raise SystemExit(cli.main({argv!r}))",
            env_overrides={"OPENBLAS_NUM_THREADS": "1"},
        )
        assert proc.returncode == 0, proc.stderr
        blas = json.loads((out / "manifest.json").read_text())["blas"]
        assert blas["threads"] == 1
        assert blas["version"] == cli._blas()["version"]

    @pytest.mark.skipif(
        _mallopt() is None,
        reason="no mallopt in the C library: cli.main leaves the allocator's own"
        " policy, and the growth measured here depends on that allocator",
    )
    def test_drive_on_build_returns_freed_operands(self, tmp_path, fresh_python):
        # with the mmap threshold fixed at 1 MiB every freed 1156^2 operand
        # goes back to the OS, so the RSS grows across the drive-on build of
        # base by the Taylor kernel's two dense arrays (A^3 and the Horner
        # buffer X, then X and the second squaring buffer), its row panel,
        # its entry joins and the BLAS packing of one panel; the kernel
        # calls no LAPACK routine.  The growth is taken from the resident
        # size just before the build (/proc/self/statm), not from the
        # ru_maxrss high-water mark, which already holds the transient of
        # the drive-on Liouvillian
        argv = ["run", "--preset", "base", "--steps", "1", "--no-wigner",
                "--out", str(tmp_path / "out")]
        code = (
            "import os, resource\n"
            "import magnonwalk.cli as cli\n"
            "from magnonwalk import solver\n"
            "build, growth = solver.propagator, []\n"
            "def propagator(R, dt):\n"
            "    with open('/proc/self/statm') as statm:\n"
            "        pages = int(statm.read().split()[1])\n"
            "    before = pages * os.sysconf('SC_PAGE_SIZE')\n"
            "    P = build(R, dt)\n"
            "    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024\n"
            "    growth.append((len(P), R.shape[0], after - before))\n"
            "    return P\n"
            "solver.propagator = propagator\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(*growth[0])\n"
        )
        # Linux carries the RSS high-water mark of the process that starts
        # an interpreter into its ru_maxrss, so the measured one is started
        # from a small interpreter, not from this test process
        proc = fresh_python(
            "-c", f"import subprocess, sys; sys.exit(subprocess.run("
            f"[sys.executable, '-c', {code!r}]).returncode)"
        )
        assert proc.returncode == 0, proc.stderr
        blocks, n, grown = map(int, proc.stdout.splitlines()[-1].split())
        assert blocks == 1  # the drive-on step matrix is one dense block
        assert grown <= 2.4 * n * n * 8

    @pytest.mark.parametrize("library", [SimpleNamespace(), None])
    def test_runs_without_mallopt(self, tmp_path, monkeypatch, library):
        # a C library without mallopt, or none that ctypes loads, keeps its
        # own allocator policy, and the command runs as before; the manifest
        # then finds no OpenBLAS function in numpy's library either
        loaded = []

        def load(name):
            loaded.append(name)
            if library is None:
                raise OSError("no C library")
            return library

        monkeypatch.setattr(ctypes, "CDLL", load)
        argv = ["run", "--steps", "1", "--samples-per-segment", "1", "--no-wigner",
                "--param", "fock_dim=3", "--param", "alpha=1", "--param", "m_phase=4",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 0
        assert loaded == [None, np._core._multiarray_umath.__file__]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["blas"] == {"threads": None, "version": None}

    def test_taylor_timeseries_matches_rk4_oracle(
        self, tmp_path, monkeypatch, rk4_propagator
    ):
        # a 1-step walk's timeseries through the Taylor-21 step matrices is
        # within 1e-9 of the RK4 oracle's, which sizes its own sub-step
        # from ||R dt||_1
        argv = ["run", "--steps", "1", "--samples-per-segment", "2", "--no-wigner",
                "--param", "fock_dim=3", "--param", "alpha=1", "--param", "m_phase=4"]

        def timeseries(name):
            out = tmp_path / name
            assert cli.main([*argv, "--out", str(out)]) == 0
            return np.loadtxt(out / "timeseries.csv", delimiter=",", skiprows=1)

        expm = timeseries("expm")
        monkeypatch.setattr(solver, "propagator", rk4_propagator)
        assert np.max(np.abs(timeseries("rk4") - expm)) <= 1e-9

    def test_console_script_runs_verify(self, capsys):
        # the [project.scripts] entry point that an install puts on PATH
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
        module, _, attr = pyproject["project"]["scripts"]["magnonwalk"].partition(":")
        main = getattr(importlib.import_module(module), attr)
        assert main(["verify"]) == 0
        assert capsys.readouterr().out.endswith("all checks passed\n")

    def test_verify_subcommand(self, capsys):
        rc = cli.main(["verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "all checks passed" in out

    @pytest.mark.parametrize(
        "exc",
        [
            errors.DimensionError,
            errors.InvalidParameterError,
            errors.ScheduleInfeasibleError,
        ],
    )
    def test_settings_errors_are_config_errors(self, exc):
        assert issubclass(exc, ConfigError) and issubclass(exc, ValueError)

    @pytest.mark.parametrize(
        "exc", [errors.FitDomainError, errors.FlatDistributionError]
    )
    def test_fit_and_distribution_errors_are_numerical_failures(self, exc):
        assert issubclass(exc, errors.NumericalFailureError)
        assert issubclass(exc, ValueError)

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--method", "rk4"],
            ["run", "--bogus"],
            ["run", "--config", "walk.ini"],
            ["verify", "--fock-dim", "5"],
            ["run", "--fit-steps", "3"],
            ["run", "--no-wigner", "--wigner-grid=-1:1:5"],
            ["run", "--wigner-grid=1:2"],
        ],
    )
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 is kept for numerical failures; there is no integrator
        # choice, no config file, no verify setting and no fit window
        # other than the preset's; a grid is either given, well formed, or
        # switched off
        assert cli.main(argv) == 1
        assert "usage: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["run", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")

    def test_output_directory_without_out(self, tmp_path, monkeypatch):
        # --out is the one way to move the output: without it a run writes
        # ./run_<preset>, whatever the environment holds
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("MAGNONWALK_OUTPUT_ROOT", str(tmp_path / "root"))
        assert cli.RunConfig(preset="base").resolve_out_dir() == Path("run_base")
        argv = ["run", "--steps", "1", "--no-wigner", "--param", "fock_dim=3",
                "--param", "alpha=1", "--param", "m_phase=8"]
        assert cli.main(argv) == 0
        assert (tmp_path / "run_base" / "manifest.json").exists()
        assert not (tmp_path / "root").exists()


# Edge values of a --param override and of a Wigner range end.
EDGE_VALUES = (
    "0", "5e-324", "1e-12", "1", "2.87", "1e12", "1e200", "1e307", "-1", "-1e200",
    "100000000",
)
EDGE_RANGES = (
    "-1e308", "-1e200", "-1e20", "-4.5", "0", "4.5", "1e20", "1e200", "1e308",
)
OVERRIDABLE = (
    "nu_q", "nu_D", "nu_eta", "nu_eps0", "gamma1", "gamma_phi", "Gamma", "alpha",
    "d_sites", "m_phase",
)


def _squaring_example(preset, *overrides):
    """A two-step run at cutoff 3 whose exp(R dt) overflows in the squarings."""
    params = [tuple(item.split("=")) for item in overrides]
    return example(preset=preset, fock_dim=3, steps=2, params=params, grid=None)


class TestExitContract:
    """Every input exits 0, 1, 2 or 3, with no exception and no numpy
    warning; the command warns only that the dispersive regime is
    marginal.  Exit 1 writes no output directory, and exit 0 leaves every
    step-boundary state a density matrix and every phase distribution
    normalized."""

    @pytest.mark.filterwarnings("ignore::magnonwalk.errors.DispersiveRegimeWarning")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        preset=st.sampled_from(("base", "realistic")),
        fock_dim=st.integers(2, 6),
        steps=st.integers(0, 2),
        params=st.lists(
            st.tuples(st.sampled_from(OVERRIDABLE), st.sampled_from(EDGE_VALUES)),
            min_size=1, max_size=3,
        ),
        grid=st.none() | st.tuples(
            st.sampled_from(EDGE_RANGES), st.sampled_from(EDGE_RANGES),
            st.sampled_from((1, 2, 3, 257)),
        ),
    )
    @_squaring_example("base", "m_phase=4", "alpha=1", "d_sites=2", "nu_q=2.87",
                       "nu_D=1e12", "nu_eta=0.001")
    @_squaring_example("realistic", "m_phase=8", "alpha=0", "nu_eps0=1e200", "nu_D=1.0")
    @example(preset="base", fock_dim=3, steps=1, params=[("m_phase", "100000000")],
             grid=None)  # a grid of 1e8 x 3 complex entries is 4.8 GB
    @example(preset="base", fock_dim=4, steps=1, params=[("Gamma", "1e307")],
             grid=None)
    @example(preset="base", fock_dim=4, steps=1, params=[("alpha", "1e200")],
             grid=None)
    @example(preset="base", fock_dim=2, steps=1, params=[("nu_q", "1e307")],
             grid=None)  # R dt overflows
    @example(preset="base", fock_dim=4, steps=1, params=[("nu_q", "2.87")],
             grid=("1e308", "-1e308", 2))
    @example(preset="base", fock_dim=6, steps=1, params=[("gamma1", "1e200")],
             grid=None)  # exited 0 with a state of eigenvalue -1.0e-6
    def test_main_exits_with_a_code(
        self, tmp_path, preset, fock_dim, steps, params, grid
    ):
        out = tmp_path / "out"
        shutil.rmtree(out, ignore_errors=True)  # the examples share tmp_path
        argv = ["run", "--preset", preset, "--steps", str(steps),
                "--samples-per-segment", "1",
                f"--param=fock_dim={fock_dim}", "--param=alpha=1",
                *[f"--param={name}={value}" for name, value in params],
                "--wigner-grid={}:{}:{}".format(*grid) if grid else "--no-wigner",
                "--out", str(out)]
        trajectories = []

        def evolve(*args, **kwargs):
            trajectories.append(solver.evolve(*args, **kwargs))
            return trajectories[-1]

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "evolve", evolve)
            code = cli.main(argv)
        assert code in {0, 1, 2, 3}
        if code == 1:
            assert not out.exists()
        if code != 0:
            return
        # the manifest records a Wigner grid and a fit window exactly when
        # it wrote their files
        manifest = json.loads((out / "manifest.json").read_text())
        names = set(manifest["files"])
        has_wigner = any(name.startswith("wigner_step") for name in names)
        assert (manifest["options"]["wigner_grid"] is None) == (not has_wigner)
        assert (manifest["options"]["fit_steps"] == 0) == ("fit.json" not in names)
        (traj,) = trajectories
        for _, _, rho in traj.snapshots:
            assert np.array_equal(rho, rho.conj().T)
            assert abs(np.trace(rho) - 1) <= 1e-8
            assert np.linalg.eigvalsh(rho)[0] >= -1e-7
        for path in out.glob("phase_step*.csv"):
            table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
            assert abs(table[:, 1].sum() - 1) <= 1e-8

    def test_step_matrix_beyond_the_positivity_floor_exits_2(self, tmp_path, capsys):
        # a qubit rate that dwarfs the rest of the generator: the step
        # matrices' error bounds read 1.0e86 and 2.6e86, so the entries
        # cannot support positivity to the floor of 1e-7
        argv = ["run", "--preset", "base", "--steps", "1", "--samples-per-segment", "4",
                "--param", "fock_dim=5", "--param", "alpha=1", "--param", "gamma1=1e100",
                "--no-wigner", "--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(
            "numerical failure: propagation failed in segment 0 (step 1): "
            "step-matrix error bound 1.019e+86 exceeds"
        )


class TestConfigErrors:
    """Bad settings exit 1 with a configuration error before any state is
    propagated or any artifact is written."""

    @pytest.fixture(autouse=True)
    def _no_evolution(self, monkeypatch):
        def evolve(*args, **kwargs):
            raise AssertionError("the run got as far as the evolution")

        monkeypatch.setattr(cli, "evolve", evolve)

    def _main(self, tmp_path, capsys, *argv):
        out = tmp_path / "out"
        rc = cli.main(["run", *argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert not out.exists()
        return err

    # above 256 points: at cutoff 17, 257 points would be a 161 MB
    # displacement table and a 66,049-row CSV per step, 1001 points 2.45 GB
    @pytest.mark.parametrize("grid", ["-2:2:-1", "-2:2:0", "-4.5:4.5:257"])
    def test_bad_wigner_grid_flag(self, tmp_path, capsys, grid):
        self._main(tmp_path, capsys, f"--wigner-grid={grid}")

    def test_m_phase_below_fock_dim(self, tmp_path, capsys):
        self._main(tmp_path, capsys, "--param", "m_phase=8")

    def test_m_phase_equal_to_fock_dim(self, tmp_path, capsys):
        # at m_phase = fock_dim the phase CSV's first moment aliases the
        # wrap term
        err = self._main(tmp_path, capsys, "--param", "m_phase=17")
        assert "m_phase = 17 must exceed fock_dim = 17" in err

    def test_m_phase_above_ceiling(self, tmp_path, capsys):
        err = self._main(tmp_path, capsys, "--param", "m_phase=100000000")
        assert "m_phase = 100000000 exceeds 65536" in err

    @pytest.mark.parametrize(
        "param", ["Gamma=nan", "gamma1=inf", "alpha=nan", "alpha=1+infj"]
    )
    def test_non_finite_param(self, tmp_path, capsys, param):
        self._main(tmp_path, capsys, "--param", param)

    def test_zero_coupling(self, tmp_path, capsys):
        self._main(tmp_path, capsys, "--param", "nu_eta=0")

    def test_uncreatable_output_directory(self, tmp_path, capsys):
        # a regular file where a parent directory should be
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub"
        argv = ["run", "--preset", "base", "--steps", "1", "--no-wigner"]
        assert cli.main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: cannot create output directory")

    @pytest.mark.parametrize("grid", ["nan:2:5", "-2:inf:5", "-inf:2:5"])
    def test_non_finite_wigner_grid_flag(self, tmp_path, capsys, grid):
        self._main(tmp_path, capsys, f"--wigner-grid={grid}")

    def test_unknown_param(self, tmp_path, capsys):
        err = self._main(tmp_path, capsys, "--param", "not_a_field=1")
        assert "unknown parameter 'not_a_field'" in err

    def test_param_names_are_case_sensitive(self, tmp_path, capsys):
        # --param takes the PhysicalParams field names as written
        err = self._main(tmp_path, capsys, "--param", "gamma=2e-3")
        assert "'gamma'" in err
        argv = ["run", "--param", "Gamma=2e-3", "--param", "nu_D=2.9"]
        p = cli._config_from_args(cli._build_parser().parse_args(argv)).resolve_params()
        assert p.Gamma == 2e-3
        assert p.nu_D == 2.9

    @pytest.mark.parametrize(
        "param", ["d_sites=x", "alpha=left"], ids=["d_sites", "alpha"]
    )
    def test_bad_typed_param(self, tmp_path, capsys, param):
        err = self._main(tmp_path, capsys, "--param", param)
        key, raw = param.split("=")
        assert key in err and repr(raw) in err

    def test_param_without_value(self, tmp_path, capsys):
        err = self._main(tmp_path, capsys, "--param", "fock_dim")
        assert "--param needs NAME=VALUE, got 'fock_dim'" in err


def _per_cell_csv(path, header, rows):
    """The row-by-row writer: every float cell through f"{x:.17g}"."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row)
                + "\n"
            )


EDGE_VALUES = np.array(
    [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, np.nan, np.inf, 1 / 3, 2.5e-17, 7.0]
)


class TestEmission:
    def test_columns_match_per_cell_writer(self, tmp_path):
        flags = np.arange(len(EDGE_VALUES)) % 3 == 0
        values = EDGE_VALUES[::-1].copy()
        _per_cell_csv(
            tmp_path / "old.csv",
            ["t_ns", "n_c", "drive_on"],
            zip(map(float, EDGE_VALUES), map(float, values), map(int, flags)),
        )
        sha = cli._write(
            tmp_path / "new.csv",
            cli._csv(
                ["t_ns", "n_c", "drive_on"],
                [
                    cli._fmt(EDGE_VALUES),
                    cli._fmt(values),
                    list(map(str, flags.astype(int).tolist())),
                ],
            ),
        )
        data = (tmp_path / "new.csv").read_bytes()
        assert data == (tmp_path / "old.csv").read_bytes()
        assert b"-0," in data and b"nan" in data
        assert sha == hashlib.sha256(data).hexdigest()

    def test_wigner_long_form_matches_per_cell_writer(self, tmp_path):
        # a stack of two grids on shared axes, one with a signed zero; the
        # W cells hold every EDGE_VALUE
        xs = np.array([-0.0, 5e-324, 1e300, -4.5])
        ps = np.array([np.nan, 0.1, -2.0])
        w = np.arange(12.0).reshape(4, 3) / 7.0
        w.flat[: len(EDGE_VALUES)] = EDGE_VALUES
        stack = np.stack([w, -w[::-1]])
        texts = cli._wigner_csvs(obs.WignerGrid(x=xs, p=ps, w=stack))
        for grid_w, text in zip(stack, texts, strict=True):
            _per_cell_csv(
                tmp_path / "old.csv",
                ["x", "p", "W"],
                (
                    (float(xs[i]), float(ps[j]), float(grid_w[i, j]))
                    for i in range(len(xs))
                    for j in range(len(ps))
                ),
            )
            assert text.encode() == (tmp_path / "old.csv").read_bytes()
            assert "inf" in text and "e+300" in text and "\n-0,nan," in text

    def test_run_holds_one_wigner_csv_at_a_time(self, tmp_path):
        # 32 snapshots at cutoff 4 on the default 101-point grid: each
        # Wigner CSV is about 0.6 MB of text, and the run peaks near 7.3 MB
        # when each is written before the next is built, against 23 MB
        # when all 32 are built first; 12 MB sits between
        argv = ["run", "--preset", "base", "--steps", "32",
                "--samples-per-segment", "1", "--param", "fock_dim=4",
                "--param", "alpha=1", "--out", str(tmp_path / "out")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12e6

    def test_empty_columns_give_header_only(self):
        assert cli._csv(["a", "b"], [[], []]) == "a,b\n"

    def test_manifest_sha_is_of_file_on_disk(self, completed_run):
        config, manifest = completed_run
        out = config.resolve_out_dir()
        for name, sha in manifest.files.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == sha


class TestManifestTelemetry:
    def test_timings_per_stage(self, completed_run):
        config, manifest = completed_run
        written = json.loads((config.resolve_out_dir() / "manifest.json").read_text())
        assert written["timings"] == manifest.timings
        stages = ("build", "evolve", "observables", "emission")
        parts = ("evolve.generators", "evolve.step_matrices", "evolve.stepping")
        assert set(manifest.timings) == {*stages, *parts}
        assert all(t >= 0 for t in manifest.timings.values())
        assert sum(manifest.timings[s] for s in stages) <= manifest.duration_s
        assert not set(manifest.timings) & set(manifest.files)

    def test_evolve_parts_sum_to_evolve(self, completed_run):
        # the generators and the step matrices are timed inside evolve and
        # the stepping is the rest of the evolve stage, so the three parts
        # tile it: their sum is evolve to within the clock's resolution
        _, manifest = completed_run
        t = manifest.timings
        parts = [t["evolve.generators"], t["evolve.step_matrices"], t["evolve.stepping"]]
        assert all(part > 0 for part in parts)
        resolution = time.get_clock_info("perf_counter").resolution
        assert abs(sum(parts) - t["evolve"]) <= resolution

    def test_propagator_build_times(self, base_walk):
        # evolve times each step-matrix build; on base the drive-on
        # exponential of one 1156^2 block takes about 0.45 s and the 18
        # drive-off blocks about 0.011 s
        config, _, _ = base_walk
        written = json.loads((config.resolve_out_dir() / "manifest.json").read_text())
        build_s = {e["drive_on"]: e["build_s"] for e in written["propagators"]}
        assert len(written["propagators"]) == len(build_s) == 2
        assert all(t > 0 for t in build_s.values())
        assert sum(build_s.values()) <= written["timings"]["evolve"]
        assert build_s[True] > build_s[False]

    def test_health(self, completed_run):
        config, manifest = completed_run
        written = json.loads((config.resolve_out_dir() / "manifest.json").read_text())
        health = written["health"]
        assert health == manifest.health
        assert set(health) == {
            "max_trace_drift",
            "renormalizations",
            "min_eigenvalue",
            "max_top_fock_population",
        }
        assert 0 <= health["max_trace_drift"] < 1e-10
        assert health["renormalizations"] == 0
        assert health["min_eigenvalue"] > -1e-10
        assert 0 <= health["max_top_fock_population"] < 1


# Every frequency and rate of the model, in GHz: the parameters that set
# the unit of time.
UNIT_PARAMS = ("nu_q", "nu_D", "nu_eta", "nu_eps0", "gamma1", "gamma_phi", "Gamma")


def _artifacts(out, *args):
    """The artifacts of ``run *args --out out`` by file name (the manifest
    aside, which carries wall-clock times)."""
    assert cli.main(["run", *args, "--out", str(out)]) == 0
    return {f.name: f.read_text() for f in out.iterdir() if f.name != "manifest.json"}


def _scaled_walk(out, fock_dim, steps, scale):
    """The artifacts of a base walk at cutoff ``fock_dim``, every parameter
    of UNIT_PARAMS multiplied by ``scale``."""
    p = model.preset("base")
    return _artifacts(
        out, "--preset", "base", "--steps", str(steps),
        "--samples-per-segment", "2", "--wigner-grid=-3:3:11",
        f"--param=fock_dim={fock_dim}", "--param=alpha=1",
        *[f"--param={name}={getattr(p, name) * scale!r}" for name in UNIT_PARAMS],
    )


def _assert_cells_agree(got, ref, bound, scale=1.0):
    """Every cell of ``got``'s CSVs agrees with ``ref``'s within ``bound``
    absolute, but a t_ns cell, which agrees times ``scale`` within 64 u
    relative, and a sigma_H cell, within the bound times 1 + 1/(S^3
    sigma_H) at the row's sharpness S (see TestUnitScaling)."""
    assert got.keys() == ref.keys()
    u = 2.0**-53
    for name in sorted(n for n in ref if n.endswith(".csv")):
        header, *ref_rows = [line.split(",") for line in ref[name].splitlines()]
        got_header, *rows = [line.split(",") for line in got[name].splitlines()]
        assert got_header == header and len(rows) == len(ref_rows), name
        want = np.array(ref_rows, dtype=float)
        have = np.array(rows, dtype=float)
        tol = np.full(want.shape, bound)
        if "t_ns" in header:
            col = header.index("t_ns")
            have[:, col] *= scale
            tol[:, col] = 64 * u * np.abs(want[:, col])
        if "sigma_H" in header:
            col = header.index("sigma_H")
            s, sigma = want[:, header.index("sharpness")], want[:, col]
            tol[:, col] *= 1 + 1 / (s**3 * sigma)
        bad = np.abs(have - want) > tol
        assert not bad.any(), (name, (have - want)[bad], tol[bad])


class TestUnitScaling:
    """Two runs related by a change of units, checked against each other
    with no oracle.  Multiplying every frequency and rate by 2^k divides
    every time by 2^k and leaves each product of a rate and a time, R dt
    and delta_c t among them, the same bits: a product with a power of two
    is exact.  Any other factor rounds them anew, so those runs agree
    within a bound instead.  A quantity computed in units of its own, such
    as a rate without its 2 pi or a rotation by t in place of delta_c t,
    breaks the relation."""

    @pytest.mark.filterwarnings("ignore::magnonwalk.errors.DispersiveRegimeWarning")
    @settings(max_examples=50, deadline=None)
    @given(fock_dim=st.integers(3, 6), steps=st.integers(1, 3), k=st.integers(-8, 8))
    def test_power_of_two_is_a_change_of_units(self, tmp_path_factory, fock_dim, steps, k):
        ref = _scaled_walk(tmp_path_factory.mktemp("ref"), fock_dim, steps, 1.0)
        got = _scaled_walk(tmp_path_factory.mktemp("scaled"), fock_dim, steps, 2.0**k)
        assert got.keys() == ref.keys()
        for name in ref:
            if name.startswith(("phase_step", "wigner_step")):
                assert got[name] == ref[name], name
        # equal with t_ns scaled by exactly 2^-k, every other cell byte for byte
        for name in ("timeseries.csv", "holevo.csv"):
            ref_rows = [line.split(",") for line in ref[name].splitlines()]
            rows = [line.split(",") for line in got[name].splitlines()]
            assert len(rows) == len(ref_rows) and rows[0] == ref_rows[0]
            col = rows[0].index("t_ns")
            for row, ref_row in zip(rows[1:], ref_rows[1:]):
                assert float(row.pop(col)) * 2.0**k == float(ref_row.pop(col))
                assert row == ref_row
        # the fit regresses on log t, which shifts by k log 2 and rounds
        # anew, so slope and stderr agree to a relative 1e-12, not bit for bit
        if "fit.json" in ref:
            fit, ref_fit = json.loads(got["fit.json"]), json.loads(ref["fit.json"])
            for key in ("slope", "stderr"):
                assert abs(fit.pop(key) - ref_fit[key]) <= 1e-12 * abs(ref_fit.pop(key))
            assert fit == ref_fit

    @pytest.fixture(scope="class")
    def unscaled(self, tmp_path_factory):
        """The unscaled walk's artifacts and the larger norm1 of its two
        step matrices, by (fock_dim, steps)."""
        walks = {}

        def unscaled(fock_dim, steps):
            if (fock_dim, steps) not in walks:
                out = tmp_path_factory.mktemp("unscaled")
                files = _scaled_walk(out, fock_dim, steps, 1.0)
                manifest = json.loads((out / "manifest.json").read_text())
                norm1 = max(e["norm1"] for e in manifest["propagators"])
                walks[fock_dim, steps] = files, norm1
            return walks[fock_dim, steps]

        return unscaled

    @pytest.mark.filterwarnings("ignore::magnonwalk.errors.DispersiveRegimeWarning")
    @settings(max_examples=20, deadline=None)
    @given(fock_dim=st.integers(3, 6), steps=st.integers(1, 2),
           exponent=st.floats(-3.0, 3.0))
    def test_any_factor_is_a_change_of_units(
        self, unscaled, tmp_path_factory, fock_dim, steps, exponent
    ):
        # A factor that is not a power of two rounds every rate and time
        # anew, by a few u relative (u = 2^-53).  That moves each step
        # matrix by a few u ||R dt||_1 and the co-rotation angle delta_c t
        # by as much per step, so the bound, fixed before the test's first
        # run, is linear in both: every CSV cell agrees with the unscaled
        # run's within 64 * steps * u * ||R dt||_1 absolute, ||R dt||_1 the
        # larger norm1 of the unscaled run's two step matrices.
        # sigma_H = sqrt(1/S^2 - 1) turns an error in the sharpness S into
        # 1/(S^3 sigma_H) times as much, so its cells get the bound times
        # 1 + 1/(S^3 sigma_H).  t_ns, multiplied by the factor, agrees
        # within 64 u relative.
        scale = 10.0**exponent
        ref, norm1 = unscaled(fock_dim, steps)
        got = _scaled_walk(tmp_path_factory.mktemp("scaled"), fock_dim, steps, scale)
        _assert_cells_agree(got, ref, 64 * steps * 2.0**-53 * norm1, scale)


class TestStepCountPrefix:
    """A k-step walk is the first k steps of an n-step walk, checked with no
    oracle: its step-boundary CSVs are the n-step run's byte for byte, and
    its time series and Holevo table are line prefixes of the n-step ones.
    Anything of a later step that reaches an earlier artifact, such as a
    snapshot rotated by the last boundary time, breaks the relation, and so
    does a Wigner grid that depends on how many snapshots share its call.
    fit.json is excepted: its window depends on the step count."""

    @pytest.fixture(scope="class")
    def walk(self, tmp_path_factory):
        walks = {}

        def walk(fock_dim, steps):
            if (fock_dim, steps) not in walks:
                walks[fock_dim, steps] = _artifacts(
                    tmp_path_factory.mktemp("walk"), "--preset", "base",
                    "--steps", str(steps), "--wigner-grid=-3:3:21",
                    f"--param=fock_dim={fock_dim}", "--param=alpha=1",
                )
            return walks[fock_dim, steps]

        return walk

    @staticmethod
    def assert_prefix(short, full, steps):
        names = short.keys() - {"fit.json"}
        assert names <= full.keys()
        assert {f"wigner_step{steps}.csv", "holevo.csv"} <= names
        for name in names:
            if name.startswith(("phase_step", "wigner_step")):
                assert short[name] == full[name], name
            else:
                assert full[name].startswith(short[name]), name

    @settings(max_examples=30, deadline=None)
    @given(fock_dim=st.integers(3, 6),
           counts=st.sets(st.integers(1, 4), min_size=2, max_size=2).map(sorted))
    def test_fewer_steps_are_a_prefix(self, walk, fock_dim, counts):
        self.assert_prefix(walk(fock_dim, counts[0]), walk(fock_dim, counts[1]),
                           counts[0])

    def test_stock_walk_is_a_prefix(self, base_walk, tmp_path):
        # the stock cutoff and grid, where the 4-step walk's snapshots share
        # one Wigner call in a stack of 4 and the 8-step walk's in one of 8
        config, _, _ = base_walk
        full = {f.name: f.read_text() for f in Path(config.out_dir).iterdir()
                if f.name != "manifest.json"}
        self.assert_prefix(_artifacts(tmp_path, "--preset", "base", "--steps", "4"),
                           full, 4)


class TestBlasThreadPolicy:
    """Importing the package sets OpenBLAS's idle-thread timeout for
    numpy's load, keeps a value the user set, leaves the environment as it
    found it, and changes no bits of the artifacts.  OpenBLAS's thread
    count does change the last bits, within a bound, and the manifest
    names it."""

    @pytest.fixture(scope="class")
    def stock_walk(self, tmp_path_factory, fresh_python):
        """The text of each file, manifest included, that a 1-step
        stock-cutoff base walk writes in a fresh interpreter, by OpenBLAS's
        thread count and idle-thread timeout (None: the package's); each
        setting runs once.  The drive-on build runs at the stock cutoff,
        where its GEMMs and the stepping gemvs are threaded."""
        walks = {}

        def stock_walk(threads, timeout=None):
            if (threads, timeout) not in walks:
                out = tmp_path_factory.mktemp("blas")
                proc = fresh_python(
                    "-m", "magnonwalk.cli", "run", "--preset", "base", "--steps", "1",
                    "--out", str(out),
                    env_overrides={"OPENBLAS_NUM_THREADS": threads,
                                   "OPENBLAS_THREAD_TIMEOUT": timeout},
                )
                assert proc.returncode == 0, proc.stderr
                walks[threads, timeout] = {f.name: f.read_text() for f in out.iterdir()}
            return walks[threads, timeout]

        return stock_walk

    @pytest.mark.parametrize("user_value", [None, "10"])
    def test_set_before_numpy_loads(self, fresh_python, user_value):
        # a meta-path hook records the variable when numpy is first
        # imported, which is when OpenBLAS's constructor reads it
        code = (
            "import os, sys\n"
            "assert 'numpy' not in sys.modules\n"
            "seen = []\n"
            "class Hook:\n"
            "    def find_spec(self, name, path=None, target=None):\n"
            "        if name == 'numpy' and not seen:\n"
            "            seen.append(os.environ.get('OPENBLAS_THREAD_TIMEOUT'))\n"
            "sys.meta_path.insert(0, Hook())\n"
            "before = dict(os.environ)\n"
            "import magnonwalk.cli\n"
            "print(seen)\n"
            "print(dict(os.environ) == before)\n"
        )
        proc = fresh_python(
            "-c", code, env_overrides={"OPENBLAS_THREAD_TIMEOUT": user_value}
        )
        assert proc.returncode == 0, proc.stderr
        expected = user_value or magnonwalk._OPENBLAS_THREAD_TIMEOUT
        assert proc.stdout.splitlines() == [repr([expected]), "True"]

    def test_artifacts_keep_their_bits(self, stock_walk):
        # OpenBLAS's default timeout, 28, against the package's: the thread
        # count is the same, so every product splits the same way
        default, package = (json.loads(stock_walk("2", timeout)["manifest.json"])
                            for timeout in ("28", None))
        assert package["files"] == default["files"]
        assert len(default["files"]) == 4

    @pytest.mark.skipif(
        cli._blas()["threads"] is None,
        reason="numpy's BLAS reports no OpenBLAS thread count",
    )
    def test_thread_count_moves_last_bits_within_bound(self, stock_walk):
        # One thread against two splits and orders the sums of every GEMM
        # and gemv differently, so each product rounds anew by a few u
        # relative to its operands: each step matrix moves by a few
        # u ||R dt||_1, and the state by as much per step.  That is the
        # perturbation of a change of units, so the bound, fixed before the
        # test's first run, is TestUnitScaling's: every CSV cell within
        # 64 * steps * u * ||R dt||_1 absolute, ||R dt||_1 the larger norm1
        # of the two step matrices.  The manifest's health reads the same
        # state, so its trace drift and smallest eigenvalue get that bound
        # too; the rest of the manifest is equal, but for the thread count
        # and the wall-clock entries.
        files_1, files_2 = stock_walk("1"), stock_walk("2")
        one, two = (json.loads(files["manifest.json"]) for files in (files_1, files_2))
        threads = one["blas"].pop("threads"), two["blas"].pop("threads")
        if threads[1] < 2:  # OpenBLAS takes no more threads than CPUs
            pytest.skip(f"OpenBLAS runs {threads[1]} thread where 2 were asked for")
        assert threads == (1, 2)
        steps, norm1 = 1, max(e["norm1"] for e in two["propagators"])
        bound = 64 * steps * 2.0**-53 * norm1
        _assert_cells_agree(files_1, files_2, bound)
        for manifest in (one, two):
            for key in ("files", "duration_s", "timings"):
                del manifest[key]
            for entry in manifest["propagators"]:
                del entry["build_s"]
        for key in ("max_trace_drift", "min_eigenvalue"):
            assert abs(one["health"].pop(key) - two["health"].pop(key)) <= bound
        assert one == two


class TestSamplingRelation:
    """The samples taken within a segment do not move its step boundary:
    a walk sampled 1, 10 or 20 times per segment writes the same
    step-boundary artifacts to rounding, checked with no oracle.  The
    step matrix of dt/n applied n times differs from that of dt by the
    kernel's rounding (4 u ||R dt||_1 + 1e-15 per build, see
    ``solver._error_bound``) and n gemvs; earlier runs at the stock cutoff
    read 1.2e-12 on holevo.csv, 8.1e-15 on the phase CSVs and 1.8e-13 on
    the Wigner CSVs.  The bounds, fixed before this test first ran, are
    about ten times those: 1e-11, 1e-13 and 2e-12, in absolute terms, cell
    by cell.  Columns of step numbers and boundary times hold byte for
    byte, since they come from the schedule alone."""

    BOUNDS = {"holevo": 1e-11, "phase_step": 1e-13, "wigner_step": 2e-12}

    def test_boundaries_do_not_depend_on_sampling(self, tmp_path):
        walks = {
            n: _artifacts(tmp_path / f"n{n}", "--preset", "base", "--steps", "6",
                          "--samples-per-segment", str(n), "--wigner-grid=-4:4:41")
            for n in (1, 10, 20)
        }
        ref = walks[1]
        names = [name for name in ref if name.startswith(tuple(self.BOUNDS))]
        assert len(names) == 1 + cli.MAX_PHASE_FILES + 6  # holevo, phase, Wigner
        for n in (10, 20):
            assert walks[n].keys() == ref.keys()
            for name in names:
                bound = next(b for p, b in self.BOUNDS.items() if name.startswith(p))
                a, b = (np.loadtxt(io.StringIO(w[name]), delimiter=",", skiprows=1)
                        for w in (ref, walks[n]))
                if name == "holevo.csv":  # step and t_ns come from the schedule
                    assert np.array_equal(a[:, :2], b[:, :2])
                assert np.max(np.abs(a - b)) <= bound, (n, name)
