import argparse
import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from magnonwalk import cli, model, solver
from magnonwalk import observables as obs
from magnonwalk import errors
from magnonwalk.errors import ConfigError


def small_config(tmp_path, **kw):
    """Fast run: trimmed Fock space, few steps, coarse Wigner grid."""
    defaults = dict(
        preset="base",
        params={"fock_dim": 8, "alpha": 1.5 + 0.0j},
        steps=2,
        samples_per_segment=2,
        fit_steps=2,
        wigner_points=11,
        out_dir=str(tmp_path / "out"),
    )
    defaults.update(kw)
    return cli.RunConfig(**defaults)


RUN_FIELDS = {f.name for f in dataclasses.fields(cli.RunConfig)}
ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def _python(*args):
    """A fresh interpreter on the package source, as a user starts it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    config = small_config(tmp)
    manifest = cli.run(config)
    return config, manifest


class TestConfigFile:
    def test_load_and_override(self, tmp_path):
        path = tmp_path / "walk.ini"
        path.write_text(
            "[run]\n"
            "preset = realistic\n"
            "steps = 3\n"
            "method = expm\n"
            "samples_per_segment = 5\n"
            "fit_steps = 3\n"
            "out = somewhere\n"
            "[model]\n"
            "drive_first = false\n"
            "dt_max = 0.002\n"
            "[emit]\n"
            "wigner = false\n"
            "[wigner]\n"
            "points = 41\n"
            "[params]\n"
            "nu_eps0 = 5.0\n"
        )
        cfg = cli.load_config(path)
        assert cfg.preset == "realistic"
        assert cfg.steps == 3
        assert cfg.samples_per_segment == 5
        assert cfg.drive_first is False
        assert cfg.dt_max == pytest.approx(0.002)
        assert cfg.emit_wigner is False
        assert cfg.wigner_points == 41
        assert cfg.params["nu_eps0"] == pytest.approx(5.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            cli.load_config(tmp_path / "absent.ini")

    def test_unknown_param_rejected(self, tmp_path):
        path = tmp_path / "walk.ini"
        path.write_text("[params]\nnot_a_field = 1\n")
        with pytest.raises(ConfigError):
            cli.load_config(path)

    def test_unknown_preset_rejected(self, tmp_path):
        config = small_config(tmp_path, preset="bogus")
        with pytest.raises(ConfigError):
            config.resolve_params()

    def test_default_fit_window_per_preset(self):
        # 7 boundary points enter the benchmark fit, 4 the strong-drive one
        assert cli.RunConfig(preset="base").resolve_fit_steps(8) == 7
        assert cli.RunConfig(preset="realistic").resolve_fit_steps(8) == 4
        assert cli.RunConfig(preset="base").resolve_fit_steps(3) == 3
        # no fit is recorded as a window of 0, not as a window too short to fit
        assert cli.RunConfig(preset="base").resolve_fit_steps(1) == 0
        assert cli.RunConfig(preset="base", fit_steps=0).resolve_fit_steps(8) == 0

    @pytest.mark.parametrize("k", [-3, 1])
    def test_fit_window_below_two_rejected(self, k):
        with pytest.raises(ConfigError, match="fit_steps"):
            cli.RunConfig(preset="base", fit_steps=k).resolve_fit_steps(8)

    def test_readme_example_config(self, tmp_path):
        # the documented file, inline comments included, loads as documented
        block = re.search(
            r"### Config file\n\n```ini\n(.*?)```", README.read_text(), re.DOTALL
        )
        path = tmp_path / "walk.ini"
        path.write_text(block.group(1))
        cfg = cli.load_config(path)
        assert cfg.method == "expm"
        assert cfg.drive_first is True
        assert cfg.dt_max == 1e-5
        assert cfg.params == {"nu_eps0": 10.0}

    def test_params_keys_are_case_sensitive(self, tmp_path):
        path = tmp_path / "walk.ini"
        path.write_text("[params]\nGamma = 2e-3\nnu_D = 2.9\n")
        p = cli.load_config(path).resolve_params()
        assert p.Gamma == 2e-3
        assert p.nu_D == 2.9
        path.write_text("[params]\ngamma = 2e-3\n")
        with pytest.raises(ConfigError, match="'gamma'"):
            cli.load_config(path)

    def test_boolean_words(self, tmp_path):
        path = tmp_path / "walk.ini"
        path.write_text("[model]\ndrive_first = off\nuse_omega_r0 = yes\n")
        cfg = cli.load_config(path)
        assert cfg.drive_first is False
        assert cfg.use_omega_r0 is True

    def test_run_flags_name_run_config_fields(self):
        # every flag but these three is copied onto the RunConfig field of
        # its dest, so a dest that is not a field would be dropped
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
        own = {"config", "wigner_grid", "param"}
        assert own <= dests
        assert dests - own <= RUN_FIELDS

    def test_config_keys_name_run_config_fields(self):
        targets = [f for keys in cli._CONFIG_KEYS.values() for f in keys.values()]
        assert set(targets) <= RUN_FIELDS
        assert len(targets) == len(set(targets))


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
            steps=1,
            samples_per_segment=1,
            emit_wigner=False,
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
        d = model.derive(config.resolve_params())
        assert by_flag[True]["dt"] == pytest.approx(d.t_H)
        assert by_flag[False]["dt"] == pytest.approx(d.t_p - d.t_H)

    @pytest.mark.parametrize(
        "key,names",
        [
            ("timeseries", {"timeseries.csv"}),
            ("holevo", {"holevo.csv"}),
            ("phase", {"phase_step1.csv", "phase_step2.csv"}),
        ],
    )
    def test_emit_switch_off(self, tmp_path, completed_run, key, names):
        # the small config as a file, with one [emit] switch off: that file
        # is neither written nor listed, and every other one is unchanged
        path = tmp_path / "walk.ini"
        path.write_text(
            "[run]\nsteps = 2\nsamples_per_segment = 2\nfit_steps = 2\n"
            f"[emit]\n{key} = false\n[wigner]\npoints = 11\n"
            "[params]\nfock_dim = 8\nalpha = 1.5\n"
        )
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        files = json.loads((out / "manifest.json").read_text())["files"]
        _, reference = completed_run
        assert files == {n: h for n, h in reference.files.items() if n not in names}
        assert {f.name for f in out.iterdir()} == {*files, "manifest.json"}

    def test_unrotated_snapshots(self, tmp_path, completed_run, monkeypatch):
        # corotating = false leaves the walk alone and writes the phase
        # distribution of the raw rotating-frame mode state
        trajectories = []

        def evolve(*args, **kwargs):
            trajectories.append(solver.evolve(*args, **kwargs))
            return trajectories[-1]

        monkeypatch.setattr(cli, "evolve", evolve)
        config = small_config(tmp_path, corotating=False)
        cli.run(config)
        out, ref = config.resolve_out_dir(), completed_run[0].resolve_out_dir()
        assert (out / "holevo.csv").read_bytes() == (ref / "holevo.csv").read_bytes()
        _, _, rho = trajectories[0].snapshots[0]
        m_phase = config.resolve_params().m_phase
        dist = obs.phase_distribution(obs.reduce_boson(rho), m_phase)
        table = np.loadtxt(out / "phase_step1.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table, np.column_stack([dist.phi, dist.p]))
        phase = (out / "phase_step1.csv").read_bytes()
        assert phase != (ref / "phase_step1.csv").read_bytes()

    def test_wigner_long_form(self, completed_run):
        config, _ = completed_run
        out = config.resolve_out_dir()
        lines = (out / "wigner_step1.csv").read_text().splitlines()
        assert lines[0] == "x,p,W"
        assert len(lines) == 1 + 11 * 11

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
                "--fit-steps",
                "0",
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
        assert written["options"]["fit_steps"] == 0  # --fit-steps 0: no fit
        assert not (tmp_path / "cli_out" / "fit.json").exists()
        assert not (tmp_path / "cli_out" / "wigner_step1.csv").exists()

    def test_cli_process_is_warning_free(self, tmp_path):
        # the stock path under -W error, as a user starts it; the success
        # line reports the measured clipping of the Fock cutoff
        out = tmp_path / "base"
        argv = ["run", "--preset", "base", "--steps", "1", "--no-wigner", "--out"]
        proc = _python("-W", "error", "-m", "magnonwalk.cli", *argv, str(out))
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
            (
                "nu_q=1e200 rk4",
                2,
                "numerical failure: propagation failed in segment 0",
            ),
            ("alpha=1e200", 1, "configuration error: "),
            (
                "Gamma=1e307",
                2,
                "numerical failure: propagation failed in segment 0",
            ),
            (
                "fock_dim=3 m_phase=3 alpha=1 d_sites=2 nu_q=2.87 nu_D=1e12"
                " nu_eta=0.001 --samples-per-segment=1",
                2,
                "numerical failure: propagation failed in segment 0",
            ),
            ("--wigner-grid=-1e200:1e200:3", 2, "numerical failure: "),
        ],
    )
    def test_overflowing_parameter_exits_with_message(
        self, tmp_path, param, code, prefix
    ):
        # finite inputs that overflow: a rate of inf, R dt, eta**2, an RK4
        # polynomial of finite R dt, |alpha|**2, the generator's rate
        # products, the squarings of exp(R dt) and the Wigner table; each
        # exits with one stderr line and no numpy warning.  A word of
        # ``param`` is a method name, a --flag=value or a --param item;
        # without --wigner-grid the run has no Wigner table.
        argv = ["run", "--preset", "base", "--steps", "1"]
        items = ["fock_dim=4", "alpha=1", "m_phase=8"]
        for word in param.split():
            if word in solver.METHODS:
                argv += ["--method", word]
            elif word.startswith("--"):
                argv.append(word)
            else:
                items.append(word)
        if "--wigner-grid" not in param:
            argv.append("--no-wigner")
        for item in items:
            argv += ["--param", item]
        out = tmp_path / "out"
        proc = _python("-m", "magnonwalk.cli", *argv, "--out", str(out))
        assert proc.returncode == code, proc.stderr
        assert "Traceback" not in proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert proc.stderr.startswith(prefix)
        for csv in out.glob("*.csv"):
            assert "nan" not in csv.read_text()

    def test_readme_python_api(self):
        # the documented example runs as written
        block = re.search(
            r"## Python API\n\n```python\n(.*?)```", README.read_text(), re.DOTALL
        )
        proc = _python("-W", "error", "-c", block.group(1))
        assert proc.returncode == 0, proc.stderr

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
                "--fit-steps",
                "0",
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

    @pytest.mark.parametrize("name", ["base", "realistic"])
    def test_rk4_default_dt_max_tracks_expm(self, tmp_path, name):
        # at the full cutoff the default sub-step must be accurate, not
        # just stable
        series = {}
        for method in ("expm", "rk4"):
            out = tmp_path / method
            argv = ["run", "--preset", name, "--method", method, "--steps", "2"]
            assert cli.main([*argv, "--no-wigner", "--out", str(out)]) == 0
            series[method] = np.loadtxt(
                out / "timeseries.csv", delimiter=",", skiprows=1
            )
        assert np.max(np.abs(series["rk4"] - series["expm"])) <= 1e-8

    def test_verify_subcommand(self, capsys):
        rc = cli.main(["verify", "--fock-dim", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "all checks passed" in out

    def test_verify_oversized_fock_dim_is_config_error(self, capsys):
        rc = cli.main(["verify", "--fock-dim", "10"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("configuration error: ")

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

    @pytest.mark.parametrize("argv", [["run", "--method", "bogus"], ["run", "--bogus"]])
    def test_usage_error_exits_1(self, capsys, argv):
        # exit 2 is kept for numerical failures
        assert cli.main(argv) == 1
        assert "usage: " in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        assert cli.main(["run", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ")

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_ROOT_ENV, str(tmp_path))
        cfg = cli.RunConfig(preset="base")
        assert cfg.resolve_out_dir() == tmp_path / "run_base"

    def test_method_flag_takes_the_solver_methods(self, capsys):
        parser = cli._build_parser()
        for method in solver.METHODS:
            assert parser.parse_args(["run", "--method", method]).method == method
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--method", "bogus"])


# Edge values of a --param override and of a Wigner range end.
EDGE_VALUES = (
    "0", "5e-324", "1e-12", "1", "2.87", "1e12", "1e200", "1e307", "-1", "-1e200",
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
    return example(preset=preset, fock_dim=3, steps=2, method="expm",
                   params=params, grid=None)


class TestExitContract:
    """Every input exits 0, 1, 2 or 3, with no exception and no numpy
    warning; the command warns only that the dispersive regime is
    marginal."""

    @pytest.mark.filterwarnings("ignore::magnonwalk.errors.DispersiveRegimeWarning")
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        preset=st.sampled_from(("base", "realistic")),
        fock_dim=st.integers(2, 4),
        steps=st.integers(0, 2),
        method=st.sampled_from(solver.METHODS),
        params=st.lists(
            st.tuples(st.sampled_from(OVERRIDABLE), st.sampled_from(EDGE_VALUES)),
            min_size=1, max_size=3,
        ),
        grid=st.none() | st.tuples(
            st.sampled_from(EDGE_RANGES), st.sampled_from(EDGE_RANGES),
            st.integers(1, 3),
        ),
    )
    @_squaring_example("base", "m_phase=3", "alpha=1", "d_sites=2", "nu_q=2.87",
                       "nu_D=1e12", "nu_eta=0.001")
    @_squaring_example("realistic", "m_phase=8", "alpha=0", "nu_eps0=1e200", "nu_D=1.0")
    @example(preset="base", fock_dim=4, steps=1, method="expm",
             params=[("Gamma", "1e307")], grid=None)
    @example(preset="base", fock_dim=4, steps=1, method="expm",
             params=[("alpha", "1e200")], grid=None)
    @example(preset="base", fock_dim=2, steps=1, method="rk4",
             params=[("nu_q", "1e307")], grid=None)  # dt / dt_max overflows
    @example(preset="base", fock_dim=4, steps=1, method="expm",
             params=[("nu_q", "2.87")], grid=("1e308", "-1e308", 2))
    def test_main_exits_with_a_code(
        self, tmp_path, preset, fock_dim, steps, method, params, grid
    ):
        argv = ["run", "--preset", preset, "--steps", str(steps),
                "--samples-per-segment", "1", "--method", method,
                f"--param=fock_dim={fock_dim}", "--param=alpha=1",
                *[f"--param={name}={value}" for name, value in params],
                "--wigner-grid={}:{}:{}".format(*grid) if grid else "--no-wigner",
                "--out", str(tmp_path / "out")]
        assert cli.main(argv) in {0, 1, 2, 3}


class TestConfigErrors:
    """Bad settings exit 1 with a configuration error before any state is
    propagated or any artifact is written."""

    @pytest.fixture(autouse=True)
    def _no_evolution(self, monkeypatch):
        def evolve(*args, **kwargs):
            raise AssertionError("the run got as far as the evolution")

        monkeypatch.setattr(cli, "evolve", evolve)

    def _main(self, tmp_path, capsys, *argv, ini=None):
        out = tmp_path / "out"
        if ini is not None:
            (tmp_path / "walk.ini").write_text(ini)
            argv = (*argv, "--config", str(tmp_path / "walk.ini"))
        rc = cli.main(["run", *argv, "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("configuration error: ")
        assert not out.exists()

    def test_unknown_method_in_config(self, tmp_path, capsys):
        self._main(tmp_path, capsys, ini="[run]\nmethod = bogus\n")

    @pytest.mark.parametrize("value", ["0", "-1e-5", "nan", "inf"])
    def test_bad_dt_max(self, tmp_path, capsys, value):
        ini = f"[run]\nmethod = rk4\n[model]\ndt_max = {value}\n"
        self._main(tmp_path, capsys, ini=ini)

    @pytest.mark.parametrize("points", ["-3", "0"])
    def test_bad_wigner_points_in_config(self, tmp_path, capsys, points):
        self._main(tmp_path, capsys, ini=f"[wigner]\npoints = {points}\n")

    @pytest.mark.parametrize("grid", ["-2:2:-1", "-2:2:0"])
    def test_bad_wigner_grid_flag(self, tmp_path, capsys, grid):
        self._main(tmp_path, capsys, f"--wigner-grid={grid}")

    def test_m_phase_below_fock_dim(self, tmp_path, capsys):
        self._main(tmp_path, capsys, "--param", "m_phase=8")

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

    @pytest.mark.parametrize("ini", ["min = nan", "max = inf", "min = -inf"])
    def test_non_finite_wigner_range_in_config(self, tmp_path, capsys, ini):
        self._main(tmp_path, capsys, ini=f"[wigner]\n{ini}\n")

    @pytest.mark.parametrize(
        "ini",
        [
            "[run]\nsamples_per_segmnt = 5\n",
            "[emitt]\nwigner = false\n",
            "[wigner]\npoint = 7\n",
            "[DEFAULT]\nsamples_per_segment = 5\n",
            "[emit]\nfit = false\n",
        ],
        ids=["key", "section", "wigner_key", "default_section", "emit_fit"],
    )
    def test_unknown_config_entry(self, tmp_path, capsys, ini):
        # a misspelt setting would otherwise run on its default
        self._main(tmp_path, capsys, ini=ini)

    # 0 stays the flag's way to switch the fit off
    @pytest.mark.parametrize("k", ["-3", "1"])
    def test_fit_steps_flag_below_two(self, tmp_path, capsys, k):
        self._main(tmp_path, capsys, "--fit-steps", k)

    @pytest.mark.parametrize("k", ["-3", "1"])
    def test_fit_steps_in_config_below_two(self, tmp_path, capsys, k):
        self._main(tmp_path, capsys, ini=f"[run]\nfit_steps = {k}\n")

    @pytest.mark.parametrize(
        "ini", ["steps = 2\n", "[run]\nsteps = 2\nsteps = 3\n"],
        ids=["no_section_header", "repeated_key"],
    )
    def test_malformed_config_file(self, tmp_path, capsys, ini):
        self._main(tmp_path, capsys, ini=ini)

    def test_config_file_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "walk.ini"
        path.write_bytes(b"[run]\nout = \xff\n")
        self._main(tmp_path, capsys, "--config", str(path))

    @pytest.mark.parametrize(
        "ini, key, raw",
        [
            ("[run]\nsteps = 2.5\n", "steps", "2.5"),
            ("[emit]\nwigner = maybe\n", "wigner", "maybe"),
            ("[model]\ndt_max = fast\n", "dt_max", "fast"),
            ("[params]\nd_sites = x\n", "d_sites", "x"),
        ],
        ids=["steps", "wigner", "dt_max", "d_sites"],
    )
    def test_bad_typed_value_in_config(self, tmp_path, capsys, ini, key, raw):
        (tmp_path / "walk.ini").write_text(ini)
        out = tmp_path / "out"
        argv = ["run", "--config", str(tmp_path / "walk.ini"), "--out", str(out)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ")
        assert key in err and repr(raw) in err
        assert not out.exists()


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
        xs = np.array([-0.0, 5e-324, 1e300, -4.5])
        ps = np.array([np.nan, 0.1, -2.0])
        w = np.arange(12.0).reshape(4, 3) / 7.0
        w[1, 2], w[3, 0] = -0.0, 5e-324
        grid = obs.WignerGrid(x=xs, p=ps, w=w)
        _per_cell_csv(
            tmp_path / "old.csv",
            ["x", "p", "W"],
            (
                (float(grid.x[i]), float(grid.p[j]), float(grid.w[i, j]))
                for i in range(len(grid.x))
                for j in range(len(grid.p))
            ),
        )
        assert cli._wigner_csv(grid).encode() == (tmp_path / "old.csv").read_bytes()

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
        assert set(manifest.timings) == {"build", "evolve", "observables", "emission"}
        assert all(t >= 0 for t in manifest.timings.values())
        assert sum(manifest.timings.values()) <= manifest.duration_s
        assert not set(manifest.timings) & set(manifest.files)

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
