"""End-to-end acceptance criteria, one test per criterion, each printing a
PASS/FAIL line with the measured value.

The two preset trajectories are computed once (exact per-segment
exponential propagation) and shared.  Run with ``pytest -s`` to see the
criterion lines as they complete.
"""

import json
import math
import time

import numpy as np
import numpy.testing as npt
import pytest

from magnonwalk import algebra, cli, model, solver
from magnonwalk import observables as obs
from magnonwalk.errors import FlatDistributionError

RUNTIME_BUDGET_S = 300.0


def _report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} — {detail}")


class PresetRun:
    """One full walk plus the derived per-step spread series."""

    def __init__(self, name: str, samples_per_segment: int = 10):
        self.params = model.preset(name)
        self.derived = model.derive(self.params)
        self.h_on = model.hamiltonian_rotframe(self.params, self.derived, True)
        self.h_off = model.hamiltonian_rotframe(self.params, self.derived, False)
        self.diss = model.dissipators(self.params)
        self.schedule = model.pulse_schedule(self.params, self.derived)
        t0 = time.monotonic()
        self.traj = solver.evolve(
            self.schedule,
            model.initial_state(self.params),
            self.h_on,
            self.h_off,
            self.diss,
            samples_per_segment=samples_per_segment,
        )
        self.elapsed = time.monotonic() - t0
        self.samples_per_segment = samples_per_segment
        sharps, sigmas = [], []
        for _, _, rho in self.traj.snapshots:
            sharp, sigma = obs.sharpness_holevo(obs.reduce_boson(rho))
            sharps.append(sharp)
            sigmas.append(sigma)
        self.times = np.arange(1, len(sigmas) + 1) * self.derived.t_p
        self.sigma_h = np.array(sigmas)


@pytest.fixture(scope="module")
def base_run():
    return PresetRun("base")


@pytest.fixture(scope="module")
def realistic_run():
    return PresetRun("realistic")


def test_criterion_1_ballistic_spreading_base(base_run):
    slope, stderr = obs.loglog_slope(base_run.times, base_run.sigma_h, 7)
    ok = 0.75 <= slope <= 1.15 and base_run.elapsed < RUNTIME_BUDGET_S
    _report(
        "1 (base ballistic spreading)",
        ok,
        f"slope over steps 1-7 = {slope:.3f} +- {stderr:.3f}, band [0.75, 1.15], "
        f"run took {base_run.elapsed:.0f} s",
    )
    assert 0.75 <= slope <= 1.15
    assert base_run.elapsed < RUNTIME_BUDGET_S


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Not reproducible from the stated parameters: with the strong drive "
        "(eps0/delta_c ~ 2.7) the per-step Holevo values depend chaotically on "
        "the pulse-arrival phase; the 4-point slope scatters over [0.85, 2.6] "
        "under 5% drive perturbations and does not converge in Fock dimension "
        "(17/21/25 -> 1.750/2.853/2.095).  See README \"Fock cutoff\"."
    ),
)
def test_criterion_2_ballistic_spreading_realistic(realistic_run):
    slope, stderr = obs.loglog_slope(realistic_run.times, realistic_run.sigma_h, 4)
    ok = 0.56 <= slope <= 1.40 and realistic_run.elapsed < RUNTIME_BUDGET_S
    _report(
        "2 (realistic ballistic spreading)",
        ok,
        f"slope over steps 1-4 = {slope:.3f} +- {stderr:.3f}, band [0.56, 1.40], "
        f"run took {realistic_run.elapsed:.0f} s",
    )
    assert 0.56 <= slope <= 1.40
    assert realistic_run.elapsed < RUNTIME_BUDGET_S


def test_criterion_3_quasimagnon_stabilization(realistic_run):
    traj = realistic_run.traj
    t_p = realistic_run.derived.t_p
    mask = (traj.times > t_p) & (traj.times <= 4 * t_p)
    # samples are uneven across on/off segments: weight by the sub-interval
    widths = np.diff(traj.times, prepend=0.0)
    avg = float(np.sum(traj.n_c[mask] * widths[mask]) / np.sum(widths[mask]))
    ok = 4.0 <= avg <= 8.0
    _report(
        "3 (quasimagnon stabilization)",
        ok,
        f"time-averaged <n_c> over steps 2-4 = {avg:.2f}, band [4, 8]",
    )
    assert 4.0 <= avg <= 8.0


def _stabilization_average(traj, t_p):
    """Criterion 3's value: <n_c> over steps 2-4, weighted by the sample
    sub-intervals."""
    mask = (traj.times > t_p) & (traj.times <= 4 * t_p)
    widths = np.diff(traj.times, prepend=0.0)
    return float(np.sum(traj.n_c[mask] * widths[mask]) / np.sum(widths[mask]))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "Criterion 3 passes only at the stock cutoff: its value climbs with "
        "the Fock dimension (17/21/25/29 -> 5.81/7.29/8.42/9.81) and leaves "
        "the band [4, 8] from 25 on.  The mean-field amplitude of the driven "
        "mode peaks at |alpha|^2 ~ 50-88 in the early pulses, so the "
        "realistic preset needs a cutoff well above 60."
    ),
)
def test_stabilization_converged_in_cutoff(realistic_run):
    # the band is [4, 8]; a converged value moves by less than a tenth of
    # its width from cutoff 17 to 25
    p = model.preset("realistic", fock_dim=25, n_steps=4)
    d = model.derive(p)
    traj = solver.evolve(
        model.pulse_schedule(p, d),
        model.initial_state(p),
        model.hamiltonian_rotframe(p, d, True),
        model.hamiltonian_rotframe(p, d, False),
        model.dissipators(p),
    )
    values = {
        17: _stabilization_average(realistic_run.traj, realistic_run.derived.t_p),
        25: _stabilization_average(traj, d.t_p),
    }
    gap = abs(values[17] - values[25])
    _report(
        "cutoff convergence (criterion 3)",
        gap <= 0.4,
        f"<n_c> over steps 2-4 at fock_dim 17 = {values[17]:.3f}, "
        f"at 25 = {values[25]:.3f}, gap {gap:.2f} (<= 0.4)",
    )
    assert gap <= 0.4


def test_criterion_4_monotone_spreading(base_run):
    sig = base_run.sigma_h[:7]
    increasing = bool(np.all(np.diff(sig) > 0))
    _report(
        "4 (monotone spreading)",
        increasing,
        "sigma_H at step boundaries 1-7 = "
        + ", ".join(f"{s:.3f}" for s in sig),
    )
    assert increasing


def test_base_slope_converged_in_cutoff(tmp_path):
    # the stock cutoff 17 sits at the edge of the truncation budget; at 21
    # and 25 the base spreading exponent has converged
    slopes = {}
    for fock_dim in (21, 25):
        out = tmp_path / f"fock{fock_dim}"
        argv = ["run", "--preset", "base", "--no-wigner", "--out", str(out)]
        assert cli.main([*argv, "--param", f"fock_dim={fock_dim}"]) == 0
        slopes[fock_dim] = json.loads((out / "fit.json").read_text())["slope"]
    gap = abs(slopes[21] - slopes[25])
    in_band = all(0.75 <= s <= 1.15 for s in slopes.values())
    _report(
        "cutoff convergence (base)",
        gap <= 1e-3 and in_band,
        f"slope at fock_dim 21 = {slopes[21]:.5f}, at 25 = {slopes[25]:.5f}, "
        f"gap {gap:.1e} (<= 1e-3), band [0.75, 1.15]",
    )
    assert gap <= 1e-3
    assert in_band


def test_criterion_5_drive_correlated_fluctuations(base_run):
    traj = base_run.traj
    s = base_run.samples_per_segment
    n = traj.n_c[1:]  # drop the t=0 sample; rest group evenly by segment
    flags = traj.drive_on[1:]
    var_on, var_off = [], []
    for i in range(0, len(n), s):
        seg_var = float(np.var(n[i : i + s]))
        (var_on if flags[i] else var_off).append(seg_var)
    mean_on = float(np.mean(var_on))
    mean_off = float(np.mean(var_off))
    ok = mean_on > mean_off
    _report(
        "5 (drive-correlated number fluctuations)",
        ok,
        f"mean within-segment variance of <n_c>: on = {mean_on:.3e}, "
        f"off = {mean_off:.3e}",
    )
    assert mean_on > mean_off


def _boundary_invariants(label, states):
    worst_trace = max(abs(np.trace(r).real - 1.0) for r in states)
    worst_herm = max(np.linalg.norm(r - r.conj().T) for r in states)
    worst_eig = min(np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] for r in states)
    ok = worst_trace < 1e-8 and worst_herm < 1e-10 and worst_eig >= -1e-7
    return ok, (
        f"{label}: |tr-1| = {worst_trace:.1e}, herm = {worst_herm:.1e}, "
        f"min eig = {worst_eig:.1e}"
    )


def _trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def test_criterion_6_solver_invariants(
    base_run, realistic_run, monkeypatch, rk4_propagator
):
    details = []
    ok_all = True

    for run in (base_run, realistic_run):
        states = [r for _, _, r in run.traj.snapshots]
        ok, msg = _boundary_invariants(f"{run.params.nu_eps0:g}GHz-drive expm", states)
        ok_all &= ok
        details.append(msg)

    # expm vs rk4 over one full step per preset, through evolve with one
    # sample per segment, plus invariants of the rk4-propagated state.  The
    # RK4 oracle (conftest) sizes its sub-steps from ||R dt||_1.
    for run in (base_run, realistic_run):
        step_1 = run.schedule[:2]
        args = (step_1, model.initial_state(run.params), run.h_on, run.h_off, run.diss)
        a = solver.evolve(*args, samples_per_segment=1).snapshots[0][2]
        with monkeypatch.context() as patch:
            patch.setattr(solver, "propagator", rk4_propagator)
            b = solver.evolve(*args, samples_per_segment=1).snapshots[0][2]
        dist = _trace_distance(a, b)
        ok_inv, msg = _boundary_invariants(
            f"{run.params.nu_eps0:g}GHz-drive rk4", [b]
        )
        ok_all &= dist < 1e-6 and ok_inv
        details.append(f"expm/rk4 step-1 trace distance = {dist:.2e}; {msg}")

    # dissipation-free runs conserve purity
    for name in ("base", "realistic"):
        p = model.preset(name, gamma1=0.0, gamma_phi=0.0, Gamma=0.0)
        d = model.derive(p)
        traj = solver.evolve(
            model.pulse_schedule(p, d),
            model.initial_state(p),
            model.hamiltonian_rotframe(p, d, True),
            model.hamiltonian_rotframe(p, d, False),
            model.dissipators(p),
            samples_per_segment=1,
        )
        purities = [np.trace(r @ r).real for _, _, r in traj.snapshots]
        drift = max(abs(pu - 1.0) for pu in purities)
        ok_all &= drift < 1e-8
        details.append(f"{name} dissipation-free purity drift = {drift:.1e}")

    _report("6 (solver invariant suite)", ok_all, "; ".join(details))
    assert ok_all, details


def test_criterion_7_operator_algebra_verification():
    t0 = time.monotonic()
    reports = algebra.run_all_checks()
    elapsed = time.monotonic() - t0
    failed = [r for r in reports if not r.passed]
    by_name = {r.name: r for r in reports}
    halving = by_name["contraction.halving[N=2->4]"]
    slope = by_name["frohlich.residual_slope"]
    ok = not failed and elapsed < 60.0
    _report(
        "7 (operator-algebra verification suite)",
        ok,
        f"{len(reports)} checks, worst residual "
        f"{max(r.value for r in reports if r.comparison == '<='):.2e}, "
        f"halving offset {halving.value:.1e} (tol 0.2), "
        f"transformation slope {slope.value:.2f} (>= 1.9), {elapsed:.1f} s",
    )
    assert failed == []
    assert elapsed < 60.0


def test_criterion_8_observable_oracles():
    details = []

    grid = obs.wigner(np.outer(*2 * [np.eye(17, dtype=complex)[0]]), points=51)
    i = np.argmin(np.abs(grid.x))
    peak = grid.w[i, i]
    ok_wigner = abs(peak - 2 / math.pi) < 1e-6
    details.append(f"vacuum Wigner peak = {peak:.8f} (2/pi = {2 / math.pi:.8f})")

    state = model.coherent_state(3.0, 17)
    phi = -np.pi + 2 * np.pi * np.arange(256) / 256
    oracle_amp = np.array(
        [sum(np.exp(-1j * n * f) * state[n] for n in range(17)) for f in phi]
    )
    oracle_p = np.abs(oracle_amp) ** 2 / 256
    oracle_sharp = abs(np.sum(oracle_p * np.exp(1j * phi)))
    sharp, _ = obs.sharpness_holevo(np.outer(state, state.conj()))
    ok_sharp = abs(sharp - oracle_sharp) < 1e-9 and 0.976 <= sharp <= 0.996
    details.append(f"coherent sharpness = {sharp:.6f} (oracle {oracle_sharp:.6f})")

    try:  # a Fock state: flat phase distribution, no first moment
        obs.sharpness_holevo(np.diag(np.eye(17)[4]).astype(complex))
        ok_flat = False
    except FlatDistributionError:
        ok_flat = True
    details.append(f"flat distribution raises = {ok_flat}")

    d = model.derive(model.preset("base"))
    from scipy.linalg import expm

    h_coin = 0.5 * d.Omega_R * (model.SIGMA_X + model.SIGMA_Z)
    u = expm(-1j * h_coin * d.t_H)
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    fid = abs(np.trace(u.conj().T @ hadamard)) / 2
    ok_coin = fid > 1 - 1e-6
    details.append(f"coin-pulse Hadamard fidelity = {fid:.9f}")

    ok = ok_wigner and ok_sharp and ok_flat and ok_coin
    _report("8 (observable oracles)", ok, "; ".join(details))
    assert ok_wigner and ok_sharp and ok_flat and ok_coin


def circular_skewness(dist: obs.PhaseDistribution, center: float | None = None) -> float:
    """Third sine moment about a reference phase (circular mean if None).

    Positive values mean the distribution leans toward larger phases
    (counterclockwise).  For walk snapshots the natural reference is the
    walk's center phase (0 in the co-rotating frame): for multi-lobed
    distributions the per-step circular mean wobbles between lobes, while
    the fixed center exposes the pump-induced lean consistently.
    """
    if center is None:
        mu1 = np.sum(dist.p * np.exp(1j * dist.phi))
        center = float(np.angle(mu1))
    return float(np.sum(dist.p * np.sin(dist.phi - center) ** 3))


class TestCircularSkewness:
    def test_symmetric_distribution_is_zero(self):
        M = 256
        phi = -np.pi + 2 * np.pi * np.arange(M) / M
        p = np.exp(-0.5 * (phi / 0.3) ** 2)
        p /= p.sum()
        assert abs(circular_skewness(obs.PhaseDistribution(phi, p))) < 1e-12

    def test_lean_direction(self):
        M = 256
        phi = -np.pi + 2 * np.pi * np.arange(M) / M
        p = np.exp(-0.5 * (phi / 0.3) ** 2) * (1 + 0.5 * np.tanh(phi / 0.3))
        p /= p.sum()
        dist = obs.PhaseDistribution(phi, p)
        assert circular_skewness(dist, center=0.0) > 0

    def test_rotation_invariance_about_mean(self):
        M = 256
        phi = -np.pi + 2 * np.pi * np.arange(M) / M
        p = np.exp(-0.5 * (phi / 0.25) ** 2) * (1 + 0.4 * np.sin(phi))
        p /= p.sum()
        s0 = circular_skewness(obs.PhaseDistribution(phi, p))
        s1 = circular_skewness(obs.PhaseDistribution(phi, np.roll(p, 31)))
        assert s0 == pytest.approx(s1, abs=1e-9)


def test_criterion_9_phase_skew_direction(base_run):
    # third circular moment about the walk center (co-rotating frame);
    # the pump leans all early-step distributions the same way
    skews = {}
    for step, t, rho in base_run.traj.snapshots:
        if 2 <= step <= 4:
            rho_m = obs.rotate_mode(
                obs.reduce_boson(rho), -base_run.derived.delta_c * t
            )
            dist = obs.phase_distribution(rho_m, base_run.params.m_phase)
            skews[step] = circular_skewness(dist, center=0.0)
    signs = {step: math.copysign(1.0, v) for step, v in skews.items()}
    consistent = len(set(signs.values())) == 1 and all(
        abs(v) > 1e-12 for v in skews.values()
    )
    _report(
        "9 (phase distribution skew)",
        consistent,
        "third moments steps 2-4: "
        + ", ".join(f"{k}: {v:+.3e}" for k, v in sorted(skews.items())),
    )
    assert consistent


@pytest.mark.parametrize("name", ["base", "realistic"])
def test_full_rk4_boundary_invariants(name, monkeypatch, rk4_propagator):
    """Complete 8-step fixed-step RK4 runs; the two cached step matrices
    make each run a few seconds."""
    monkeypatch.setattr(solver, "propagator", rk4_propagator)
    p = model.preset(name)
    d = model.derive(p)
    traj = solver.evolve(
        model.pulse_schedule(p, d),
        model.initial_state(p),
        model.hamiltonian_rotframe(p, d, True),
        model.hamiltonian_rotframe(p, d, False),
        model.dissipators(p),
        samples_per_segment=1,
    )
    ok, msg = _boundary_invariants(f"{name} rk4 full", [r for _, _, r in traj.snapshots])
    assert ok, msg


@pytest.mark.parametrize("name", ["base", "realistic"])
def test_rk4_two_steps_track_expm(name, request, monkeypatch, rk4_propagator):
    """Two walk steps of RK4 at ten samples per segment, the command's
    default, against the first two steps of the preset's expm run: at the
    full cutoff the sub-step sized from ||R dt||_1 must be accurate, not
    just stable."""
    run = request.getfixturevalue(f"{name}_run")
    assert run.samples_per_segment == 10
    monkeypatch.setattr(solver, "propagator", rk4_propagator)
    traj = solver.evolve(
        run.schedule[:4],
        model.initial_state(run.params),
        run.h_on,
        run.h_off,
        run.diss,
        samples_per_segment=10,
    )
    expm = run.traj
    n = len(traj.times)
    assert n == 1 + 4 * 10
    npt.assert_array_equal(traj.times, expm.times[:n])
    for got, want in ((traj.n_c, expm.n_c), (traj.p_e, expm.p_e), (traj.p_g, expm.p_g)):
        assert np.max(np.abs(got - want[:n])) <= 1e-8
