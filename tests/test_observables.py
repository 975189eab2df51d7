import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.stats import linregress

from magnonwalk import observables as obs
from magnonwalk.errors import (
    DimensionError,
    FitDomainError,
    FlatDistributionError,
)
from magnonwalk.model import annihilation, coherent_state


def ket(dim, n):
    """The Fock (or qubit) basis vector |n>."""
    return np.eye(dim, dtype=complex)[n]


def qubit_boson(qubit_rho, boson_rho):
    return np.kron(qubit_rho, boson_rho)


def density(psi):
    return np.outer(psi, psi.conj())


MIXED_QUBIT = np.eye(2, dtype=complex) / 2
GROUND = density(ket(2, 1))


class TestMeanNumber:
    def test_vacuum(self):
        rho = qubit_boson(MIXED_QUBIT, density(ket(9, 0)))
        assert obs.mean_number(rho) == pytest.approx(0.0, abs=1e-14)

    def test_fock_five(self):
        rho = qubit_boson(GROUND, density(ket(9, 5)))
        assert obs.mean_number(rho) == pytest.approx(5.0)

    def test_truncated_coherent_oracle(self):
        # independent truncated-Poisson oracle
        weights = [math.exp(-9.0) * 9.0**n / math.factorial(n) for n in range(17)]
        oracle = sum(n * w for n, w in enumerate(weights)) / sum(weights)
        rho = qubit_boson(MIXED_QUBIT, density(coherent_state(3.0, 17)))
        assert obs.mean_number(rho) == pytest.approx(oracle, rel=1e-12)
        assert obs.mean_number(rho) < 9.0


class TestQubitPopulations:
    def test_excited(self):
        rho = qubit_boson(density(ket(2, 0)), density(ket(5, 2)))
        assert obs.qubit_populations(rho) == pytest.approx((1.0, 0.0))

    def test_mixed(self):
        rho = qubit_boson(MIXED_QUBIT, density(coherent_state(1.0, 8)))
        p_e, p_g = obs.qubit_populations(rho)
        assert p_e == pytest.approx(0.5)
        assert p_e + p_g == pytest.approx(1.0, abs=1e-10)


class TestReduceBoson:
    def test_product_state(self):
        boson = density(coherent_state(1.5, 10))
        rho = qubit_boson(MIXED_QUBIT, boson)
        npt.assert_allclose(obs.reduce_boson(rho), boson, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        rho = a @ a.conj().T
        rho /= np.trace(rho)
        assert np.trace(obs.reduce_boson(rho)) == pytest.approx(1.0)

    def test_entangled_state_reduces_to_mixture(self):
        # (|g,0> + |e,1>)/sqrt(2)
        f = 4
        psi = (
            np.kron(ket(2, 1), ket(f, 0))
            + np.kron(ket(2, 0), ket(f, 1))
        ) / math.sqrt(2)
        reduced = obs.reduce_boson(density(psi))
        expected = np.zeros((f, f), dtype=complex)
        expected[0, 0] = expected[1, 1] = 0.5
        npt.assert_allclose(reduced, expected, atol=1e-14)


class TestPhaseDistribution:
    def test_vacuum_is_flat(self):
        dist = obs.phase_distribution(density(ket(6, 0)), 64)
        npt.assert_allclose(dist.p, 1.0 / 64, atol=1e-14)

    def test_fock_state_is_flat(self):
        dist = obs.phase_distribution(density(ket(6, 4)), 64)
        npt.assert_allclose(dist.p, 1.0 / 64, atol=1e-14)

    def test_normalized(self):
        dist = obs.phase_distribution(density(coherent_state(3.0, 17)), 256)
        assert dist.p.sum() == pytest.approx(1.0, abs=1e-10)
        assert dist.p.min() >= 0.0

    def test_against_direct_summation_oracle(self, phase_dist_oracle):
        state = coherent_state(3.0, 17)
        oracle = phase_dist_oracle(state, 64)
        dist = obs.phase_distribution(density(state), 64)
        npt.assert_allclose(dist.p, oracle, atol=1e-12)

    def test_coherent_peaks_at_amplitude_phase(self):
        theta = 2 * math.pi * 37 / 256  # grid-commensurate
        dist = obs.phase_distribution(
            density(coherent_state(3.0 * np.exp(1j * theta), 17)), 256
        )
        assert dist.phi[np.argmax(dist.p)] == pytest.approx(theta - math.pi + math.pi, abs=0.05)

    def test_resolution_error(self):
        for M in (16, 17):
            with pytest.raises(DimensionError):
                obs.phase_distribution(density(coherent_state(1.0, 17)), M)

    @pytest.mark.parametrize("theta", [0.7, 2.0, -1.3])
    def test_sharpness_rotation_invariant_on_smallest_grid(self, theta, grid_holevo):
        # M = F + 1 is the smallest grid admitted: its first moment is the
        # sharpness of the mode state, for any rotation.  At M = F the wrap
        # term rho_{0, F-1} entered it: 0.9657 unrotated and 0.8563 after
        # 0.7 rad, against 0.8906 here
        F = 6
        rho = density(coherent_state(1.5, F))
        fine, _ = obs.sharpness_holevo(rho)
        for state in (rho, obs.rotate_mode(rho, theta)):
            sharp, _ = grid_holevo(obs.phase_distribution(state, F + 1))
            assert sharp == pytest.approx(fine, abs=1e-14)

    def test_refinement_invariance_of_sharpness(self, grid_holevo):
        rho = density(coherent_state(3.0, 17))
        s256, _ = grid_holevo(obs.phase_distribution(rho, 256))
        s512, _ = grid_holevo(obs.phase_distribution(rho, 512))
        assert abs(s256 - s512) < 1e-6

    def test_rotation_covariance(self):
        M = 128
        rho = density(coherent_state(2.0, 12))
        j = 9  # grid-commensurate rotation by 2 pi j / M
        theta = 2 * math.pi * j / M
        rotated = obs.rotate_mode(rho, theta)
        base = obs.phase_distribution(rho, M)
        shifted = obs.phase_distribution(rotated, M)
        npt.assert_allclose(shifted.p, np.roll(base.p, j), atol=1e-12)
        s0, _ = obs.sharpness_holevo(rho)
        s1, _ = obs.sharpness_holevo(rotated)
        assert abs(s0 - s1) < 1e-9

    @settings(max_examples=30, deadline=None)
    @given(
        dims=st.integers(2, 17).flatmap(
            lambda f: st.tuples(st.just(f), st.integers(f + 1, 4 * f))
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_states_match_grid_oracles(
        self, dims, seed, phase_dist_oracle, grid_holevo
    ):
        # a mixed state's distribution is the eigenvalue-weighted sum of
        # its eigenvectors' distributions
        fock, M = dims
        rho = _random_density(fock, seed)
        weights, vectors = np.linalg.eigh(rho)
        oracle = sum(w * phase_dist_oracle(v, M) for w, v in zip(weights, vectors.T))
        dist = obs.phase_distribution(rho, M)
        npt.assert_allclose(dist.p, oracle, rtol=0, atol=1e-12)
        sharp, _ = obs.sharpness_holevo(rho)
        assert abs(sharp - grid_holevo(dist)[0]) < 1e-14


class TestSharpnessHolevo:
    """``sharpness_holevo`` reads the first moment off the mode state; the
    grid oracle ``grid_holevo``, which the tests hold it to, is checked
    here on distributions of known spread."""

    def test_delta_distribution(self, grid_holevo):
        M = 128
        p = np.zeros(M)
        p[17] = 1.0
        phi = -np.pi + 2 * np.pi * np.arange(M) / M
        sharp, sigma = grid_holevo(obs.PhaseDistribution(phi, p))
        assert sharp == pytest.approx(1.0)
        assert sigma == pytest.approx(0.0, abs=1e-9)

    def test_flat_distribution_raises(self):
        # a Fock state has a flat phase distribution (TestPhaseDistribution)
        # and no first moment
        with pytest.raises(FlatDistributionError):
            obs.sharpness_holevo(density(ket(6, 4)))

    def test_coherent_state_oracle(self, phase_dist_oracle):
        # sharpness from the direct-summation oracle, frozen band from the
        # Gaussian phase-width estimate exp(-1/(8 |alpha|^2))
        state = coherent_state(3.0, 17)
        oracle_p = phase_dist_oracle(state, 256)
        phi = -np.pi + 2 * np.pi * np.arange(256) / 256
        oracle_sharp = abs(np.sum(oracle_p * np.exp(1j * phi)))
        sharp, sigma = obs.sharpness_holevo(density(state))
        assert sharp == pytest.approx(oracle_sharp, abs=1e-9)
        assert 0.976 <= sharp <= 0.996
        assert abs(sharp - math.exp(-1 / 72)) < 0.01
        assert sigma == pytest.approx(math.sqrt(1 / sharp**2 - 1), rel=1e-12)
        # 1/(2|alpha|) is only the Gaussian width estimate
        assert sigma == pytest.approx(1 / (2 * 3.0), abs=0.05)

    def test_wrapped_gaussian_matches_width(self, grid_holevo):
        M = 4096
        phi = -np.pi + 2 * np.pi * np.arange(M) / M
        for w in (0.05, 0.1):
            p = np.exp(-0.5 * (phi / w) ** 2)
            p /= p.sum()
            _, sigma = grid_holevo(obs.PhaseDistribution(phi, p))
            assert abs(sigma - w) / w < 0.02


class TestWigner:
    def test_vacuum_peak(self):
        grid = obs.wigner(density(ket(17, 0)))
        i = np.argmin(np.abs(grid.x))
        j = np.argmin(np.abs(grid.p))
        assert grid.w[i, j] == pytest.approx(2 / math.pi, abs=1e-6)

    def test_vacuum_gaussian_profile(self):
        grid = obs.wigner(density(ket(10, 0)), points=41)
        X, P = np.meshgrid(grid.x, grid.p, indexing="ij")
        expected = (2 / math.pi) * np.exp(-2 * (X**2 + P**2))
        npt.assert_allclose(grid.w, expected, atol=1e-10)

    def test_normalization_riemann(self):
        grid = obs.wigner(density(coherent_state(1.0 + 0.5j, 17)))
        dx = grid.x[1] - grid.x[0]
        dp = grid.p[1] - grid.p[0]
        assert grid.w.sum() * dx * dp == pytest.approx(1.0, abs=0.02)

    def test_coherent_peak_location(self):
        grid = obs.wigner(density(coherent_state(3.0, 17)))
        i, j = np.unravel_index(np.argmax(grid.w), grid.w.shape)
        assert grid.x[i] == pytest.approx(3.0, abs=0.1)
        assert grid.p[j] == pytest.approx(0.0, abs=0.1)

    def test_bounded_by_two_over_pi(self):
        rho = density(coherent_state(2.0, 17))
        rho = 0.6 * rho + 0.4 * density(ket(17, 3))
        grid = obs.wigner(rho)
        assert np.max(np.abs(grid.w)) <= 2 / math.pi + 1e-9

    def test_vacuum_marginal_is_quadrature_distribution(self):
        grid = obs.wigner(density(ket(12, 0)), points=121)
        dp = grid.p[1] - grid.p[0]
        marginal = grid.w.sum(axis=1) * dp
        expected = math.sqrt(2 / math.pi) * np.exp(-2 * grid.x**2)
        assert np.max(np.abs(marginal - expected)) < 0.02 * expected.max()

    def test_matches_truncated_displaced_parity(self):
        # dual route: exact matrix elements vs the parity (-1)^n and the
        # displacement exp(alpha c^dag - alpha* c) built by matrix
        # exponential, where truncation is comfortable
        fock = 14
        rho = density(coherent_state(0.8, fock))
        pts = [(0.0, 0.0), (0.5, -0.3), (1.0, 0.7)]
        c = annihilation(fock)
        pi_op = np.diag((-1.0 + 0j) ** np.arange(fock))
        for x, p in pts:
            alpha = x + 1j * p
            d = expm(alpha * c.conj().T - np.conj(alpha) * c)
            w_expm = (2 / math.pi) * np.trace(rho @ d @ pi_op @ d.conj().T).real
            grid = obs.wigner(rho, x_min=x, x_max=x, points=1, p_min=p, p_max=p)
            assert grid.w[0, 0] == pytest.approx(w_expm, abs=1e-8)


class TestLoglogSlope:
    def _series(self, exponent, n=8, scale=1.0):
        """Boundary times and a power-law sigma_H over them."""
        times = np.arange(1, n + 1) * 25.8125 * scale
        return times, (times / times[0]) ** exponent * 0.3

    def test_exact_power_law(self):
        slope, err = obs.loglog_slope(*self._series(0.96), 7)
        assert slope == pytest.approx(0.96, abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-6)

    def test_classical_reference(self):
        slope, _ = obs.loglog_slope(*self._series(0.5), 7)
        assert slope == pytest.approx(0.5, abs=1e-12)

    def test_time_unit_invariance(self):
        s1, e1 = obs.loglog_slope(*self._series(0.96, scale=1.0), 7)
        s2, e2 = obs.loglog_slope(*self._series(0.96, scale=1e-3), 7)
        assert s1 == pytest.approx(s2, abs=1e-12)
        assert e1 == pytest.approx(e2, abs=1e-6)

    def test_rejects_nonpositive_sigma(self):
        times = np.arange(1.0, 5.0)
        with pytest.raises(FitDomainError):
            obs.loglog_slope(times, np.array([0.5, 0.0, 0.7, 0.9]), 4)

    def test_rejects_short_series(self):
        with pytest.raises(FitDomainError):
            obs.loglog_slope(*self._series(1.0, n=3), 7)

    def test_rejects_single_point(self):
        with pytest.raises(FitDomainError):
            obs.loglog_slope(*self._series(1.0), 1)


def _wigner_loop_oracle(
    rho_m, x_min=-4.5, x_max=4.5, points=101, p_min=None, p_max=None
):
    """The per-snapshot evaluation: displacement elements recomputed on the
    grid, then summed over m >= n in a Python double loop."""
    fock = rho_m.shape[0]
    p_min = x_min if p_min is None else p_min
    p_max = x_max if p_max is None else p_max
    X, P = np.meshgrid(
        np.linspace(x_min, x_max, points),
        np.linspace(p_min, p_max, points),
        indexing="ij",
    )
    beta = -2.0 * (X + 1j * P)
    x = np.abs(beta) ** 2
    env = np.exp(-0.5 * x)
    D = np.zeros((fock, fock) + beta.shape, dtype=complex)
    for k in range(fock):
        lag_prev, lag = np.zeros_like(x), np.ones_like(x)
        for n in range(fock - k):
            if n > 0:
                lag, lag_prev = (
                    ((2 * n - 1 + k - x) * lag - (n - 1 + k) * lag_prev) / n,
                    lag,
                )
            pref = np.sqrt(np.prod(1.0 / np.arange(n + 1, n + k + 1)) if k > 0 else 1.0)
            D[n + k, n] = pref * beta**k * env * lag
    signs = (-1.0) ** np.arange(fock)
    w = np.zeros_like(X)
    for n in range(fock):
        w += (rho_m[n, n].real * signs[n]) * D[n, n].real
        for m in range(n + 1, fock):
            w += 2.0 * (rho_m[n, m] * signs[m] * D[m, n]).real
    return w * (2.0 / np.pi)


def _random_density(fock, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(fock, fock)) + 1j * rng.normal(size=(fock, fock))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


class TestWignerTable:
    """The blockwise displacement elements against the double-loop oracle."""

    @pytest.mark.parametrize("fock", [6, 17])
    @pytest.mark.parametrize(
        "grid",
        [{}, {"p_min": -2.0, "p_max": 3.5}, {"x_min": -1.0, "x_max": 2.0, "points": 7}],
    )
    def test_matches_loop_oracle(self, fock, grid):
        rho = _random_density(fock, seed=fock)
        got = obs.wigner(rho, **grid)
        npt.assert_allclose(got.w, _wigner_loop_oracle(rho, **grid), rtol=0, atol=1e-14)

    def test_coherent_state_matches_loop_oracle(self):
        rho = density(coherent_state(2.0 - 1.0j, 17))
        npt.assert_allclose(
            obs.wigner(rho).w, _wigner_loop_oracle(rho), rtol=0, atol=1e-14
        )

    @settings(max_examples=25, deadline=None)
    @given(fock=st.integers(2, 17), seed=st.integers(0, 2**32 - 1))
    def test_random_states_match_loop_oracle(self, fock, seed):
        rho = _random_density(fock, seed)
        grid = {"x_min": -3.0, "x_max": 2.5, "points": 15, "p_min": -1.5, "p_max": 4.0}
        npt.assert_allclose(
            obs.wigner(rho, **grid).w,
            _wigner_loop_oracle(rho, **grid),
            rtol=0,
            atol=1e-14,
        )

    @pytest.mark.parametrize(
        "grid", [{}, {"x_min": -3.0, "x_max": 2.5, "points": 15, "p_min": -1.5}]
    )
    def test_stack_is_the_per_state_calls(self, grid):
        # every prefix of a stack of states, each contracted with the same
        # element blocks, against one call per state bit for bit, and the
        # whole stack against the loop oracle
        states = np.stack([_random_density(17, seed) for seed in range(8)])
        lone = [obs.wigner(rho, **grid).w for rho in states]
        for k in range(1, len(states) + 1):
            got = obs.wigner(states[:k], **grid).w
            assert got.shape == (k,) + lone[0].shape
            for i, w in enumerate(got):
                assert np.array_equal(w, lone[i]), (k, i)
        for rho, w in zip(states, got):
            npt.assert_allclose(w, _wigner_loop_oracle(rho, **grid), rtol=0, atol=1e-14)

    def test_stack_peak_memory(self):
        # 8 snapshots at cutoff 17 on the default 101 x 101 grid: one block
        # of at most 17 x 10201 elements (2.8 MB, real and imaginary parts)
        # and the 8 grids (0.65 MB) are alive, not a table of all 153
        # elements (25 MB); the bound is fixed before any run
        states = np.stack([_random_density(17, seed) for seed in range(8)])
        tracemalloc.start()
        try:
            obs.wigner(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6


# step-boundary times (ns) and sigma_H of the first 7 steps of
# `run --preset base`, the points of its fit.json
BASE_TIMES = np.array([25.8125, 51.625, 77.4375, 103.25, 129.0625, 154.875, 180.6875])
BASE_SIGMA_H = np.array([
    0.42479516996046945, 0.85901219652682703, 1.0695842961383284,
    1.3395679038670176, 2.0277261193700977, 2.3507055699275958,
    3.6049810536400826,
])


@pytest.fixture(scope="module")
def cli_scipy_modules(fresh_python):
    """The scipy modules in ``sys.modules`` of a fresh interpreter after
    ``import magnonwalk.cli``."""
    code = (
        "import sys, magnonwalk.cli; "
        "print('\\n'.join(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = fresh_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestOls:
    """``_ols`` against ``scipy.stats.linregress``, which the package no
    longer imports."""

    def test_matches_linregress_on_base_fit(self):
        x, y = np.log(BASE_TIMES), np.log(BASE_SIGMA_H)
        ref = linregress(x, y)
        assert obs._ols(x, y) == (ref.slope, ref.stderr)
        assert obs.loglog_slope(BASE_TIMES, BASE_SIGMA_H, 7) == (ref.slope, ref.stderr)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [2, 3, 8, 50])
    def test_matches_linregress_on_random_data(self, seed, n):
        rng = np.random.default_rng(seed)
        x = np.sort(rng.uniform(-3, 3, n))
        y = rng.normal(0.7 * x, 0.3)
        ref = linregress(x, y)
        assert obs._ols(x, y) == (ref.slope, ref.stderr)

    def test_identical_x_rejected(self):
        with pytest.raises(ValueError):
            obs._ols(np.ones(4), np.arange(4.0))

    @pytest.mark.parametrize(
        "module",
        ["scipy.stats", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg"],
    )
    def test_import_leaves_scipy_module_out(self, cli_scipy_modules, module):
        # the runtime imports no scipy module; the tests use it as an oracle
        assert [m for m in cli_scipy_modules
                if m == module or m.startswith(module + ".")] == []
