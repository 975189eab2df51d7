import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import expm

from magnonwalk import model
from magnonwalk.errors import (
    DispersiveRegimeWarning,
    InvalidParameterError,
    ScheduleInfeasibleError,
)

TWO_PI = 2 * math.pi


def _mode_number(fock_dim):
    """c^dag c on the qubit (x) boson space."""
    return np.kron(np.eye(2), np.diag(np.arange(fock_dim)))


def _assert_hermitian(h, tol=1e-12):
    assert np.linalg.norm(h - h.conj().T) <= tol * max(np.linalg.norm(h), 1.0)


@pytest.fixture(scope="module")
def base():
    p = model.preset("base")
    return p, model.derive(p)


class TestDerive:
    def test_detuning_magnitude(self, base):
        _, d = base
        assert abs(d.Delta) / TWO_PI == pytest.approx(4.13, abs=1e-12)
        assert d.Delta < 0

    def test_dispersive_parameters(self, base):
        # hand-recomputed: chi = eta^2/(omega_q - omega_D), t_p = 1/(d |nu_chi|),
        # t_H = 1/(2 sqrt(2) nu_OmegaR)
        _, d = base
        assert d.chi / TWO_PI * 1e3 == pytest.approx(2.4213, abs=5e-4)
        assert d.t_p == pytest.approx(25.8125, abs=5e-3)
        assert d.t_H == pytest.approx(7.30, abs=5e-3)

    def test_drive_frequency_condition(self, base):
        # nu_d = (2*9+1)*nu_chi + nu_q - nu_OmegaR with positive chi, Omega_R
        _, d = base
        assert d.nu_d == pytest.approx(6.9976, abs=5e-5)
        assert d.n_bar == pytest.approx(9.0)

    def test_scale_consistency(self):
        p = model.preset("base")
        d1 = model.derive(p)
        d2 = model.derive(model.preset("base", nu_eps0=2 * p.nu_eps0))
        assert d2.Omega_R == pytest.approx(2 * d1.Omega_R)
        assert d2.t_H == pytest.approx(d1.t_H / 2)
        assert d2.t_p == d1.t_p

    def test_dispersive_warning(self):
        # eta large enough to break |Delta| >= 10 eta, drive raised to keep
        # the pulse inside the shrunken step period
        p = model.preset("base", nu_eta=0.5, nu_eps0=2.0)
        with pytest.warns(DispersiveRegimeWarning):
            model.derive(p)

    def test_infeasible_schedule(self):
        with pytest.raises(ScheduleInfeasibleError):
            model.derive(model.preset("base", nu_eps0=1e-4))

    def test_zero_coupling_is_infeasible(self):
        # chi = 0: no dispersive shift, so the step period 2pi/(|chi| d)
        # is infinite
        with pytest.raises(ScheduleInfeasibleError, match="zero coupling"):
            model.derive(model.preset("base", nu_eta=0.0))

    @pytest.mark.parametrize("field", ["nu_eta", "nu_eps0", "nu_q"])
    def test_overflowing_parameter_rejected(self, field):
        # finite inputs whose derived frequencies leave the float range:
        # eta**2 raises OverflowError, 2 pi nu_eps0 and 2 pi nu_q are inf
        value = 1e200 if field == "nu_eta" else 1e308
        with pytest.raises(InvalidParameterError, match="overflows the float range"):
            model.derive(model.preset("base", **{field: value}))


class TestPhysicalParams:
    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidParameterError):
            model.preset("base", Gamma=-1e-4)

    def test_m_phase_below_fock_dim_rejected(self):
        # only a grid of more points than Fock levels has the sharpness as
        # its first moment (see observables.phase_distribution), so
        # fock_dim itself is too few
        for m_phase in (8, 17):
            with pytest.raises(InvalidParameterError):
                model.preset("base", m_phase=m_phase)
        assert model.preset("base", m_phase=18).m_phase == 18

    def test_m_phase_ceiling(self):
        assert model.preset("base", m_phase=65536).m_phase == 65536
        with pytest.raises(InvalidParameterError, match="exceeds 65536"):
            model.preset("base", m_phase=65537)

    def test_truncation_budget_rejected(self):
        with pytest.raises(InvalidParameterError):
            model.preset("base", alpha=4.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("Gamma", math.nan),
            ("gamma1", math.inf),
            ("nu_q", math.nan),
            ("nu_eps0", -math.inf),
            ("alpha", complex(math.nan, 0.0)),
            ("alpha", complex(1.0, math.inf)),
        ],
    )
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(InvalidParameterError, match=f"{field} must be finite"):
            model.preset("base", **{field: value})

    def test_stock_truncation_budget_is_silent(self):
        # the budget is a hard limit, not a warning: a parameter set
        # equal to a preset builds silently however it is spelt
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in model.PRESET_NAMES:
                model.preset(name)
                model.preset(name, n_steps=32, Gamma=1e-3)
                model.preset(name, alpha=3.0, fock_dim=17)

    def test_import_is_silent(self, fresh_python):
        # -W error turns any warning raised on import into an error
        proc = fresh_python("-W", "error", "-c", "import magnonwalk.cli")
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""

    def test_unknown_preset(self):
        with pytest.raises(InvalidParameterError):
            model.preset("nonsense")

    def test_realistic_preset_values(self):
        p = model.preset("realistic")
        assert p.Gamma == pytest.approx(2.78e-3)
        assert p.nu_eps0 == pytest.approx(10.0)
        assert p.gamma1 == pytest.approx(0.02e-3)
        alt = model.preset("realistic_gamma1")
        assert alt.gamma1 == pytest.approx(0.31e-3)


class TestRotatingFrameHamiltonian:
    def test_decoupled_limit_is_diagonal(self, base):
        p, d = base
        p0 = model.preset("base", nu_eta=1e-9)  # eta ~ 0 keeps derive finite
        h = model.hamiltonian_rotframe(p0, d, drive_on=False)
        off_diag = h - np.diag(np.diag(h))
        assert np.linalg.norm(off_diag) < 1e-6
        # eigenvalues -delta_c n -+ delta_d / 2
        n = np.arange(p.fock_dim)
        expected = np.concatenate(
            [-d.delta_c * n - d.delta_d / 2, -d.delta_c * n + d.delta_d / 2]
        )
        npt.assert_allclose(np.sort(np.diag(h).real), np.sort(expected), atol=1e-6)

    def test_excitation_conservation_drive_off(self, base):
        p, d = base
        h = model.hamiltonian_rotframe(p, d, drive_on=False)
        n_tot = _mode_number(p.fock_dim) + 0.5 * np.kron(
            model.SIGMA_Z, np.eye(p.fock_dim)
        )
        npt.assert_allclose(h @ n_tot - n_tot @ h, 0, atol=1e-10)

    def test_hermitian(self, base):
        p, d = base
        for flag in (True, False):
            h = model.hamiltonian_rotframe(p, d, flag)
            _assert_hermitian(h, tol=1e-12)
            assert np.isfinite(np.linalg.norm(h))

    def test_drive_gating(self, base):
        p, d = base
        diff = model.hamiltonian_rotframe(p, d, True) - model.hamiltonian_rotframe(
            p, d, False
        )
        c = model.annihilation(p.fock_dim)
        expected = TWO_PI * p.nu_eps0 * np.kron(np.eye(2), c + c.conj().T)
        npt.assert_allclose(diff, expected, atol=1e-12)


class TestEffectiveHamiltonian:
    def test_number_conservation_without_drive_and_detunings(self, base):
        p, d = base
        d0 = model.DerivedParams(
            Delta=d.Delta, chi=d.chi, Omega_R=0.0, nu_d=0.0, omega_d=0.0,
            delta_c=0.0, delta_d=0.0, t_H=d.t_H, t_p=d.t_p, n_bar=d.n_bar,
        )
        h = model.hamiltonian_effective(p, d0, drive_on=False)
        n_b = _mode_number(p.fock_dim)
        npt.assert_allclose(h @ n_b - n_b @ h, 0, atol=1e-12)

    def test_coin_block_gap(self, base):
        # at Omega_R = 0 the qubit splitting at Fock level n is
        # 2|chi n + chi/2 - delta_d/2|
        p, d = base
        d0 = model.DerivedParams(
            Delta=d.Delta, chi=d.chi, Omega_R=0.0, nu_d=d.nu_d, omega_d=d.omega_d,
            delta_c=0.0, delta_d=d.delta_d, t_H=d.t_H, t_p=d.t_p, n_bar=d.n_bar,
        )
        h = model.hamiltonian_effective(p, d0, drive_on=False)
        for n in (0, 3, 9):
            gap = abs(h[n, n] - h[p.fock_dim + n, p.fock_dim + n]).real
            expected = 2 * abs(d.chi * n + d.chi / 2 - d.delta_d / 2)
            assert gap == pytest.approx(expected, rel=1e-10)

    def test_hermitian(self, base):
        p, d = base
        _assert_hermitian(model.hamiltonian_effective(p, d, True), 1e-12)


class TestCoinHamiltonian:
    def test_eigenvalues(self, base):
        _, d = base
        h_coin = 0.5 * d.Omega_R * (model.SIGMA_X + model.SIGMA_Z)
        evals = np.linalg.eigvalsh(h_coin)
        npt.assert_allclose(
            evals, [-d.Omega_R / math.sqrt(2), d.Omega_R / math.sqrt(2)], rtol=1e-12
        )

    def test_hadamard_gate_at_t_h(self, base):
        _, d = base
        h_coin = 0.5 * d.Omega_R * (model.SIGMA_X + model.SIGMA_Z)
        u = expm(-1j * h_coin * d.t_H)
        hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
        fidelity = abs(np.trace(u.conj().T @ hadamard)) / 2
        assert fidelity > 1 - 1e-6

    def test_zero_rabi_is_identity(self, base):
        _, d = base
        d0 = model.DerivedParams(
            Delta=d.Delta, chi=d.chi, Omega_R=0.0, nu_d=d.nu_d, omega_d=d.omega_d,
            delta_c=d.delta_c, delta_d=d.delta_d, t_H=d.t_H, t_p=d.t_p, n_bar=d.n_bar,
        )
        h_coin = 0.5 * d0.Omega_R * (model.SIGMA_X + model.SIGMA_Z)
        u = expm(-1j * h_coin * 12.3)
        npt.assert_allclose(u, np.eye(2), atol=1e-14)


class TestDissipators:
    def test_base_rates(self, base):
        p, _ = base
        channels = model.dissipators(p)
        rates = [r for r, _ in channels]
        assert rates[0] == pytest.approx(TWO_PI * 0.1e-3)   # mode decay
        assert rates[1] == pytest.approx(TWO_PI * 0.02e-3)  # qubit relaxation
        assert rates[2] == pytest.approx(TWO_PI * 0.31e-3 / 2)  # dephasing / 2

    def test_channels_annihilate_targets(self, base):
        p, _ = base
        channels = model.dissipators(p)
        vac = np.kron(np.eye(2)[1], np.eye(p.fock_dim)[0])  # |g> (x) |0>
        for _, x in channels[:2]:
            assert np.linalg.norm(x @ vac) < 1e-14

    def test_zero_rates_allowed(self):
        p = model.preset("base", gamma1=0.0, gamma_phi=0.0, Gamma=0.0)
        channels = model.dissipators(p)
        assert all(r == 0 for r, _ in channels)

    @pytest.mark.parametrize("name", ["Gamma", "gamma1", "gamma_phi"])
    def test_overflowing_rate_rejected(self, name):
        # a finite rate whose 2 pi rate is inf
        p = model.preset("base", **{name: 1e308})
        with pytest.raises(InvalidParameterError, match=f"2 pi {name} overflows"):
            model.dissipators(p)


class TestPulseSchedule:
    def test_eight_steps_contract(self, base):
        p, d = base
        sched = model.pulse_schedule(p, d)
        assert len(sched) == 16
        total = sum(s.duration for s in sched)
        assert total == pytest.approx(8 * d.t_p, rel=1e-12)
        assert round(total, 1) == 206.5
        # the coin toss opens every step, the shift closes it
        assert [s.drive_on for s in sched] == [True, False] * 8
        assert sched[0].t_start == 0.0

    def test_segments_tile_without_gaps(self, base):
        p, d = base
        sched = model.pulse_schedule(p, d)
        t = 0.0
        for seg in sched:
            assert seg.t_start == pytest.approx(t, rel=1e-12, abs=1e-12)
            t = seg.t_start + seg.duration
        assert t == pytest.approx(8 * d.t_p, rel=1e-12)

    def test_realistic_pulse_scales_inversely_with_drive(self):
        d = model.derive(model.preset("realistic"))
        assert d.t_H == pytest.approx(0.73, abs=5e-4)

    def test_zero_steps(self, base):
        p, d = base
        sched = model.pulse_schedule(model.preset("base", n_steps=0), d)
        assert sched == ()
        assert max((s.step for s in sched), default=0) == 0


class TestInitialState:
    def test_pure_unit_trace(self, base):
        p, _ = base
        rho = model.initial_state(p)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        assert np.trace(rho @ rho).real == pytest.approx(1.0, abs=1e-12)

    def test_equal_qubit_populations(self, base):
        p, _ = base
        rho = model.initial_state(p)
        f = p.fock_dim
        p_e = np.trace(rho[:f, :f]).real
        p_g = np.trace(rho[f:, f:]).real
        assert p_e == pytest.approx(0.5, abs=1e-12)
        assert p_g == pytest.approx(0.5, abs=1e-12)

    def test_vacuum_amplitude_gives_zero_occupation(self):
        p = model.preset("base", alpha=0.0)
        rho = model.initial_state(p)
        n_op = _mode_number(p.fock_dim)
        assert abs(np.trace(rho @ n_op)) < 1e-14


# Entries of the Kronecker operands: signed zeros, infinities and nan
# besides finite values, whose products must come out bit for bit.
_SPECIAL = st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan])
_REAL = _SPECIAL | st.floats(-1e3, 1e3)
_ENTRIES = {np.float64: _REAL, np.complex128: st.builds(complex, _REAL, _REAL)}
_LAYOUTS = {
    "C": lambda a: a,
    "transposed": lambda a: a.T,
    "Fortran": np.asfortranarray,
}


@st.composite
def _operand(draw):
    dtype = draw(st.sampled_from(list(_ENTRIES)))
    shape = draw(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6))
    a = draw(hnp.arrays(dtype, shape, elements=_ENTRIES[dtype]))
    return _LAYOUTS[draw(st.sampled_from(list(_LAYOUTS)))](a)


def _rotframe_oracle(p, d, drive_on):
    """hamiltonian_rotframe with every Kronecker product by np.kron."""
    c = model.annihilation(p.fock_dim)
    idq, idb = np.eye(2, dtype=complex), np.eye(p.fock_dim, dtype=complex)
    eta = TWO_PI * p.nu_eta
    eps = TWO_PI * p.nu_eps0 if drive_on else 0.0
    n_b = c.conj().T @ c
    return (
        -d.delta_c * np.kron(idq, n_b)
        - 0.5 * d.delta_d * np.kron(model.SIGMA_Z, idb)
        + eta * (np.kron(model.LOWER, c.conj().T) + np.kron(model.RAISE, c))
        + eps * np.kron(idq, c + c.conj().T)
    )


def _effective_oracle(p, d, drive_on):
    """hamiltonian_effective with every Kronecker product by np.kron."""
    c = model.annihilation(p.fock_dim)
    idq, idb = np.eye(2, dtype=complex), np.eye(p.fock_dim, dtype=complex)
    eps = TWO_PI * p.nu_eps0 if drive_on else 0.0
    omega_r = d.Omega_R if drive_on else 0.0
    n_b = c.conj().T @ c
    return (
        d.chi * np.kron(model.SIGMA_Z, n_b)
        + 0.5 * omega_r * np.kron(model.SIGMA_X, idb)
        + eps * np.kron(idq, c + c.conj().T)
        - d.delta_c * np.kron(idq, n_b)
        - 0.5 * d.delta_d * np.kron(model.SIGMA_Z, idb)
        + 0.5 * d.chi * (np.kron(idq, idb) + np.kron(model.SIGMA_Z, idb))
    )


def _dissipator_oracle(p):
    """The collapse operators of dissipators, built by np.kron."""
    idq, idb = np.eye(2, dtype=complex), np.eye(p.fock_dim, dtype=complex)
    return [
        np.kron(idq, model.annihilation(p.fock_dim)),
        np.kron(model.LOWER, idb),
        np.kron(model.SIGMA_Z, idb),
    ]


class TestDenseKron:
    @settings(deadline=None)
    @given(a=_operand(), b=_operand())
    def test_equals_numpy_kron(self, a, b):
        with np.errstate(all="ignore"):  # 0 * inf is nan, as in np.kron
            want = np.kron(a, b)
            got = model._dense_kron(a, b)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", ["base", "realistic"])
    @pytest.mark.parametrize("fock_dim", [2, 6, 17])
    def test_operators_equal_numpy_kron_oracles(self, name, fock_dim):
        p = model.preset(name, fock_dim=fock_dim, alpha=1.0)
        d = model.derive(p)
        for drive_on in (True, False):
            for build, oracle in (
                (model.hamiltonian_rotframe, _rotframe_oracle),
                (model.hamiltonian_effective, _effective_oracle),
            ):
                got, want = build(p, d, drive_on), oracle(p, d, drive_on)
                assert got.tobytes() == want.tobytes(), (build.__name__, drive_on)
        channels = model.dissipators(p)
        for (_, got), want in zip(channels, _dissipator_oracle(p), strict=True):
            assert got.tobytes() == want.tobytes()
