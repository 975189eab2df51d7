import itertools
import json
import math
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from magnonwalk import algebra, model
from magnonwalk.errors import DimensionError, InvalidParameterError


def kronecker_ensemble(n_sites):
    """X^{mn} as the sum over sites of |m><n| embedded by Kronecker
    products of float64 arrays, the direct construction that
    hubbard_ensemble must equal."""
    labels = algebra.SPIN_LABELS
    x = {}
    for m in labels:
        for n in labels:
            unit = np.zeros((3, 3))
            unit[labels.index(m), labels.index(n)] = 1.0
            terms = []
            for site in range(n_sites):
                out = np.array([[1.0]])
                for j in range(n_sites):
                    out = np.kron(out, unit if j == site else np.eye(3))
                terms.append(out)
            x[(m, n)] = sum(terms)
    return x


class TestHubbardEnsemble:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_kronecker_sum(self, n):
        ens = algebra.hubbard_ensemble(n)
        oracle = kronecker_ensemble(n)
        assert ens.dim == 3**n
        assert sorted(ens.x) == sorted(oracle)
        for key, op in oracle.items():
            assert ens.x[key].tobytes() == op.tobytes(), key

    def test_single_site_matrix_units(self):
        ens = algebra.hubbard_ensemble(1)
        assert ens.dim == 3
        total = np.zeros((3, 3), dtype=complex)
        for m in algebra.SPIN_LABELS:
            for n in algebra.SPIN_LABELS:
                x = ens.x[(m, n)]
                assert np.count_nonzero(x) == 1
                total += x @ x.conj().T
        npt.assert_allclose(total, 3 * np.eye(3), atol=1e-14)

    def test_completeness(self):
        ens = algebra.hubbard_ensemble(2)
        ident = sum(ens.x[(m, m)] for m in algebra.SPIN_LABELS)
        npt.assert_allclose(ident, 2 * np.eye(9), atol=1e-14)

    def test_adjoint_pairs(self):
        ens = algebra.hubbard_ensemble(3)
        npt.assert_allclose(ens.x[("+", "-")], ens.x[("-", "+")].conj().T)

    @pytest.mark.parametrize("n", [0, 5])
    def test_size_guard(self, n):
        with pytest.raises(DimensionError):
            algebra.hubbard_ensemble(n)


class TestHubbardAlgebra:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_spin_ensemble(self, n):
        rep = algebra.check_hubbard_algebra(algebra.hubbard_ensemble(n))
        assert rep.passed
        assert rep.value < 1e-12

    def test_schwinger_sector(self):
        ens = algebra.schwinger_ensemble(2, trunc=3)
        assert ens.dim == 6  # occupations of 2 quanta over 3 modes
        ident = sum(ens.x[(m, m)] for m in algebra.SPIN_LABELS)
        npt.assert_allclose(ident, 2 * np.eye(6), atol=1e-14)
        rep = algebra.check_hubbard_algebra(ens)
        assert rep.passed

    @pytest.mark.parametrize(
        "make",
        [
            lambda: algebra.hubbard_ensemble(1),
            lambda: algebra.hubbard_ensemble(2),
            lambda: algebra.hubbard_ensemble(3),
            lambda: algebra.schwinger_ensemble(2, trunc=3),
        ],
        ids=["N=1", "N=2", "N=3", "schwinger"],
    )
    def test_value_is_largest_pair_residual(self, make):
        # the batched norms give exactly the largest of the 81 per-pair
        # spectral norms taken one at a time
        ens = make()
        x = ens.x
        worst = 0.0
        for m, n, mp, np_ in itertools.product(algebra.SPIN_LABELS, repeat=4):
            lhs = x[(m, n)] @ x[(mp, np_)] - x[(mp, np_)] @ x[(m, n)]
            rhs = (mp == n) * x[(m, np_)] - (m == np_) * x[(mp, n)]
            worst = max(worst, algebra._opnorm(lhs - rhs))
        assert algebra.check_hubbard_algebra(ens).value == worst

    @pytest.mark.parametrize("key", [("+", "-"), ("0", "0"), ("-", "0")])
    def test_broken_ensemble_fails_with_oracle_value(self, key):
        # one X^{mn} off by 1e-6 in one entry breaks the algebra; the batched
        # check reports exactly the per-pair oracle's nonzero residual
        ens = algebra.hubbard_ensemble(2)
        x = dict(ens.x)
        x[key] = x[key].copy()
        x[key][1, 4] += 1e-6
        broken = algebra.EnsembleOperators(ens.n_sites, ens.dim, x)
        rep = algebra.check_hubbard_algebra(broken)
        assert not rep.passed
        assert rep.value > 1e-7
        assert rep.value == _largest_pair_residual(broken)

    def test_schwinger_needs_headroom(self):
        with pytest.raises(DimensionError):
            algebra.schwinger_ensemble(3, trunc=3)


def _largest_pair_residual(ens):
    """The largest of the 81 commutator residuals, one pair at a time, as
    test_value_is_largest_pair_residual takes them."""
    x = ens.x
    worst = 0.0
    for m, n, mp, np_ in itertools.product(algebra.SPIN_LABELS, repeat=4):
        lhs = x[(m, n)] @ x[(mp, np_)] - x[(mp, np_)] @ x[(m, n)]
        rhs = (mp == n) * x[(m, np_)] - (m == np_) * x[(mp, n)]
        worst = max(worst, algebra._opnorm(lhs - rhs))
    return worst


def _deviation(n_sites, k):
    return algebra.contraction_deviation(algebra.hubbard_ensemble(n_sites), k)


def _operator_deviation(ens, k):
    """||([V_-, V_+] - 1) psi|| with the commutator formed as an operator
    and then applied to psi, the form contraction_deviation must equal."""
    v_minus = ens.x[("0", "-")] / math.sqrt(ens.n_sites)
    v_plus = v_minus.conj().T
    weyl = v_minus @ v_plus - v_plus @ v_minus - np.eye(ens.dim)
    psi = algebra._symmetric_excited_state(ens.n_sites, k)
    return float(np.linalg.norm(weyl @ psi))


class TestContraction:
    @pytest.mark.parametrize(
        "n, k", [(n, k) for n in (1, 2, 3, 4) for k in range(min(2, n) + 1)]
    )
    def test_vector_form_matches_operator_form(self, n, k):
        ens = algebra.hubbard_ensemble(n)
        got = algebra.contraction_deviation(ens, k)
        assert abs(got - _operator_deviation(ens, k)) <= 1e-14


    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_reports_pass(self, n):
        for rep in algebra.check_contraction(algebra.hubbard_ensemble(n)):
            assert rep.passed, rep

    def test_deviation_values_exact(self):
        # symmetric k-quanta states give deviation 2k/N exactly
        assert _deviation(2, 1) == pytest.approx(1.0, abs=1e-12)
        assert _deviation(4, 1) == pytest.approx(0.5, abs=1e-12)
        assert _deviation(4, 2) == pytest.approx(1.0, abs=1e-12)
        assert _deviation(3, 0) == pytest.approx(0.0, abs=1e-12)

    def test_halving_with_doubled_ensemble(self):
        ratio = _deviation(2, 1) / _deviation(4, 1)
        assert abs(ratio - 2.0) <= 0.1 * 2.0

    def test_schwinger_variant(self):
        reports = algebra.check_contraction(algebra.hubbard_ensemble(2), trunc=4)
        names = [r.name for r in reports]
        assert any("schwinger" in n for n in names)
        assert all(r.passed for r in reports)


class TestModeDecoupling:
    def test_uniform_populations(self):
        reports = algebra.check_mode_decoupling((1.0, 1.0, 1.0, 1.0))
        assert len(reports) == 3
        for rep in reports:
            assert rep.passed, rep
            assert rep.value < 1e-12

    def test_unequal_populations(self):
        for rep in algebra.check_mode_decoupling((4.0, 1.0, 1.0, 1.0)):
            assert rep.passed, rep

    def test_single_class_degenerate(self):
        for rep in algebra.check_mode_decoupling((1.0, 0.0, 0.0, 0.0)):
            assert rep.passed, rep

    def test_collective_strength_scaling(self):
        # eta = sqrt(2N) g enters the identity; a wrong strength must fail
        reports = algebra.check_mode_decoupling((1.0, 1.0, 1.0, 1.0))
        assert reports[0].name.startswith("decoupling.interaction_identity")
        # rebuild manually with a broken coefficient to confirm sensitivity
        import magnonwalk.algebra as alg

        modes = alg._multimode(8)
        a, b = modes[0::2], modes[1::2]
        raise_q, lower_q = model.RAISE, model.LOWER

        def coupling(m):
            return np.kron(raise_q, m) + np.kron(lower_q, m.conj().T)

        h_int = sum(coupling(a[f] + b[f]) for f in range(4))
        c_wrong = sum(a[f] + b[f] for f in range(4)) / math.sqrt(2 * 4.0)
        eta_wrong = 2.0  # should be sqrt(8)
        assert np.linalg.norm(h_int - eta_wrong * coupling(c_wrong), 2) > 0.1

    def test_dark_mode_check_fails_for_bright_modes(self):
        # the one-sided ||[H, u^dag u] V|| is G <u|c> ||u||: 0 for a dark
        # mode, nonzero for any mode with a bright component
        reports = algebra.check_mode_decoupling((4.0, 1.0, 1.0, 1.0))
        assert reports[1].name.startswith("decoupling.dark_mode_commutators")
        assert reports[1].passed and reports[1].value < 1e-12
        modes, h_int, c, big_g = algebra._collective_mode([2.0, 1.0, 1.0, 1.0])
        a_1, b_1 = modes[0], modes[1]
        assert h_int.shape == (18, 18)
        assert big_g == pytest.approx(math.sqrt(14.0), rel=1e-15)
        residual = algebra._dark_mode_residual
        assert residual(h_int, [c]) == pytest.approx(big_g, rel=1e-14)
        assert residual(h_int, [a_1]) == pytest.approx(2.0, rel=1e-14)
        assert residual(h_int, [(a_1 - b_1) / math.sqrt(2.0)]) < 1e-12
        # read two-sided on the vacuum, the commutator is 0 for every mode
        occ = np.kron(np.eye(2), c.conj().T @ c)
        vac = np.eye(18)[:, ::9]
        assert np.linalg.norm(vac.T @ (h_int @ occ - occ @ h_int) @ vac) == 0.0

    def test_zero_total_rejected(self):
        with pytest.raises(InvalidParameterError):
            algebra.check_mode_decoupling((0.0, 0.0, 0.0, 0.0))


class TestInhomogeneousMode:
    def test_two_center_class(self):
        reports = algebra.check_inhomogeneous_mode([1.0, 2.0])
        assert "G=3.162" in reports[0].name
        for rep in reports:
            assert rep.passed, rep

    def test_uniform_reduces_to_homogeneous(self):
        for rep in algebra.check_inhomogeneous_mode([1.0, 1.0]):
            assert rep.passed, rep

    def test_single_center(self):
        for rep in algebra.check_inhomogeneous_mode([1.0]):
            assert rep.passed, rep

    def test_three_centers(self):
        reports = algebra.check_inhomogeneous_mode([1.0, 0.5, 2.0])
        assert reports[0].name == "inhomogeneous.interaction_identity[3,G=3.24]"
        for rep in reports:
            assert rep.passed, rep

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            algebra.check_inhomogeneous_mode([0.0, 0.0])


@pytest.fixture(scope="module")
def p_small():
    return model.preset("base", fock_dim=6, alpha=1.0 + 0.0j)


class TestFrohlichResidual:
    def test_slope_and_coin_coefficient(self, p_small):
        reports = algebra.frohlich_residual(p_small)
        by_name = {r.name: r for r in reports}
        slope = by_name["frohlich.residual_slope"]
        assert slope.passed and slope.value >= 1.9
        coin = by_name["frohlich.sigma_x_coefficient"]
        assert coin.passed and coin.value <= 0.05

    def test_zero_coupling_zero_residual(self, p_small):
        # with eta and eps scaled to zero the transformation is the identity
        from dataclasses import replace

        d = model.derive(p_small)
        p0 = replace(p_small, nu_eta=0.0, nu_eps0=0.0)
        d0 = replace(d, chi=0.0, Omega_R=0.0)
        h = model.hamiltonian_rotframe(p0, d0, drive_on=True)
        h_eff = model.hamiltonian_effective(p0, d0, drive_on=True)
        assert np.linalg.norm(h - h_eff, 2) < 1e-12

    @pytest.mark.parametrize("fock_dim", [3, 6, 8])
    def test_ladder_matches_direct_exponentials(self, entries, fock_dim):
        # the squared exponentials equal a direct exponential at every
        # scale, within 1e-14 in the largest absolute entry; a scale that
        # is not twice the one before fails this
        p = model.preset("base", fock_dim=fock_dim, alpha=1.0 + 0.0j)
        d = model.derive(p)
        c = model.annihilation(fock_dim)
        g1 = (2.0 * math.pi * p.nu_eta / (d.delta_c - d.delta_d)) * (
            np.kron(model.LOWER, c.conj().T) - np.kron(model.RAISE, c)
        )
        ladder = algebra._exp_ladder(g1.real)
        assert len(ladder) == len(algebra.FROHLICH_SCALES)
        for s, u in zip(algebra.FROHLICH_SCALES, ladder):
            direct = algebra._expm_taylor21(entries(s * g1.real))
            assert np.abs(u - direct).max() <= 1e-14, s
            # exp of a real antisymmetric generator is orthogonal
            assert np.abs(u.T @ u - np.eye(2 * fock_dim)).max() <= 1e-14, s

    def test_large_fock_rejected(self):
        with pytest.raises(DimensionError):
            algebra.frohlich_residual(model.preset("base", fock_dim=17, alpha=1.0))


class TestRunAllChecks:
    def test_everything_passes(self):
        reports = algebra.run_all_checks()
        assert len(reports) > 25
        failed = [r for r in reports if not r.passed]
        assert failed == []

    def test_matches_benchmark_reference(self):
        # perfbench/reference/verify.json holds the verify report the
        # benchmark gates on: names, comparisons, thresholds (3 digits, as
        # printed) and statuses, in order, and each value (4 digits, as
        # printed) within the benchmark's 1e-10 * max(1, |ref|)
        path = Path(__file__).parents[1] / "perfbench" / "reference" / "verify.json"
        reference = json.loads(path.read_text())["outputs"]["checks"]
        got = algebra.run_all_checks()
        reports = [
            [r.name, r.comparison, float(f"{r.threshold:.3g}"), r.passed] for r in got
        ]
        assert reports == [
            [name, comparison, threshold, status == "PASS"]
            for name, _, comparison, threshold, status in reference
        ]
        for r, (name, ref, *_) in zip(got, reference):
            value = float(f"{r.value:.4e}")
            assert abs(value - ref) <= 1e-10 * max(1.0, abs(ref)), (name, value, ref)
