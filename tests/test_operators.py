"""The qubit and boson operators that ``model`` builds the walk from."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from magnonwalk.errors import DimensionError
from magnonwalk.model import (
    LOWER,
    RAISE,
    SIGMA_X,
    SIGMA_Z,
    annihilation,
    coherent_state,
)


class TestAnnihilation:
    def test_dim3_matrix_elements(self):
        c = annihilation(3)
        expected = np.array(
            [[0, 1, 0], [0, 0, math.sqrt(2)], [0, 0, 0]], dtype=complex
        )
        npt.assert_allclose(c, expected)

    def test_vacuum_annihilated(self):
        c = annihilation(5)
        npt.assert_array_equal(c @ np.eye(5)[0], np.zeros(5))

    def test_ladder_element(self):
        c = annihilation(4)
        assert c[2, 3] == pytest.approx(math.sqrt(3))

    def test_rejects_small_dim(self):
        with pytest.raises(DimensionError):
            annihilation(1)

    @pytest.mark.parametrize("dim", [2, 5, 17])
    def test_commutator_breaks_only_at_top(self, dim):
        c = annihilation(dim)
        comm = c @ c.conj().T - c.conj().T @ c
        expected = np.eye(dim, dtype=complex)
        expected[-1, -1] = -(dim - 1)
        npt.assert_allclose(comm, expected, atol=1e-14)


class TestQubitOperators:
    def test_sigma_z_eigenbasis(self):
        e = np.array([1, 0], dtype=complex)
        g = np.array([0, 1], dtype=complex)
        npt.assert_allclose(SIGMA_Z @ e, e)
        npt.assert_allclose(SIGMA_Z @ g, -g)

    def test_pauli_algebra(self):
        sigma_y = np.array([[0, -1j], [1j, 0]])
        npt.assert_allclose(SIGMA_X @ sigma_y - sigma_y @ SIGMA_X, 2j * SIGMA_Z)

    def test_unit_ladder(self):
        npt.assert_allclose(RAISE, [[0, 1], [0, 0]])
        npt.assert_allclose(LOWER, RAISE.conj().T)

    def test_constants_are_read_only(self):
        for op in (SIGMA_X, SIGMA_Z, RAISE, LOWER):
            with pytest.raises(ValueError):
                op[0, 0] = 1.0


def poisson_weights(mean: float, n_max: int) -> list[float]:
    """Independent oracle: term-by-term Poisson probabilities."""
    out = []
    for n in range(n_max + 1):
        out.append(math.exp(-mean) * mean**n / math.factorial(n))
    return out


class TestCoherentState:
    def test_vacuum_limit(self):
        npt.assert_allclose(coherent_state(0.0, 5), np.eye(5)[0])

    def test_truncated_poisson_mass(self):
        # Captured probability before renormalization, against the direct
        # Poisson summation oracle.
        weights = poisson_weights(9.0, 16)
        captured = sum(weights)
        assert round(captured, 4) == 0.9889
        state = coherent_state(3.0, 17)
        # reconstruct the un-normalized mass from the amplitude ratios
        raw = np.exp(-9.0) * np.cumprod(np.r_[1.0, 9.0 / np.arange(1, 17)])
        npt.assert_allclose(np.abs(state) ** 2, raw / captured, rtol=1e-12)

    def test_truncated_mean_below_poisson_mean(self):
        weights = poisson_weights(9.0, 16)
        oracle_mean = sum(n * w for n, w in enumerate(weights)) / sum(weights)
        assert oracle_mean < 9.0
        state = coherent_state(3.0, 17)
        mean = float(np.sum(np.arange(17) * np.abs(state) ** 2))
        assert mean == pytest.approx(oracle_mean, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.3, 1.5 + 0.5j, 3.0, -2.0j])
    def test_unit_norm(self, alpha):
        assert np.linalg.norm(coherent_state(alpha, 17)) == pytest.approx(1.0)
