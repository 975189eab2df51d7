"""Reported quantities: mean mode occupation, qubit populations, reduced
mode state, phase distribution, sharpness and Holevo standard deviation,
Wigner function, and the spreading-exponent fit.

Composite states follow the package-wide qubit (x) boson ordering, so a
density matrix of dimension 2*F reduces to an F-dimensional mode state.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    FitDomainError,
    FlatDistributionError,
    NumericalFailureError,
)

__all__ = [
    "mean_number",
    "qubit_populations",
    "reduce_boson",
    "rotate_mode",
    "PhaseDistribution",
    "phase_distribution",
    "sharpness_holevo",
    "WignerGrid",
    "wigner",
    "SpreadSeries",
    "loglog_slope",
]


def _split_dims(rho: np.ndarray) -> int:
    dim = rho.shape[0]
    if rho.shape != (dim, dim) or dim % 2 != 0 or dim < 4:
        raise DimensionError(
            f"expected a qubit (x) boson density matrix, got shape {rho.shape}"
        )
    return dim // 2


def mean_number(rho: np.ndarray) -> float:
    """<c^dag c> on the composite state."""
    fock = _split_dims(rho)
    ns = np.arange(fock, dtype=float)
    # Tr(rho (1 kron n)) touches only the diagonal.
    diag = np.diag(rho).real
    return float(diag[:fock] @ ns + diag[fock:] @ ns)


def qubit_populations(rho: np.ndarray) -> tuple[float, float]:
    """(P_e, P_g) = ((1 +- <sigma_z>)/2)."""
    fock = _split_dims(rho)
    diag = np.diag(rho).real
    p_e = float(diag[:fock].sum())
    p_g = float(diag[fock:].sum())
    return p_e, p_g


def reduce_boson(rho: np.ndarray) -> np.ndarray:
    """Partial trace over the qubit factor."""
    fock = _split_dims(rho)
    r = rho.reshape(2, fock, 2, fock)
    return r[0, :, 0, :] + r[1, :, 1, :]


def rotate_mode(rho_m: np.ndarray, theta: float) -> np.ndarray:
    """Rotate the mode state in phase space: <c> -> exp(i theta) <c>.

    Used to report snapshots in the frame co-rotating with the mode, where
    the walk's center phase stays put instead of winding at the (large)
    drive-mode detuning.  Sharpness and the Holevo deviation are invariant
    under this map; the phase distribution shifts rigidly.
    """
    phases = np.exp(1j * theta * np.arange(rho_m.shape[0]))
    return (phases[:, None] * rho_m) * phases.conj()[None, :]


@dataclass(frozen=True)
class PhaseDistribution:
    """Probabilities on the uniform grid phi_k = -pi + 2 pi k / M.

    Grid weights sum to one; densities are p * M / (2 pi).
    """

    phi: np.ndarray
    p: np.ndarray


def phase_distribution(rho_m: np.ndarray, M: int) -> PhaseDistribution:
    """Phase-state expectation <phi|rho_m|phi> on an M-point grid.

    With |phi> = (1/sqrt(M)) sum_n exp(i n phi) |n> and M >= fock_dim the
    grid weights are exactly normalized (discrete orthogonality), and a
    coherent state peaks at the phase of its amplitude.
    """
    fock = rho_m.shape[0]
    if M < fock:
        raise DimensionError(
            f"phase grid M = {M} must be >= the Fock dimension {fock}"
        )
    phi = -np.pi + 2.0 * np.pi * np.arange(M) / M
    E = np.exp(1j * np.outer(phi, np.arange(fock)))  # E[k, n] = exp(i n phi_k)
    p = np.einsum("kn,nm,km->k", E.conj(), rho_m, E).real / M
    if p.min() < -1e-12:
        raise NumericalFailureError(
            f"phase distribution negative beyond tolerance: min = {p.min():.3e}"
        )
    return PhaseDistribution(phi=phi, p=np.clip(p, 0.0, None))


def sharpness_holevo(dist: PhaseDistribution) -> tuple[float, float]:
    """Sharpness |<exp(i phi)>| and the cyclic standard deviation
    sigma_H = sqrt(sharpness^-2 - 1); flat distributions have no finite
    sigma_H and raise."""
    mu1 = np.sum(dist.p * np.exp(1j * dist.phi))
    sharp = float(abs(mu1))
    if sharp < 1e-9:
        raise FlatDistributionError(
            "distribution is flat (sharpness < 1e-9); Holevo deviation diverges"
        )
    return sharp, float(np.sqrt(1.0 / sharp**2 - 1.0))


@dataclass(frozen=True)
class WignerGrid:
    """W values on a phase-space grid; x, p are the coherent-parameter
    quadratures (alpha = x + i p)."""

    x: np.ndarray
    p: np.ndarray
    w: np.ndarray  # shape (len(x), len(p))


@functools.lru_cache(maxsize=4)
def _displacement_table(
    fock: int, x_min: float, x_max: float, points: int, p_min: float, p_max: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """<m|D(beta)|n> for m >= n at beta = -2 (x + i p) over one grid.

    Closed form sqrt(n!/m!) beta^(m-n) exp(-|beta|^2/2) L_n^(m-n)(|beta|^2),
    evaluated with the associated-Laguerre three-term recurrence.  Using
    the exact (untruncated) matrix elements avoids the corner artifacts a
    truncated matrix exponential develops once |beta|^2 rivals the cutoff.

    Returns (m, n, re, im): the row and column of each of the
    fock (fock + 1) / 2 lower-triangle entries, and the real and imaginary
    parts of the elements, shape (entries, points**2) with the grid
    flattened x-major.  Every snapshot on the same grid shares one table,
    so the arrays are read-only.
    """
    xs = np.linspace(x_min, x_max, points)
    ps = np.linspace(p_min, p_max, points)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    beta = (-2.0 * (X + 1j * P)).ravel()
    x = np.abs(beta) ** 2
    env = np.exp(-0.5 * x)
    entries = fock * (fock + 1) // 2
    m_idx = np.empty(entries, dtype=np.intp)
    n_idx = np.empty(entries, dtype=np.intp)
    re = np.empty((entries, beta.size))
    im = np.empty((entries, beta.size))
    row = 0
    for k in range(fock):  # k = m - n
        # prefactor sqrt(n!/(n+k)!) * beta^k, built up with the recurrence
        lag_prev = np.zeros_like(x)  # L_{-1}
        lag = np.ones_like(x)        # L_0^{(k)}
        beta_k = beta**k
        for n in range(fock - k):
            m = n + k
            if n > 0:
                lag, lag_prev = (
                    ((2 * n - 1 + k - x) * lag - (n - 1 + k) * lag_prev) / n,
                    lag,
                )
            pref = np.sqrt(
                np.prod(1.0 / np.arange(n + 1, n + k + 1)) if k > 0 else 1.0
            )
            d = pref * beta_k * env * lag
            m_idx[row], n_idx[row] = m, n
            re[row], im[row] = d.real, d.imag
            row += 1
    for arr in (m_idx, n_idx, re, im):
        arr.flags.writeable = False
    return m_idx, n_idx, re, im


def wigner(
    rho_m: np.ndarray,
    x_min: float = -4.5,
    x_max: float = 4.5,
    points: int = 101,
    p_min: float | None = None,
    p_max: float | None = None,
) -> WignerGrid:
    """Displaced-parity Wigner function W(alpha) = (2/pi) Tr[rho D(alpha) Pi D(alpha)^dag].

    Evaluated through the identity D(alpha) Pi D(alpha)^dag = Pi D(-2 alpha)
    with exact displacement matrix elements, so |W| <= 2/pi holds on the
    whole grid and the vacuum gives (2/pi) exp(-2|alpha|^2) to machine
    precision.  Since rho and the parity are Hermitian,
    Tr[rho Pi D] = sum_n rho_nn (-1)^n D_nn + 2 Re sum_{m>n} rho_nm (-1)^m D_mn,
    two real matrix-vector products of the per-grid lower-triangle table
    with the weighted coefficients of rho.
    """
    fock = rho_m.shape[0]
    if p_min is None:
        p_min = x_min
    if p_max is None:
        p_max = x_max
    m, n, d_re, d_im = _displacement_table(fock, x_min, x_max, points, p_min, p_max)
    coef = np.where(m == n, 1.0, 2.0) * (-1.0) ** m * rho_m[n, m]
    w = (coef.real @ d_re - coef.imag @ d_im).reshape(points, points)
    return WignerGrid(
        x=np.linspace(x_min, x_max, points),
        p=np.linspace(p_min, p_max, points),
        w=w * (2.0 / np.pi),
    )


@dataclass(frozen=True)
class SpreadSeries:
    """Holevo deviation at walk-step boundaries."""

    steps: np.ndarray    # consecutive from 1
    times: np.ndarray    # boundary times, ns
    sigma_h: np.ndarray


def _ols(x, y) -> tuple[float, float]:
    """Least-squares slope of y on x and its standard error, by the
    formulas of ``scipy.stats.linregress`` (whose import would double the
    package's start-up time)."""
    n = len(x)
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=1).flat
    if ssxm == 0.0:
        raise ValueError("all x values are identical")
    slope = ssxym / ssxm
    if n == 2:
        return float(slope), 0.0
    r = np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0) if ssym > 0.0 else 0.0
    return float(slope), float(np.sqrt((1 - r**2) * ssym / ssxm / (n - 2)))


def loglog_slope(series: SpreadSeries, first_k: int) -> tuple[float, float]:
    """OLS slope of log sigma_H vs log boundary time over the first k steps.

    Returns (slope, standard error of the slope).  The slope is invariant
    under rescaling all times by a constant, so the time unit is
    immaterial.
    """
    if first_k < 2:
        raise FitDomainError("need at least two points for a slope")
    if len(series.sigma_h) < first_k:
        raise FitDomainError(
            f"series has {len(series.sigma_h)} points, fit wants {first_k}"
        )
    sig = np.asarray(series.sigma_h[:first_k], dtype=float)
    t = np.asarray(series.times[:first_k], dtype=float)
    if not (np.all(np.isfinite(sig)) and np.all(sig > 0)):
        raise FitDomainError("sigma_H values must be positive and finite for the fit")
    if not np.all(t > 0):
        raise FitDomainError("boundary times must be positive for the log fit")
    return _ols(np.log(t), np.log(sig))
