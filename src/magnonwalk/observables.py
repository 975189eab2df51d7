"""Reported quantities: mean mode occupation, qubit populations, reduced
mode state, phase distribution, sharpness and Holevo standard deviation,
Wigner function, and the spreading-exponent fit.

Composite states follow the package-wide qubit (x) boson ordering, so a
density matrix of dimension 2*F reduces to an F-dimensional mode state.
"""

from __future__ import annotations

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

    With |phi> = (1/sqrt(M)) sum_n exp(i n phi) |n>,
    p_k = (1/M) Re sum_d c_d exp(i d phi_k) over the diagonal sums
    c_d = sum_n rho_{n, n+d}: an inverse FFT of (-1)^d c_d at d mod M, in
    O(M) memory.  The weights are exactly normalized and a coherent state
    peaks at the phase of its amplitude.  M <= fock_dim raises
    DimensionError: only for M > fock_dim is the grid's first moment the
    sharpness; at M = fock_dim it picks up the wrap term rho_{0, F-1}.
    """
    fock = rho_m.shape[0]
    if M <= fock:
        raise DimensionError(
            f"phase grid M = {M} must exceed the Fock dimension {fock}"
        )
    phi = -np.pi + 2.0 * np.pi * np.arange(M) / M
    d = np.arange(1 - fock, fock)
    c = np.array([np.trace(rho_m, offset=k) for k in d]) * (-1.0) ** d
    spectrum = np.zeros(M, dtype=complex)
    np.add.at(spectrum, d % M, c)
    p = np.fft.ifft(spectrum).real
    if p.min() < -1e-12:
        raise NumericalFailureError(
            f"phase distribution negative beyond tolerance: min = {p.min():.3e}"
        )
    return PhaseDistribution(phi=phi, p=np.clip(p, 0.0, None))


def sharpness_holevo(rho_m: np.ndarray) -> tuple[float, float]:
    """Sharpness |<exp(i phi)>| = |sum_n rho_{n+1, n}| of the mode state and
    the cyclic standard deviation sigma_H = sqrt(sharpness^-2 - 1); flat
    distributions have no finite sigma_H and raise.  Every phase grid of
    M > fock_dim points has this first moment (Pegg & Barnett, PRA 39, 1665
    (1989)), so none is built."""
    sharp = float(abs(np.trace(rho_m, offset=-1)))
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
    w: np.ndarray  # shape (len(x), len(p)), or (K, len(x), len(p)) for K states


def wigner(
    rho_m: np.ndarray,
    x_min: float = -4.5,
    x_max: float = 4.5,
    points: int = 101,
    p_min: float | None = None,
    p_max: float | None = None,
) -> WignerGrid:
    """Displaced-parity Wigner function W(alpha) = (2/pi) Tr[rho D(alpha) Pi D(alpha)^dag]
    of one mode state, shape (F, F), or of each of a stack of K of them,
    shape (K, F, F), which gives ``w`` of shape (K, points, points).

    Evaluated through the identity D(alpha) Pi D(alpha)^dag = Pi D(-2 alpha)
    with exact displacement matrix elements, so |W| <= 2/pi holds on the
    whole grid and the vacuum gives (2/pi) exp(-2|alpha|^2) to machine
    precision.  Since rho and the parity are Hermitian,
    Tr[rho Pi D] = sum_n rho_nn (-1)^n D_nn + 2 Re sum_{m>n} rho_nm (-1)^m D_mn.
    The elements <m|D(beta)|n>, m >= n, at beta = -2 (x + i p) have the
    closed form sqrt(n!/m!) beta^(m-n) exp(-|beta|^2/2) L_n^(m-n)(|beta|^2),
    evaluated with the associated-Laguerre three-term recurrence; using
    the exact (untruncated) elements avoids the corner artifacts a
    truncated matrix exponential develops once |beta|^2 rivals the cutoff.
    They depend only on the grid, so they are built once per call, one
    k = m - n at a time (at most F x points^2 values, real and imaginary
    parts apart), and each block is contracted with each state's weighted
    coefficients by two matrix-vector products before the next is built:
    each grid is rounded on its own, whatever else the stack holds.
    """
    fock = rho_m.shape[-1]
    if p_min is None:
        p_min = x_min
    if p_max is None:
        p_max = x_max
    xs = np.linspace(x_min, x_max, points)
    ps = np.linspace(p_min, p_max, points)
    X, P = np.meshgrid(xs, ps, indexing="ij")
    beta = (-2.0 * (X + 1j * P)).ravel()
    x = np.abs(beta) ** 2
    env = np.exp(-0.5 * x)
    states = rho_m.reshape(-1, fock, fock)
    signs = (-1.0) ** np.arange(fock)
    w = np.zeros((len(states), beta.size))
    re = np.empty((fock, beta.size))
    im = np.empty((fock, beta.size))
    for k in range(fock):  # k = m - n
        # prefactor sqrt(n!/(n+k)!) * beta^k, built up with the recurrence
        lag_prev = np.zeros_like(x)  # L_{-1}
        lag = np.ones_like(x)        # L_0^{(k)}
        beta_k = beta**k
        for n in range(fock - k):
            if n > 0:
                lag, lag_prev = (
                    ((2 * n - 1 + k - x) * lag - (n - 1 + k) * lag_prev) / n,
                    lag,
                )
            pref = np.sqrt(np.prod(1.0 / np.arange(n + 1, n + k + 1)))
            d = pref * beta_k * env * lag
            re[n], im[n] = d.real, d.imag
        # the coefficient of <n+k|D|n> in each state: (-1)^m rho_nm, twice
        # off the diagonal
        coef = (1.0 if k == 0 else 2.0) * signs[k:] * np.diagonal(
            states, offset=k, axis1=1, axis2=2
        )
        for w_i, c in zip(w, coef):
            w_i += c.real @ re[: fock - k]
            w_i -= c.imag @ im[: fock - k]
    w *= 2.0 / np.pi
    w = w.reshape(rho_m.shape[:-2] + (points, points))
    return WignerGrid(x=xs, p=ps, w=w)


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


def loglog_slope(times, sigma_h, first_k: int) -> tuple[float, float]:
    """OLS slope of log sigma_H vs log boundary time over the first k steps,
    from the boundary times (ns) and the Holevo deviations at the walk-step
    boundaries, in step order.

    Returns (slope, standard error of the slope).  The slope is invariant
    under rescaling all times by a constant, so the time unit is
    immaterial.
    """
    if first_k < 2:
        raise FitDomainError("need at least two points for a slope")
    if len(sigma_h) < first_k:
        raise FitDomainError(
            f"series has {len(sigma_h)} points, fit wants {first_k}"
        )
    sig = np.asarray(sigma_h[:first_k], dtype=float)
    t = np.asarray(times[:first_k], dtype=float)
    if not (np.all(np.isfinite(sig)) and np.all(sig > 0)):
        raise FitDomainError("sigma_H values must be positive and finite for the fit")
    if not np.all(t > 0):
        raise FitDomainError("boundary times must be positive for the log fit")
    return _ols(np.log(t), np.log(sig))
