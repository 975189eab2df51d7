"""Physical parameters and their translation into Hamiltonians, dissipator
channels, the square-wave pulse schedule, and the initial state.

Unit system
-----------
Frequencies are configured as nu = omega/2pi in GHz (the form experimental
values are quoted in); internally everything angular is omega = 2pi*nu in
rad/ns and times are in ns, which keeps magnitudes O(1..100).

Sign conventions
----------------
The signed qubit-mode detuning is ``Delta = omega_D - omega_q`` (negative
for the shipped presets).  The dispersive shift ``chi`` and the pulse-
induced Rabi rate ``Omega_R`` that enter the effective walk Hamiltonian,
the drive-frequency condition and the step timings are computed with the
qubit-minus-mode detuning ``omega_q - omega_D = -Delta``:

    chi     = eta^2 / (omega_q - omega_D)
    Omega_R = 2 eta eps0 / (omega_q - omega_D)

With this signing the canonical transformation generated by
``S = (eta / (omega_q - omega_D)) (lower c^dag - raise c)`` removes the
qubit-boson coupling at first order and reproduces the effective
Hamiltonian below with the written signs (verified numerically by the
``algebra`` module).  For the presets both chi and Omega_R are positive,
so magnitudes and signed values coincide.

Operators
---------
Operators are dense complex arrays on the qubit (x) boson space, always in
that order; the solver sparsifies where it pays off (superoperators).
Qubit basis: ``|e> = (1, 0)``, ``|g> = (0, 1)``, so ``sigma_z |e> = +|e>``.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DimensionError,
    DispersiveRegimeWarning,
    InvalidParameterError,
    ScheduleInfeasibleError,
)

__all__ = [
    "TWO_PI",
    "SIGMA_X",
    "SIGMA_Z",
    "RAISE",
    "LOWER",
    "annihilation",
    "coherent_state",
    "PhysicalParams",
    "DerivedParams",
    "Segment",
    "derive",
    "hamiltonian_rotframe",
    "hamiltonian_effective",
    "dissipators",
    "pulse_schedule",
    "initial_state",
    "preset",
    "PRESET_NAMES",
]

TWO_PI = 2.0 * math.pi

# Detuning-to-coupling ratio below which the dispersive picture is dubious.
DISPERSIVE_RATIO_MIN = 10.0


def _constant(rows) -> np.ndarray:
    a = np.array(rows, dtype=complex)
    a.flags.writeable = False
    return a


SIGMA_X = _constant([[0, 1], [1, 0]])
SIGMA_Z = _constant([[1, 0], [0, -1]])
# Unit-normalized qubit ladder |e><g| and |g><e|.  These carry the matrix
# elements that make the Jaynes-Cummings coupling eta (c^dag LOWER + c RAISE)
# produce the dispersive shift eta^2/detuning; the doubled ladder
# sigma_x +- i sigma_y would quadruple it.
RAISE = _constant([[0, 1], [0, 0]])
LOWER = _constant([[0, 0], [1, 0]])


def _dense_kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron(a, b) for 2-D arrays, bit for bit (the same elementwise
    products), without np.kron's n-D set-up, which costs several times the
    product on operands of this model's size."""
    shape = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(shape)


def annihilation(dim: int) -> np.ndarray:
    """Bosonic annihilation operator with <n-1|c|n> = sqrt(n), truncated at dim."""
    if dim < 2:
        raise DimensionError(f"annihilation operator needs dim >= 2, got {dim}")
    c = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    c[ns - 1, ns] = np.sqrt(ns)
    return c


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent state, renormalized to unit norm.

    Amplitudes are proportional to alpha^n / sqrt(n!) for n < dim; the
    renormalization keeps trace-one invariants exact downstream even when
    the cutoff clips part of the Poisson tail.
    """
    if dim < 2:
        raise DimensionError(f"coherent state needs dim >= 2, got {dim}")
    amps = np.empty(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / np.sqrt(n)
    return amps / np.linalg.norm(amps)


@dataclass(frozen=True)
class PhysicalParams:
    """Model frequencies/rates (all as nu = omega/2pi in GHz) plus walk geometry.

    nu_q:      flux-qubit gap frequency
    nu_D:      zero-field splitting of the collective mode
    nu_eta:    qubit-mode coupling strength
    nu_eps0:   square-pulse drive amplitude
    gamma1:    qubit relaxation rate
    gamma_phi: qubit dephasing rate
    Gamma:     collective-mode decay rate
    alpha:     initial coherent amplitude of the mode
    d_sites:   number of sites on the phase-space cycle
    fock_dim:  bosonic Fock-space truncation
    n_steps:   number of walk steps to simulate
    m_phase:   phase-grid points (phase CSV rows), fock_dim < m_phase <= 65536
    """

    nu_q: float
    nu_D: float
    nu_eta: float
    nu_eps0: float
    gamma1: float
    gamma_phi: float
    Gamma: float
    alpha: complex
    d_sites: int
    fock_dim: int
    n_steps: int
    m_phase: int

    def __post_init__(self):
        for f in dataclasses.fields(self):
            if not cmath.isfinite(getattr(self, f.name)):
                raise InvalidParameterError(f"{f.name} must be finite")
        for name in ("gamma1", "gamma_phi", "Gamma"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"rate {name} must be >= 0")
        if self.fock_dim < 2:
            raise InvalidParameterError("fock_dim must be >= 2")
        if self.d_sites < 2:
            raise InvalidParameterError("d_sites must be >= 2")
        if self.n_steps < 0:
            raise InvalidParameterError("n_steps must be >= 0")
        # Only a grid of more points than Fock levels has the sharpness as
        # its first moment (see observables.phase_distribution)
        if self.m_phase <= self.fock_dim:
            raise InvalidParameterError(
                f"m_phase = {self.m_phase} must exceed fock_dim = {self.fock_dim}"
            )
        if self.m_phase > 65536:  # more rows than a phase CSV needs
            raise InvalidParameterError(f"m_phase = {self.m_phase} exceeds 65536")
        # A hard limit on the input: |alpha|^2 within half the Fock space
        # (rounded up, so the stock alpha=3 / dim=17 combination is
        # admitted).  How much the cutoff actually clips is measured by the
        # run (the manifest's max_top_fock_population), not guessed here.
        try:
            n_bar = abs(self.alpha) ** 2
        except OverflowError:  # float ** raises where * gives inf
            n_bar = math.inf
        if n_bar > math.ceil(self.fock_dim / 2):
            raise InvalidParameterError(
                f"|alpha|^2 = {n_bar:.3g} exceeds half the Fock space "
                f"(fock_dim = {self.fock_dim}); raise fock_dim"
            )


@dataclass(frozen=True)
class DerivedParams:
    """Quantities computed from :class:`PhysicalParams`.

    Angular frequencies (Delta, chi, Omega_R, omega_d, delta_c, delta_d)
    are in rad/ns; nu_d is in GHz; t_H and t_p in ns.
    """

    Delta: float      # signed omega_D - omega_q
    chi: float        # dispersive shift, eta^2 / (omega_q - omega_D)
    Omega_R: float    # coin Rabi rate, 2 eta eps0 / (omega_q - omega_D)
    nu_d: float       # drive frequency omega_d / 2pi
    omega_d: float
    delta_c: float    # omega_d - omega_D
    delta_d: float    # omega_d - omega_q
    t_H: float        # coin-pulse duration
    t_p: float        # walk-step period 2pi / (|chi| d)
    n_bar: float      # |alpha|^2


def derive(p: PhysicalParams) -> DerivedParams:
    """Compute the walk parameters from the physical ones; the coin pulse
    is timed by |Omega_R|.  Parameters whose derived frequencies overflow
    the float range raise InvalidParameterError."""
    w = TWO_PI
    omega_q = w * p.nu_q
    omega_D = w * p.nu_D
    eta = w * p.nu_eta
    eps0 = w * p.nu_eps0

    delta_qm = omega_q - omega_D
    if delta_qm == 0:
        raise InvalidParameterError("qubit and mode are resonant; no dispersive regime")
    Delta = -delta_qm
    try:
        chi = eta**2 / delta_qm
    except OverflowError:  # float ** raises where * and / give inf
        chi = math.inf
    Omega_R = 2.0 * eta * eps0 / delta_qm

    n_bar = abs(p.alpha) ** 2
    omega_d = (2.0 * n_bar + 1.0) * chi + omega_q - Omega_R
    delta_c = omega_d - omega_D
    delta_d = omega_d - omega_q
    if not all(map(math.isfinite, (Delta, chi, Omega_R, omega_d, delta_c, delta_d))):
        raise InvalidParameterError("a derived frequency overflows the float range")
    if abs(Delta) < DISPERSIVE_RATIO_MIN * eta:
        warnings.warn(
            f"|Delta|/eta = {abs(Delta) / eta:.2f} < {DISPERSIVE_RATIO_MIN:g}: "
            "dispersive approximation is marginal",
            DispersiveRegimeWarning,
            stacklevel=2,
        )

    omega_p = abs(chi) * p.d_sites
    if omega_p == 0:
        raise ScheduleInfeasibleError("zero coupling gives an infinite step period")
    t_p = TWO_PI / omega_p
    if Omega_R == 0:
        raise ScheduleInfeasibleError("zero drive amplitude gives an infinite pulse")
    t_H = math.pi / (math.sqrt(2.0) * abs(Omega_R))
    if t_H >= t_p:
        raise ScheduleInfeasibleError(
            f"coin pulse t_H = {t_H:.4g} ns does not fit in the step "
            f"period t_p = {t_p:.4g} ns"
        )

    return DerivedParams(
        Delta=Delta,
        chi=chi,
        Omega_R=Omega_R,
        nu_d=omega_d / w,
        omega_d=omega_d,
        delta_c=delta_c,
        delta_d=delta_d,
        t_H=t_H,
        t_p=t_p,
        n_bar=n_bar,
    )


def hamiltonian_rotframe(
    p: PhysicalParams, d: DerivedParams, drive_on: bool
) -> np.ndarray:
    """Rotating-frame Hamiltonian on the qubit (x) boson space.

    H = -delta_c c^dag c - (delta_d/2) sigma_z
        + eta (c^dag lower + c raise) + eps (c + c^dag)

    with eps = eps0 while the pulse is on and 0 otherwise.  This is the
    Hamiltonian propagated for all production dynamics.
    """
    c = annihilation(p.fock_dim)
    idq, idb = np.eye(2, dtype=complex), np.eye(p.fock_dim, dtype=complex)
    eta = TWO_PI * p.nu_eta
    eps = TWO_PI * p.nu_eps0 if drive_on else 0.0
    n_b = c.conj().T @ c
    return (
        -d.delta_c * _dense_kron(idq, n_b)
        - 0.5 * d.delta_d * _dense_kron(SIGMA_Z, idb)
        + eta * (_dense_kron(LOWER, c.conj().T) + _dense_kron(RAISE, c))
        + eps * _dense_kron(idq, c + c.conj().T)
    )


def hamiltonian_effective(
    p: PhysicalParams, d: DerivedParams, drive_on: bool
) -> np.ndarray:
    """Effective walk Hamiltonian after the dispersive transformation.

    H_eff = chi c^dag c sigma_z + (Omega_R/2) sigma_x + eps (c + c^dag)
            - delta_c c^dag c - (delta_d/2) sigma_z + (chi/2)(1 + sigma_z)

    Used for interpretation and for the canonical-transformation residual
    check only; production dynamics always use the rotating-frame form.
    The coin term and the drive are gated together by ``drive_on`` since
    both are proportional to the pulse amplitude.
    """
    c = annihilation(p.fock_dim)
    idq, idb = np.eye(2, dtype=complex), np.eye(p.fock_dim, dtype=complex)
    eps = TWO_PI * p.nu_eps0 if drive_on else 0.0
    omega_r = d.Omega_R if drive_on else 0.0
    n_b = c.conj().T @ c
    return (
        d.chi * _dense_kron(SIGMA_Z, n_b)
        + 0.5 * omega_r * _dense_kron(SIGMA_X, idb)
        + eps * _dense_kron(idq, c + c.conj().T)
        - d.delta_c * _dense_kron(idq, n_b)
        - 0.5 * d.delta_d * _dense_kron(SIGMA_Z, idb)
        + 0.5 * d.chi * (_dense_kron(idq, idb) + _dense_kron(SIGMA_Z, idb))
    )


def dissipators(p: PhysicalParams) -> tuple[tuple[float, np.ndarray], ...]:
    """The three decay channels, mode decay, qubit relaxation and qubit
    dephasing, as (rate, collapse operator) pairs on the composite qubit (x)
    boson space.

    Rates are angular (rad/ns) and each multiplies
    D[x] rho = (2 x rho x^dag - x^dag x rho - rho x^dag x)/2.  They are
    non-negative: ``PhysicalParams`` rejects negative ones.
    A rate whose 2 pi rate overflows the float range raises
    InvalidParameterError."""
    for name in ("Gamma", "gamma1", "gamma_phi"):
        if not math.isfinite(TWO_PI * getattr(p, name)):
            raise InvalidParameterError(f"2 pi {name} overflows the float range")
    idq, idb = np.eye(2, dtype=complex), np.eye(p.fock_dim, dtype=complex)
    return (
        (TWO_PI * p.Gamma, _dense_kron(idq, annihilation(p.fock_dim))),
        (TWO_PI * p.gamma1, _dense_kron(LOWER, idb)),
        (0.5 * TWO_PI * p.gamma_phi, _dense_kron(SIGMA_Z, idb)),
    )


@dataclass(frozen=True)
class Segment:
    step: int        # walk step this segment belongs to, 1-based
    t_start: float   # ns
    duration: float  # ns
    drive_on: bool


def pulse_schedule(p: PhysicalParams, d: DerivedParams) -> tuple[Segment, ...]:
    """Square-wave schedule: each step is the coin toss, a drive-on stretch
    of t_H, then the shift, a drive-off stretch of t_p - t_H."""
    if d.t_H >= d.t_p:
        raise ScheduleInfeasibleError("t_H >= t_p")
    segments = []
    for k in range(p.n_steps):
        t0 = k * d.t_p
        segments.append(Segment(k + 1, t0, d.t_H, True))
        segments.append(Segment(k + 1, t0 + d.t_H, d.t_p - d.t_H, False))
    return tuple(segments)


def initial_state(p: PhysicalParams) -> np.ndarray:
    """Pure initial density matrix: mode coherent, qubit in (|g> + i|e>)/sqrt(2)."""
    qubit = np.array([1j, 1.0]) / math.sqrt(2.0)  # i|e> + |g>, |e> = (1, 0)
    psi = np.kron(qubit, coherent_state(p.alpha, p.fock_dim))
    return np.outer(psi, psi.conj())


_BASE = PhysicalParams(
    nu_q=7.0,
    nu_D=2.87,
    nu_eta=0.1,
    nu_eps0=1.0,
    gamma1=0.02e-3,
    gamma_phi=0.31e-3,
    Gamma=0.1e-3,
    alpha=3.0 + 0.0j,
    d_sites=16,
    fock_dim=17,
    n_steps=8,
    m_phase=256,
)

# base:            weak-dissipation benchmark set.
# realistic:       collectively enhanced mode decay, compensated by a 10x
#                  stronger drive; qubit relaxation as in base.
# realistic_gamma1: same but with the qubit relaxation raised to the
#                  dephasing level.
_PRESETS: dict[str, PhysicalParams] = {
    "base": _BASE,
    "realistic": replace(_BASE, Gamma=2.78e-3, nu_eps0=10.0),
    "realistic_gamma1": replace(_BASE, Gamma=2.78e-3, nu_eps0=10.0, gamma1=0.31e-3),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, **overrides) -> PhysicalParams:
    """Look up a named parameter set, optionally overriding fields."""
    try:
        base = _PRESETS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown preset {name!r}; available: {', '.join(_PRESETS)}"
        ) from None
    return replace(base, **overrides)
