"""Numerical certification of the operator-algebra chain behind the model:
collective transition (Hubbard-type) operators and their algebra, the
bilinear boson representation, the weak-excitation contraction to a
single bosonic mode, the bright-mode decoupling identity, its
inhomogeneous-coupling generalization, and the dispersive canonical
transformation residual.

Every check is deterministic and tolerance-gated.  Identities that are
exact only in the untruncated space are evaluated on a subspace the
truncation cannot leak out of.  The bright-mode checks represent the
polarization modes on the vacuum and the one-quantum states only
(a_i = |vac><1_i|, n + 1 dimensions for n modes): their interaction
identity is linear in the a_i, and their occupation and commutator
identities are read on the vacuum, from which the interaction reaches
one quantum, so that space holds every one of them exactly.  The
dark-mode check takes [H, u^dag u] on the vacuum columns from one side
only; from both sides it would vanish for any mode u.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionError, InvalidParameterError
from .model import (
    LOWER,
    RAISE,
    SIGMA_X,
    PhysicalParams,
    _dense_kron,
    annihilation,
    derive,
    hamiltonian_effective,
    hamiltonian_rotframe,
    preset,
)
from .observables import _ols
from .solver import Generator, _expm_taylor21

__all__ = [
    "EnsembleOperators",
    "ResidualReport",
    "hubbard_ensemble",
    "schwinger_ensemble",
    "check_hubbard_algebra",
    "check_contraction",
    "check_mode_decoupling",
    "check_inhomogeneous_mode",
    "frohlich_residual",
    "run_all_checks",
]

SPIN_LABELS = ("+", "0", "-")
EXACT_TOL = 1e-12
# Coupling scales of the Frohlich residual fit, smallest first.  Each is
# twice the one before, so one exponential and its squarings give them all
# (see _exp_ladder).
FROHLICH_SCALES = tuple(0.125 * 2.0**k for k in range(4))


@dataclass(frozen=True)
class EnsembleOperators:
    """Collective transition operators X[m,n] on an N-site spin-1 ensemble
    (or an equivalent bosonic representation restricted to one sector).

    :func:`hubbard_ensemble` gives float64 arrays, whose entries are small
    integers, so the checks on them run in real arithmetic;
    :func:`schwinger_ensemble` gives complex128 arrays."""

    n_sites: int
    dim: int
    x: dict[tuple[str, str], np.ndarray]


@dataclass(frozen=True)
class ResidualReport:
    name: str
    value: float
    threshold: float
    passed: bool
    comparison: str = "<="  # value <= threshold (residuals) or >= (slopes)

    @staticmethod
    def bounded(name: str, value: float, threshold: float = EXACT_TOL) -> "ResidualReport":
        return ResidualReport(name, float(value), threshold, bool(value <= threshold))

    @staticmethod
    def at_least(name: str, value: float, threshold: float) -> "ResidualReport":
        return ResidualReport(name, float(value), threshold, bool(value >= threshold), ">=")


def _opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def hubbard_ensemble(n_sites: int) -> EnsembleOperators:
    """X^{mn} = sum_j |m>_j <n|_j for spin-1 sites, m, n in {+, 0, -}.

    A basis state is a base-3 number whose digit j (site 0 the most
    significant, the Kronecker order) is the index of site j's label in
    SPIN_LABELS.  For each site j, |m>_j <n|_j maps every state whose
    digit j is n to the same state with that digit set to m, so X^{mn}
    holds a 1 at each such (target, source) pair, summed over j: the
    diagonal X^{mm} counts the sites in |m>, and an off-diagonal X^{mn}
    has 0/1 entries.  Every entry is a small integer, exactly the sum of
    the site-embedded Kronecker products, held as a float64.
    """
    if not 1 <= n_sites <= 4:
        raise DimensionError(
            f"ensemble size {n_sites} outside [1, 4] (dimension 3^N <= 81)"
        )
    dim = 3**n_sites
    states = np.arange(dim)
    x = {}
    for dm, m in enumerate(SPIN_LABELS):
        for dn, n in enumerate(SPIN_LABELS):
            op = np.zeros((dim, dim))
            for j in range(n_sites):
                place = 3 ** (n_sites - 1 - j)
                sources = states[states // place % 3 == dn]
                op[sources + (dm - dn) * place, sources] += 1.0
            x[(m, n)] = op
    return EnsembleOperators(n_sites=n_sites, dim=dim, x=x)


def schwinger_ensemble(n_sites: int, trunc: int = 3) -> EnsembleOperators:
    """Bilinear boson form X^{mn} = x_m^dag x_n on three modes, restricted
    to the total-number = N sector where the truncation is exact."""
    if n_sites < 1:
        raise DimensionError("need at least one excitation quantum")
    if trunc <= n_sites:
        raise DimensionError(
            f"per-mode truncation {trunc} cannot hold {n_sites} quanta exactly"
        )
    a = annihilation(trunc)
    eye = np.eye(trunc, dtype=complex)
    mode = {
        "+": _dense_kron(_dense_kron(a, eye), eye),
        "0": _dense_kron(_dense_kron(eye, a), eye),
        "-": _dense_kron(_dense_kron(eye, eye), a),
    }
    occupations = list(itertools.product(range(trunc), repeat=3))
    sector = [i for i, occ in enumerate(occupations) if sum(occ) == n_sites]
    basis = np.zeros((trunc**3, len(sector)))
    for col, i in enumerate(sector):
        basis[i, col] = 1.0
    x = {}
    for m in SPIN_LABELS:
        for n in SPIN_LABELS:
            full = mode[m].conj().T @ mode[n]
            x[(m, n)] = basis.T @ full @ basis
    return EnsembleOperators(n_sites=n_sites, dim=len(sector), x=x)


def check_hubbard_algebra(ensemble: EnsembleOperators) -> ResidualReport:
    """Max residual of [X^{mn}, X^{m'n'}] = d_{m'n} X^{mn'} - d_{mn'} X^{m'n}
    over all 81 operator pairs.

    The nine X^{mn} are stacked, and one batched product of the stack with
    itself gives all 81 X_a X_b; each batch entry is the same GEMM as the
    single product.  The right side is the stack broadcast against
    Kronecker deltas, built in the products' buffer once they are spent,
    and subtracted as one term, so every residual equals the one taken
    pair by pair (up to the sign of a zero).  One batched call runs the
    same SVD per residual as _opnorm, on the residuals that are not
    exactly zero; the norm of the others is 0.
    """
    k, dim = len(SPIN_LABELS), ensemble.dim
    x = np.stack([ensemble.x[key] for key in itertools.product(SPIN_LABELS, repeat=2)])
    prod = np.matmul(x[:, None], x[None, :])  # prod[a, b] = X_a X_b
    residuals = prod - prod.transpose(1, 0, 2, 3)
    # axes (m, n, m', n'): the pairs in itertools.product order
    x = x.reshape(k, k, dim, dim)
    delta = np.eye(k, dtype=bool)[:, :, None, None]
    rhs = prod.reshape(k, k, k, k, dim, dim)
    np.multiply(delta[None, :, :, None], x[:, None, None, :], out=rhs)
    x_swapped = x.transpose(1, 0, 2, 3)[None, :, :, None]  # X^{m'n} at (n, m')
    np.subtract(rhs, x_swapped, out=rhs, where=delta[:, None, None, :])
    residuals -= rhs.reshape(residuals.shape)
    residuals = residuals.reshape(k**4, dim, dim)
    residuals = residuals[residuals.any(axis=(1, 2))]
    worst = np.linalg.norm(residuals, 2, axis=(1, 2)).max(initial=0.0)
    return ResidualReport.bounded(
        f"hubbard_algebra[N={ensemble.n_sites},dim={ensemble.dim}]", worst
    )


def contraction_deviation(ens: EnsembleOperators, k: int) -> float:
    """Norm of ([V_-, V_+] - 1)|psi> on the symmetric k-quanta state of the
    spin ensemble ``ens`` from :func:`hubbard_ensemble`; equals 2k/N
    exactly for these states.  The commutator is applied to psi by four
    products with a vector, V_-(V_+ psi) - V_+(V_- psi) - psi, without
    forming it."""
    psi = _symmetric_excited_state(ens.n_sites, k)
    v_minus = ens.x[("0", "-")] / math.sqrt(ens.n_sites)
    v_plus = v_minus.conj().T
    weyl_psi = v_minus @ (v_plus @ psi) - v_plus @ (v_minus @ psi) - psi
    return float(np.linalg.norm(weyl_psi))


def _symmetric_excited_state(n_sites: int, k: int) -> np.ndarray:
    """Normalized symmetric state with k sites in |-> and the rest in |0>."""
    dim = 3**n_sites
    minus, zero = SPIN_LABELS.index("-"), SPIN_LABELS.index("0")
    psi = np.zeros(dim)
    for flipped in itertools.combinations(range(n_sites), k):
        digits = [minus if j in flipped else zero for j in range(n_sites)]
        index = 0
        for d in digits:
            index = 3 * index + d
        psi[index] = 1.0
    return psi / np.linalg.norm(psi)


def check_contraction(
    ens: EnsembleOperators, trunc: int | None = None
) -> list[ResidualReport]:
    """Weak-excitation contraction of the isotopic-spin algebra on the spin
    ensemble ``ens`` from :func:`hubbard_ensemble`.

    The cross commutator [V_-, U_+] = -T_+/N is an operator identity and
    must vanish to machine precision; [V_-, V_+] = 1 holds only in the
    N -> infinity contraction, and its deviation on symmetric states with
    k quanta equals 2k/N exactly, which is what the scaling reports probe.
    If ``trunc`` is given the exact identity is re-verified in the
    bilinear boson representation on the number = N sector.
    """
    n_sites = ens.n_sites
    reports = []

    def gellmann(ensemble: EnsembleOperators):
        N = ensemble.n_sites
        v_minus = ensemble.x[("0", "-")] / math.sqrt(N)
        u_minus = ensemble.x[("0", "+")] / math.sqrt(N)
        t_plus = ensemble.x[("+", "-")]
        return v_minus, u_minus, t_plus

    v_minus, u_minus, t_plus = gellmann(ens)
    u_plus = u_minus.conj().T
    v_plus = v_minus.conj().T
    cross = v_minus @ u_plus - u_plus @ v_minus
    reports.append(
        ResidualReport.bounded(
            f"contraction.exact_identity[N={n_sites}]",
            _opnorm(cross + t_plus / n_sites),
        )
    )

    reports.append(
        ResidualReport.bounded(
            f"contraction.polarized_state[N={n_sites}]",
            contraction_deviation(ens, 0),
        )
    )
    for k in (1, 2):
        if k > n_sites:
            continue
        dev = contraction_deviation(ens, k)
        # deviation is 2k/N on these states; reported against a 10% band
        target = 2.0 * k / n_sites
        reports.append(
            ResidualReport.bounded(
                f"contraction.deviation[N={n_sites},k={k}]",
                abs(dev - target),
                0.1 * target,
            )
        )

    if trunc is not None:
        schwinger = schwinger_ensemble(n_sites, trunc)
        v_m, u_m, t_p = gellmann(schwinger)
        cross_s = v_m @ u_m.conj().T - u_m.conj().T @ v_m
        reports.append(
            ResidualReport.bounded(
                f"contraction.schwinger_identity[N={n_sites},trunc={trunc}]",
                _opnorm(cross_s + t_p / n_sites),
            )
        )
    return reports


def _multimode(n_modes: int) -> list[np.ndarray]:
    """Annihilation operators a_i = |vac><1_i| of n_modes modes on the
    vacuum (index 0) and the one-quantum states |1_i> (index i + 1) only.

    The bright-mode checks lose nothing by it: the interaction identity is
    linear in the a_i, which are linearly independent here, and the
    vacuum-sector identities reach at most one quantum, where these a_i
    act exactly as bosonic annihilation operators.
    """
    basis = np.eye(n_modes + 1, dtype=complex)
    return [np.outer(basis[0], basis[i + 1]) for i in range(n_modes)]


def _exchange(m: np.ndarray) -> np.ndarray:
    """RAISE (x) m + LOWER (x) m^dag: the qubit exchange coupling to mode m."""
    return _dense_kron(RAISE, m) + _dense_kron(LOWER, m.conj().T)


def _collective_mode(weights: list[float]):
    """Modes, interaction and collective mode for one weight w_i per centre.

    Each centre carries two polarization modes a_i, b_i.  Returns the
    modes in the order (a_1, b_1, a_2, b_2, ...), the interaction
    H = sum_i w_i (raise (a_i + b_i) + lower (a_i + b_i)^dag), the
    collective mode c = sum_i w_i (a_i + b_i) / G and its strength
    G = sqrt(2 sum_i w_i^2), so that H = G (raise c + lower c^dag).
    """
    modes = _multimode(2 * len(weights))
    pairs = [a + b for a, b in zip(modes[0::2], modes[1::2])]
    big_g = math.sqrt(2.0 * sum(w**2 for w in weights))
    h_int = sum(w * _exchange(m) for w, m in zip(weights, pairs))
    c = sum(w * m for w, m in zip(weights, pairs)) / big_g
    return modes, h_int, c, big_g


def _canonical_residual(c: np.ndarray) -> float:
    """|<vac|[c, c^dag]|vac> - 1| for a mode on the vacuum-plus-one-quantum
    space (vacuum at index 0)."""
    return float(abs((c @ c.conj().T - c.conj().T @ c)[0, 0] - 1.0))


def _dark_mode_residual(h_int: np.ndarray, modes: list[np.ndarray]) -> float:
    """Largest ||[H, u^dag u] V|| over the modes u, where the two columns
    of V are the qubit states times the mode vacuum.

    u^dag u annihilates V, so this is ||u^dag u H V||.  H V holds one
    quantum, in the bright mode, so the value is 0 exactly when u is
    orthogonal to the bright mode, and the one-quantum space holds it
    exactly.  The two-sided V^dag [H, u^dag u] V would be 0 for every u.
    """
    dim = len(h_int) // 2  # V: columns |e, vac> and |g, vac>
    worst = 0.0
    for u in modes:
        occ = _dense_kron(np.eye(2), u.conj().T @ u)
        worst = max(worst, _opnorm((h_int @ occ - occ @ h_int)[:, ::dim]))
    return worst


def check_mode_decoupling(
    populations: tuple[float, float, float, float]
) -> list[ResidualReport]:
    """Bright-mode reduction of the eight-mode coupling.

    Builds the interaction of the four classes' eight polarization modes
    (weights sqrt(N_f), coupling g = 1), the bright mode c and the
    orthogonal (dark) combinations on the vacuum-plus-one-quantum space (see
    :func:`_multimode`), then verifies that (i) the interaction equals the
    single-mode form with the collective strength sqrt(2N) g exactly,
    (ii) every dark mode's occupation commutes with the interaction on the
    vacuum, ||[H, u^dag u] V|| = 0 (see :func:`_dark_mode_residual`; a
    mode that is not dark gives its overlap with the bright one times
    sqrt(2N) g), and (iii) c is canonically normalized on the vacuum.
    (i) holds term by term; (ii) and (iii) involve at most one quantum,
    so all three are exact on this space and pin every coefficient of
    the construction.
    """
    pops = tuple(float(x) for x in populations)
    if len(pops) != 4 or any(x < 0 for x in pops):
        raise InvalidParameterError("need four non-negative populations")
    total = sum(pops)
    if total <= 0:
        raise InvalidParameterError("total population must be positive")

    modes, h_int, c, big_g = _collective_mode([math.sqrt(x) for x in pops])
    a = modes[0::2]
    b = modes[1::2]

    reports = [
        ResidualReport.bounded(
            f"decoupling.interaction_identity[{pops}]",
            _opnorm(h_int - big_g * _exchange(c)),
        )
    ]

    # Dark modes: per-class difference combinations always exist; the
    # pairwise and global combinations only where the populations allow.
    c_f = [(a[f] + b[f]) / math.sqrt(2.0) for f in range(4)]
    dark = [(a[f] - b[f]) / math.sqrt(2.0) for f in range(4)]
    pair_modes = {}
    for name, (i, j) in {"12": (0, 1), "34": (2, 3)}.items():
        pair_pop = pops[i] + pops[j]
        if pair_pop > 0:
            bright = (
                math.sqrt(pops[i]) * c_f[i] + math.sqrt(pops[j]) * c_f[j]
            ) / math.sqrt(pair_pop)
            dark.append(
                (math.sqrt(pops[j]) * c_f[i] - math.sqrt(pops[i]) * c_f[j])
                / math.sqrt(pair_pop)
            )
            pair_modes[name] = (pair_pop, bright)
        else:
            dark.extend([c_f[i], c_f[j]])
    if len(pair_modes) == 2:
        (pop12, c12), (pop34, c34) = pair_modes["12"], pair_modes["34"]
        dark.append(
            (math.sqrt(pop34) * c12 - math.sqrt(pop12) * c34) / math.sqrt(total)
        )

    reports.append(
        ResidualReport.bounded(
            f"decoupling.dark_mode_commutators[{pops}]",
            _dark_mode_residual(h_int, dark),
        )
    )
    reports.append(
        ResidualReport.bounded(
            f"decoupling.canonical_commutator[{pops}]", _canonical_residual(c)
        )
    )
    return reports


def check_inhomogeneous_mode(couplings) -> list[ResidualReport]:
    """Collective mode for per-center coupling strengths.

    ``couplings`` holds one strength g_i per center.  Each center carries
    two polarization modes; with G = sqrt(2 sum_i g_i^2), the summed
    interaction must equal G (raise c + lower c^dag) exactly, and c must
    be canonical on the vacuum.  Both identities are exact on the
    vacuum-plus-one-quantum space of :func:`_multimode`.
    """
    flat = list(map(float, couplings))
    if not flat:
        raise InvalidParameterError("need at least one coupling")
    if all(gi == 0 for gi in flat):
        raise InvalidParameterError("all couplings are zero")
    if len(flat) > 4:
        raise DimensionError("at most 4 centers (8 modes) at this truncation")

    _, h_int, c, big_g = _collective_mode(flat)
    label = str(len(flat))
    return [
        ResidualReport.bounded(
            f"inhomogeneous.interaction_identity[{label},G={big_g:.4g}]",
            _opnorm(h_int - big_g * _exchange(c)),
        ),
        ResidualReport.bounded(
            f"inhomogeneous.canonical_commutator[{label}]", _canonical_residual(c)
        ),
    ]


def _exp_ladder(g: np.ndarray) -> list[np.ndarray]:
    """exp(s g) for each s in FROHLICH_SCALES: one exponential from the
    solver's Taylor-21 kernel at the smallest scale, then one squaring per
    doubling, exp(2 s g) = exp(s g)^2.  The kernel takes g by its nonzero
    entries."""
    rows, cols = np.nonzero(g)
    u = _expm_taylor21(Generator(len(g), rows, cols, FROHLICH_SCALES[0] * g[rows, cols]))
    ladder = [u]
    for _ in FROHLICH_SCALES[1:]:
        u = u @ u
        ladder.append(u)
    return ladder


def frohlich_residual(p: PhysicalParams) -> list[ResidualReport]:
    """Residual scaling of the dispersive canonical transformation.

    For each scale s in FROHLICH_SCALES the coupling and drive are
    multiplied by s while the rotating-frame detunings stay fixed; the
    transformation generated by
    S = (s eta / (delta_c - delta_d)) (lower c^dag - raise c) is applied
    with exact matrix exponentials (one Taylor-21 exponential at the
    smallest scale, squared up the doubling scales) and compared with the
    effective Hamiltonian (whose dispersive coefficients scale as s^2).  The
    effective form captures everything through second order, so the
    residual must fall off at least as s^3 minus fit slack; the check also
    confirms that the transformed drive projects onto sigma_x with the
    coin coefficient Omega_R/2.
    """
    if p.fock_dim > 8:
        raise DimensionError("use fock_dim <= 8 so exact exponentials stay cheap")
    d1 = derive(p)
    delta_qm = d1.delta_c - d1.delta_d  # = omega_q - omega_D exactly
    c = annihilation(p.fock_dim)
    # Project below the cutoff: the top Fock level carries the truncated
    # [c, c^dag] artifact (it makes the commutator traceless), which would
    # cancel the coin coefficient out of a full-space projection.
    low = np.eye(p.fock_dim, dtype=complex)
    low[-1, -1] = 0.0
    sx_low = _dense_kron(SIGMA_X, low)
    sx_low_sq = 2.0 * (p.fock_dim - 1)

    # the generator at scale s is s g1; it is real and antisymmetric, so
    # exp(-s g1) = u^T
    g1 = (2.0 * math.pi * p.nu_eta / delta_qm) * (
        _dense_kron(LOWER, c.conj().T) - _dense_kron(RAISE, c)
    )
    residuals = []
    sx_coeffs = []
    for s, u in zip(FROHLICH_SCALES, _exp_ladder(g1.real)):
        p_s = replace(p, nu_eta=s * p.nu_eta, nu_eps0=s * p.nu_eps0)
        d_s = replace(d1, chi=s**2 * d1.chi, Omega_R=s**2 * d1.Omega_R)
        h = hamiltonian_rotframe(p_s, d_s, drive_on=True)
        h_eff = hamiltonian_effective(p_s, d_s, drive_on=True)
        transformed = u.T @ h @ u
        residuals.append(_opnorm(transformed - h_eff))
        sx_coeffs.append(np.trace(transformed @ sx_low).real / sx_low_sq)

    slope = _ols(np.log(FROHLICH_SCALES), np.log(residuals))[0]
    reports = [
        ResidualReport.at_least("frohlich.residual_slope", slope, 1.9)
    ]
    s_min = FROHLICH_SCALES[0]
    target = s_min**2 * d1.Omega_R / 2.0
    reports.append(
        ResidualReport.bounded(
            "frohlich.sigma_x_coefficient",
            abs(sx_coeffs[0] / target - 1.0),
            0.05,
        )
    )
    return reports


def run_all_checks(fock_dim: int = 6) -> list[ResidualReport]:
    """The full verification suite with standard sizes, as ``verify``
    runs it."""
    reports: list[ResidualReport] = []
    ens = {n: hubbard_ensemble(n) for n in (1, 2, 3, 4)}
    for n in (1, 2, 3):
        reports.append(check_hubbard_algebra(ens[n]))
    reports.append(check_hubbard_algebra(schwinger_ensemble(2, trunc=3)))

    for n in (2, 3, 4):
        reports += check_contraction(ens[n], trunc=3 if n == 2 else None)
    ratio = contraction_deviation(ens[2], 1) / contraction_deviation(ens[4], 1)
    reports.append(
        ResidualReport.bounded("contraction.halving[N=2->4]", abs(ratio - 2.0), 0.2)
    )

    reports += check_mode_decoupling((1.0, 1.0, 1.0, 1.0))
    reports += check_mode_decoupling((4.0, 1.0, 1.0, 1.0))
    reports += check_inhomogeneous_mode([1.0, 2.0])
    reports += check_inhomogeneous_mode([1.0, 1.0])
    reports += check_inhomogeneous_mode([1.0])

    p_small = preset("base", fock_dim=fock_dim, alpha=1.0 + 0.0j)
    reports += frohlich_residual(p_small)
    return reports
