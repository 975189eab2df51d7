"""Lindblad master-equation propagation through the piecewise-constant
pulse schedule.

Vectorization convention
------------------------
Density matrices are column-stacked: vec(A rho B) = (B^T kron A) vec(rho).
The Liouvillian for dρ/dt = -i[H, rho] + sum_k gamma_k D[x_k] rho is then

    L = -i (1 kron H - H^T kron 1)
        + sum_k gamma_k [ conj(x_k) kron x_k
                          - 1/2 (1 kron x_k^dag x_k + (x_k^dag x_k)^T kron 1) ]

Within one schedule segment the Hamiltonian is constant (square-wave
drive), so exp(L dt) propagates exactly up to floating point; this is the
default method.  A fixed-step RK4 integrator is provided as an
independent cross-check.  For a linear constant-coefficient system RK4
reduces to multiplying by the degree-4 Taylor polynomial of exp(L h),
which preserves the trace identically because vec(1)^T L = 0.

Block-wise exponential
----------------------
While the drive is off, the Hamiltonian and all three collapse operators
conserve the excitation number N = c^dag c + |e><e|, so L couples vec
entries |i><j| only within one k = N_i - N_j (Albert & Jiang, PRA 89,
022118 (2014)).  ``propagator`` finds such a split from L itself: the
connected components of L's sparsity pattern are index sets that L never
couples, so after permuting them into contiguous order L is block
diagonal, and the exponential of a block-diagonal matrix is the
block-diagonal matrix of the blocks' exponentials.  Each block is
exponentiated densely by the same Padé scaling and squaring.  Nothing
about the model is assumed, so the split is exact for any parameters,
zero rates included.  The drive eps (c + c^dag) connects every sector,
so the drive-on generator is one component and one dense exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components

from .errors import DimensionError, NumericalFailureError
from .model import DissipatorSpec, PulseSchedule
from .observables import mean_number, qubit_populations

__all__ = [
    "DT_MAX_DEFAULT",
    "liouvillian",
    "vec",
    "unvec",
    "sectors",
    "propagator",
    "propagate",
    "Trajectory",
    "evolve",
]

# RK4 sub-step ceiling (ns).  The spectral radius of the Liouvillians here
# is a few hundred rad/ns, and RK4's imaginary-axis stability interval is
# 2*sqrt(2), so sub-steps must stay around 1e-3 ns.
DT_MAX_DEFAULT = 1e-3

TRACE_RENORM_THRESHOLD = 1e-10
POSITIVITY_FLOOR = -1e-5


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def liouvillian(H: np.ndarray, diss: DissipatorSpec) -> sp.csr_matrix:
    """Sparse Liouvillian acting on column-vectorized density matrices."""
    dim = H.shape[0]
    if H.shape != (dim, dim):
        raise DimensionError("Hamiltonian must be square")
    eye = sp.identity(dim, dtype=complex, format="csr")
    Hs = sp.csr_matrix(H)
    L = -1j * (sp.kron(eye, Hs) - sp.kron(Hs.T, eye))
    for rate, x in diss.channels:
        if x.shape != (dim, dim):
            raise DimensionError(
                f"dissipator channel shape {x.shape} does not match dim {dim}"
            )
        if rate == 0.0:
            continue
        xs = sp.csr_matrix(x)
        xdx = sp.csr_matrix(x.conj().T @ x)
        L = L + rate * (
            sp.kron(xs.conjugate(), xs)
            - 0.5 * (sp.kron(eye, xdx) + sp.kron(xdx.T, eye))
        )
    return sp.csr_matrix(L)


def sectors(L) -> np.ndarray:
    """Label of every vec index: its connected component in the sparsity
    pattern of L, read as an undirected graph.  L has no entry between two
    different components."""
    pattern = abs(sp.csr_matrix(L))  # csgraph wants real weights
    return connected_components(pattern, directed=False)[1]


def propagator(L, dt: float):
    """exp(L dt), one independent block of L at a time.

    The blocks are the components found by :func:`sectors`.  When L is a
    single component the result is the dense ``expm(L dt)`` as an array,
    because a dense matvec is several times faster than a sparse one at
    full density.  Otherwise each block is exponentiated densely and the
    result is a CSR matrix in the original vec ordering; since
    exp(diag(B_1, B_2, ...)) = diag(exp B_1, exp B_2, ...), it equals the
    dense exponential to rounding.  Either result is applied as P @ v.
    """
    L = sp.csr_matrix(L)
    labels = sectors(L)
    sizes = np.bincount(labels)
    if len(sizes) == 1:
        return expm(L.toarray() * dt)
    order = np.argsort(labels, kind="stable")
    Lp = L[order[:, None], order]
    bounds = np.concatenate(([0], np.cumsum(sizes)))
    blocks = sp.block_diag(
        [expm(Lp[a:b, a:b].toarray() * dt) for a, b in zip(bounds[:-1], bounds[1:])],
        format="coo",
    )
    return sp.csr_matrix(
        (blocks.data, (order[blocks.row], order[blocks.col])), shape=L.shape
    )


def _rk4_advance(v: np.ndarray, L, dt: float, dt_max: float) -> np.ndarray:
    n_sub = max(1, math.ceil(dt / dt_max))
    h = dt / n_sub
    for _ in range(n_sub):
        k1 = L @ v
        k2 = L @ (v + 0.5 * h * k1)
        k3 = L @ (v + 0.5 * h * k2)
        k4 = L @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def _condition(rho: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Re-hermitize, renormalize drifting trace, and police positivity.

    Returns the repaired state, the trace drift |Tr rho - 1| seen before
    the repair (above TRACE_RENORM_THRESHOLD the state was renormalized)
    and the smallest eigenvalue of the repaired state.
    """
    rho = 0.5 * (rho + rho.conj().T)
    tr = np.trace(rho).real
    drift = abs(tr - 1.0)
    if drift > TRACE_RENORM_THRESHOLD:
        if abs(tr) < 1e-6:
            raise NumericalFailureError(f"state trace collapsed to {tr:.3e}")
        rho = rho / tr
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < POSITIVITY_FLOOR:
        raise NumericalFailureError(
            f"density matrix lost positivity (min eigenvalue {min_eig:.3e})"
        )
    return rho, drift, min_eig


def propagate(
    rho: np.ndarray,
    L,
    dt: float,
    method: str = "expm",
    dt_max: float = DT_MAX_DEFAULT,
) -> np.ndarray:
    """Advance a density matrix by dt under a constant Liouvillian."""
    if dt < 0:
        raise ValueError(f"dt must be >= 0, got {dt}")
    if dt == 0:
        return rho.copy()
    dim = rho.shape[0]
    v = vec(rho.astype(complex))
    if method == "expm":
        v = propagator(L, dt) @ v
    elif method == "rk4":
        v = _rk4_advance(v, L, dt, dt_max)
    else:
        raise ValueError(f"unknown method {method!r}; use 'expm' or 'rk4'")
    return _condition(unvec(v, dim))[0]


@dataclass
class Trajectory:
    """Sampled observables plus per-step state snapshots.

    ``times`` are strictly increasing and include the t=0 sample;
    ``snapshots`` holds one (step, time, rho) triple per completed walk
    step when snapshots are enabled.  ``propagators`` describes each
    exp(L dt) built, in build order: drive flag, sub-interval ``dt``, the
    number of independent blocks and the size of the largest one (1 block
    of the full size means the dense path ran).  ``trace_err`` is the
    trace drift of each sample before ``_condition`` repaired it and
    ``min_eig`` the smallest eigenvalue after; :meth:`health` sums them up.
    """

    times: np.ndarray
    n_c: np.ndarray
    p_e: np.ndarray
    p_g: np.ndarray
    drive_on: np.ndarray  # bool per sample
    trace_err: np.ndarray
    min_eig: np.ndarray
    snapshots: list[tuple[int, float, np.ndarray]] = field(default_factory=list)
    propagators: list[dict] = field(default_factory=list)

    def health(self) -> dict:
        """Worst case over the samples: the largest trace drift before
        repair, the number of samples renormalized, the smallest
        eigenvalue."""
        return {
            "max_trace_drift": float(self.trace_err.max()),
            "renormalizations": int(
                np.count_nonzero(self.trace_err > TRACE_RENORM_THRESHOLD)
            ),
            "min_eigenvalue": float(self.min_eig.min()),
        }


def evolve(
    schedule: PulseSchedule,
    rho0: np.ndarray,
    H_on: np.ndarray,
    H_off: np.ndarray,
    diss: DissipatorSpec,
    samples_per_segment: int = 10,
    method: str = "expm",
    dt_max: float = DT_MAX_DEFAULT,
    keep_snapshots: bool = True,
) -> Trajectory:
    """Propagate through the schedule, sampling observables on the way.

    Each segment uses the Liouvillian built from H_on or H_off and is
    subdivided into ``samples_per_segment`` equal sub-intervals; the state
    is recorded after each one.  exp(L dt) propagators are cached per
    (drive flag, sub-interval) pair, so a run builds two propagators
    regardless of step count: one dense exponential of the drive-on
    generator, and one small dense exponential per excitation-number block
    of the drive-off generator (see :func:`propagator`).
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    if method not in ("expm", "rk4"):
        raise ValueError(f"unknown method {method!r}; use 'expm' or 'rk4'")
    liouvillians = {True: None, False: None}

    def get_liouvillian(flag: bool):
        if liouvillians[flag] is None:
            liouvillians[flag] = liouvillian(H_on if flag else H_off, diss)
        return liouvillians[flag]

    propagators: dict[tuple[bool, float], np.ndarray | sp.csr_matrix] = {}
    paths: list[dict] = []
    dim = rho0.shape[0]
    rho, drift, min_eig = _condition(rho0.astype(complex))

    first_flag = schedule.segments[0].drive_on if schedule.segments else False
    times = [0.0]
    n_c = [mean_number(rho)]
    p_e_list, p_g_list = [], []
    pe, pg = qubit_populations(rho)
    p_e_list.append(pe)
    p_g_list.append(pg)
    flags = [first_flag]
    trace_err = [drift]
    min_eigs = [min_eig]
    snapshots: list[tuple[int, float, np.ndarray]] = []

    n_segments = len(schedule.segments)
    for i, seg in enumerate(schedule.segments):
        dt_sub = seg.duration / samples_per_segment
        L = get_liouvillian(seg.drive_on)
        if method == "expm":
            key = (seg.drive_on, dt_sub)
            if key not in propagators:
                propagators[key] = propagator(L, dt_sub)
                sizes = np.bincount(sectors(L))
                paths.append(
                    {
                        "drive_on": seg.drive_on,
                        "dt": dt_sub,
                        "blocks": len(sizes),
                        "largest_block": int(sizes.max()),
                    }
                )
            P = propagators[key]
        for j in range(samples_per_segment):
            try:
                if method == "expm":
                    v = P @ vec(rho)
                else:
                    v = _rk4_advance(vec(rho), L, dt_sub, dt_max)
                rho, drift, min_eig = _condition(unvec(v, dim))
            except NumericalFailureError as exc:
                raise NumericalFailureError(
                    f"propagation failed in segment {i} (step {seg.step}): {exc}"
                ) from exc
            times.append(seg.t_start + (j + 1) * dt_sub)
            n_c.append(mean_number(rho))
            pe, pg = qubit_populations(rho)
            p_e_list.append(pe)
            p_g_list.append(pg)
            flags.append(seg.drive_on)
            trace_err.append(drift)
            min_eigs.append(min_eig)
        last_of_step = i + 1 == n_segments or schedule.segments[i + 1].step != seg.step
        if keep_snapshots and last_of_step:
            snapshots.append((seg.step, seg.t_start + seg.duration, rho.copy()))

    return Trajectory(
        times=np.asarray(times),
        n_c=np.asarray(n_c),
        p_e=np.asarray(p_e_list),
        p_g=np.asarray(p_g_list),
        drive_on=np.asarray(flags, dtype=bool),
        trace_err=np.asarray(trace_err),
        min_eig=np.asarray(min_eigs),
        snapshots=snapshots,
        propagators=paths,
    )
