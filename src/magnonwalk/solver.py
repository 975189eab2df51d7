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
independent cross-check.  For a linear constant-coefficient system one
RK4 sub-step of length h multiplies by the degree-4 Taylor polynomial
T4(hL) = 1 + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24, so n sub-steps are the
step matrix T4(hL)^n, computed by binary powering in about 2 log2 n
products (the Taylor and scaling-and-squaring family of Moler & Van
Loan, SIAM Rev. 45, 3 (2003)).  It is still Taylor-4, not Padé, so it
stays independent of the expm reference, and it preserves the trace
identically because vec(1)^T L = 0.  Both methods build their step matrix
on the same blocks (below), in the same real coordinates.

Real Hermitian coordinates
--------------------------
A Lindblad generator maps Hermitian matrices to Hermitian matrices, so in
the orthonormal Hermitian basis E_ii, (E_ij + E_ji)/sqrt(2),
i(E_ij - E_ji)/sqrt(2) it is a real matrix R = S L S^dag, with S unitary
and at most 2 nonzeros per row (the coherence-vector form of Gorini,
Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976)).
``liouvillian`` builds L once and returns this R, the one form of the
generator that the solver takes.  The state and every step matrix live
in these coordinates: the solver carries the real vector x = S vec(rho),
every step matrix is built from R and applied to x, and
rho = unvec(S^dag x) is formed only where a sample or a snapshot needs
it.  So rho is Hermitian by construction, and its trace
is the sum of the diagonal coordinates x at the vec indices of |i><i|.
A real dense product costs about a quarter of a complex one on half the
bytes.  exp(R dt) is a hand-written real Padé-13
scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 1179
(2005)), not ``scipy.linalg.expm``: on the real 1156 x 1156 drive-on
matrix of the base preset scipy's real-dtype path errs by about 1e-11
against the complex exponential of L, while this kernel stays near
1e-13.  A generator whose R is not real to rounding does not preserve
Hermiticity, and ``liouvillian`` rejects it with ValueError.

Block-wise exponential
----------------------
While the drive is off, the Hamiltonian and all three collapse operators
conserve the excitation number N = c^dag c + |e><e|, so L couples vec
entries |i><j| only within one k = N_i - N_j (Albert & Jiang, PRA 89,
022118 (2014)).  The real coordinates of |i><j| and |j><i| mix sectors k
and -k, which merge into one real block: at cutoff 17 the drive-off R has
18 blocks, the largest 128 x 128 (35 sectors of at most 66 in vec
coordinates).  ``propagator`` finds these blocks from R itself: the
connected components of R's sparsity pattern are index sets that R never
couples, so up to a permutation R is block diagonal, and the exponential
of a block-diagonal matrix is the block-diagonal matrix of the blocks'
exponentials.  The components are found by numpy label propagation over
R's stored entries, in 5 passes for either generator of the base preset,
so no graph library is imported.  Every step matrix is a list of (indices, dense block)
pairs, one per block, applied to x block by block: the drive-off one
holds 18 blocks and 100,104 entries at cutoff 17.  Nothing about the
model is assumed, so the split is exact for any parameters, zero rates
included.  The drive eps (c + c^dag) connects every sector, so the
drive-on generator is one component and one dense exponential.  The RK4
step matrix is block diagonal in the same blocks, because a polynomial in
R is, and is built block by block the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DimensionError, NumericalFailureError
from .model import DissipatorSpec, PulseSchedule
from .observables import mean_number, qubit_populations, reduce_boson

__all__ = [
    "DT_MAX_DEFAULT",
    "METHODS",
    "liouvillian",
    "vec",
    "unvec",
    "propagator",
    "rk4_propagator",
    "Trajectory",
    "evolve",
]

# RK4 sub-step ceiling (ns).  The spectral radius of the Liouvillians here
# is about 440 rad/ns (base) and 930 rad/ns (realistic).  RK4 is stable up
# to h*radius = 2*sqrt(2) on the imaginary axis but not accurate there: at
# 1e-3 ns (h*radius ~ 0.44) a base segment loses positivity.  1e-5 ns keeps
# h*radius below 0.01; since the step matrix is powered, the ~1e5 sub-steps
# of a segment cost a few dozen matrix products.
DT_MAX_DEFAULT = 1e-5

METHODS = ("expm", "rk4")  # integration methods, see _builder

# Padé-13 coefficients b_0..b_13, and theta_13: the largest 1-norm at
# which the unscaled approximant is accurate to double precision
# (Higham 2005).
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0,
    670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
    960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152

# Largest imaginary part of S A S^dag, relative to A's largest entry,
# still taken for rounding.
_HERMITICITY_TOL = 1e-13

TRACE_RENORM_THRESHOLD = 1e-10
POSITIVITY_FLOOR = -1e-5


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


def liouvillian(H: np.ndarray, diss: DissipatorSpec) -> sp.csr_matrix:
    """The real generator R = S L S^dag (S from :func:`_hermitian_basis`)
    of the Liouvillian L on column-vectorized density matrices, as a
    float64 CSR matrix: the operand of :func:`propagator` and
    :func:`rk4_propagator`.  A generator that does not map Hermitian
    matrices to Hermitian matrices, such as that of a non-Hermitian H, has
    no real R and raises ValueError.  Overflow follows the caller's numpy
    floating-point settings."""
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
    S = _hermitian_basis(dim * dim)
    R = sp.csr_matrix(S @ L @ S.conj().T)
    scale = abs(L).max()
    if np.abs(R.data.imag).max(initial=0.0) > _HERMITICITY_TOL * scale:
        raise ValueError("generator does not preserve Hermiticity")
    R = sp.csr_matrix(R.real)
    R.eliminate_zeros()
    return R


def _hermitian_basis(n2: int) -> sp.csr_matrix:
    """The unitary S from column-stacked vec(rho) to the coordinates of rho
    in the orthonormal Hermitian basis E_ii, (E_ij + E_ji)/sqrt(2) and
    i(E_ij - E_ji)/sqrt(2) (i < j), kept at the vec index of |i><j|, |i><j|
    and |j><i| respectively.  Real for Hermitian rho; at most 2 nonzeros
    per row."""
    n = math.isqrt(n2)
    if n * n != n2:
        raise DimensionError(f"superoperator dimension {n2} is not a square")
    v = np.arange(n2)
    i, j = v % n, v // n
    t = j + i * n  # vec index of |j><i|
    r = math.sqrt(0.5)
    off = i != j
    own = np.where(off, np.where(i < j, r, 1j * r), 1.0)
    other = np.where(i < j, r, -1j * r)[off]
    rows = np.concatenate((v, v[off]))
    cols = np.concatenate((v, t[off]))
    return sp.csr_matrix((np.concatenate((own, other)), (rows, cols)), shape=(n2, n2))


def _expm_pade13(A) -> np.ndarray:
    """exp(A) for a real square A, sparse or dense: the [13/13] Padé
    approximant with scaling and squaring (Higham, SIAM J. Matrix Anal.
    Appl. 26, 1179 (2005)), scaled by 2^-s with
    s = max(0, ceil(log2(||A||_1 / theta_13))).

    A stays sparse: A^2 is formed from it, and the outer A @ (...) of U is
    a sparse-by-dense product.  A^2 is dense only for the two products
    A^4 = A^2 A^2 and A^6 = A^4 A^2; in the four Padé sums it enters by
    its stored entries (one per position: a sparse product sums its
    terms), each added at its place.  The multiples of A^4 and A^6 pass
    through one work buffer W, and U and V are accumulated in place, so
    at most five dense n x n arrays are alive at once: A^4, A^6, W, U and
    V.  Five is the floor here, since the solve holds five too: U, V, the
    two copies of them that LAPACK factors and overwrites, and the
    result.  The squarings alternate between two buffers.  Each sum takes
    the same terms in the same order as the plain expression
    b13 A^6 + b11 A^4 + b9 A^2 and its kin, so the result is bit for bit
    that of the plain expressions.  A is put in canonical form first, on
    a copy, so duplicate entries are summed before its 1-norm is taken
    and the products add their terms in one order, however the caller
    stored A.  An A of non-finite 1-norm (a rate or frequency beyond the
    float range) raises NumericalFailureError."""
    b = _PADE13
    A = sp.csr_matrix(A, copy=True)
    A.sum_duplicates()
    n = A.shape[0]
    norm = abs(A).sum(axis=0).max()
    if not np.isfinite(norm):
        raise NumericalFailureError(f"step-matrix operand has 1-norm {norm}")
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0 else 0
    A = A * 2.0**-s
    A2 = (A @ A).tocoo()
    rows, cols, a2 = A2.row, A2.col, A2.data
    A2 = A2.toarray()
    A4 = A2 @ A2
    A6 = A4 @ A2
    del A2
    W = np.empty_like(A6)

    def pade_sum(c6, c4, c2, d6, d4, d2, d0):
        """A^6 (c6 A^6 + c4 A^4 + c2 A^2) + d6 A^6 + d4 A^4 + d2 A^2 + d0 I,
        summed left to right."""
        out = np.multiply(A4, c4)
        np.add(np.multiply(A6, c6, out=W), out, out=W)
        W[rows, cols] += c2 * a2
        np.matmul(A6, W, out=out)
        for c, M in ((d6, A6), (d4, A4)):
            np.multiply(M, c, out=W)
            out += W
        out[rows, cols] += d2 * a2
        out.flat[:: n + 1] += d0
        return out

    U = pade_sum(*b[13::-2])
    V = pade_sum(*b[12::-2])
    del A4, A6, W
    U = A @ U
    V -= U  # V - U
    U *= 2.0
    U += V  # V + U
    E = np.linalg.solve(V, U)
    del U, V
    F = np.empty_like(E)
    for _ in range(s):
        np.matmul(E, E, out=F)
        E, F = F, E
    return E


def _blockwise(R, kernel) -> list[tuple[np.ndarray, np.ndarray]]:
    """``kernel`` applied to each independent block of the real generator
    R: the real step matrix that advances the coordinates x = S vec(rho)
    (see :func:`_hermitian_basis`), as a list of (indices, block) pairs,
    one per connected component of R's sparsity pattern (its stored
    entries, taken as undirected edges).  The components are found by
    numpy label propagation: every pass lowers each label to the smallest
    label across any of its entries, then jumps each label to its
    label's label, until nothing changes; each label is then the smallest
    index of its component.  The components come in order of that index,
    the indices of each are ascending, and the block is the dense float64
    ``kernel`` of R's submatrix on them, passed as a real CSR matrix.  R
    has no entry between two components, so this is exact for any kernel
    that acts block by block on a block-diagonal matrix, such as a power
    series.  A complex R raises ValueError."""
    if np.iscomplexobj(R):
        raise ValueError("step matrices take the real generator from liouvillian")
    R = sp.csr_matrix(R)
    n = R.shape[0]
    rows = np.repeat(np.arange(n), np.diff(R.indptr))
    cols = R.indices
    labels = np.arange(n)  # each label is an index of its own component
    while True:
        lower = labels.copy()
        np.minimum.at(lower, rows, labels[cols])
        np.minimum.at(lower, cols, labels[rows])
        lower = lower[lower]
        if np.array_equal(lower, labels):
            break
        labels = lower
    # every label is now the smallest index of its component
    indices = [np.flatnonzero(labels == root) for root in np.unique(labels)]
    return [(idx, kernel(R[idx[:, None], idx])) for idx in indices]


def _apply(P: list, x: np.ndarray) -> np.ndarray:
    """The step matrix P from :func:`_blockwise` applied to coordinates x."""
    y = np.empty_like(x)
    for idx, block in P:
        y[idx] = block @ x[idx]
    return y


def propagator(R, dt: float) -> list:
    """The real step matrix exp(R dt) of the generator R from
    :func:`liouvillian`, one dense block per independent block of R (see
    :func:`_blockwise`).  It advances the real coordinates
    x = S vec(rho), and S^dag exp(R dt) S equals the dense exponential of
    L dt to rounding, since exp(diag(B_1, B_2, ...)) =
    diag(exp B_1, exp B_2, ...) and exp(S A S^dag) = S exp(A) S^dag.
    Overflow follows the caller's numpy floating-point settings; under
    numpy's defaults a non-finite R dt raises NumericalFailureError.
    """
    return _blockwise(R * dt, _expm_pade13)


def rk4_propagator(R, dt: float, dt_max: float = DT_MAX_DEFAULT) -> list:
    """The RK4 step matrix over dt: n = ceil(dt / dt_max) fixed sub-steps
    of h = dt / n, each the Taylor polynomial T4(hR), so T4(hR)^n, built
    block by block like :func:`propagator` and applied the same way.
    Overflow follows the caller's numpy floating-point settings; under
    numpy's defaults it leaves non-finite entries, which evolve rejects."""
    n_sub = max(1, math.ceil(dt / dt_max))

    def taylor4_power(A):
        A = A.toarray()
        eye = np.eye(len(A))
        T = eye + A @ (eye + A / 2 @ (eye + A / 3 @ (eye + A / 4)))
        return np.linalg.matrix_power(T, n_sub)

    return _blockwise(R * (dt / n_sub), taylor4_power)


def _builder(method: str, dt_max: float):
    """The step-matrix builder (R, dt) -> P for one of :data:`METHODS`;
    ``propagator`` is looked up at call time, so a wrapper of it runs."""
    if method == "expm":
        return propagator
    if method == "rk4":
        return lambda R, dt: rk4_propagator(R, dt, dt_max)
    raise ValueError(f"unknown method {method!r}; use one of {', '.join(METHODS)}")


def _condition(
    x: np.ndarray, S_dag: sp.csr_matrix
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Renormalize drifting trace and police positivity of the state with
    real Hermitian coordinates x; ``S_dag`` maps them back to vec(rho).

    Returns the repaired coordinates, the density matrix they give, the
    trace drift |Tr rho - 1| seen before the repair (above
    TRACE_RENORM_THRESHOLD the state was renormalized) and the smallest
    eigenvalue of the repaired state.  The trace is the sum of the
    diagonal coordinates, and rho is Hermitian by construction.  A
    non-finite coordinate raises NumericalFailureError.
    """
    if not np.isfinite(x).all():
        raise NumericalFailureError("state has non-finite coordinates")
    n = math.isqrt(len(x))
    tr = x[:: n + 1].sum()  # the vec index of |i><i| is i (n + 1)
    drift = abs(tr - 1.0)
    if drift > TRACE_RENORM_THRESHOLD:
        if abs(tr) < 1e-6:
            raise NumericalFailureError(f"state trace collapsed to {tr:.3e}")
        x = x / tr
    rho = unvec(S_dag @ x, n)
    min_eig = float(np.linalg.eigvalsh(rho)[0])
    if min_eig < POSITIVITY_FLOOR:
        raise NumericalFailureError(
            f"density matrix lost positivity (min eigenvalue {min_eig:.3e})"
        )
    return x, rho, drift, min_eig


@dataclass
class Trajectory:
    """Sampled observables plus per-step state snapshots.

    ``times`` are strictly increasing and include the t=0 sample;
    ``snapshots`` holds one (step, time, rho) triple per completed walk
    step; the solver carries the state in real Hermitian coordinates and
    forms each rho from them only for a sample or a snapshot.
    ``propagators`` describes each real step matrix built (exp(R dt) or
    the powered RK4 polynomial), in build order: drive flag, sub-interval
    ``dt``, and the number of dense blocks of the step matrix and the size
    of the largest one, read off its list of blocks (1 block of the full
    size means the generator is one component).
    ``trace_err`` is the trace drift of each sample before ``_condition``
    repaired it, ``min_eig`` the smallest eigenvalue after and
    ``top_fock`` the population of the top Fock level (the last diagonal
    entry of the reduced mode state); :meth:`health` sums them up.
    """

    times: np.ndarray
    n_c: np.ndarray
    p_e: np.ndarray
    p_g: np.ndarray
    drive_on: np.ndarray  # bool per sample
    trace_err: np.ndarray
    min_eig: np.ndarray
    top_fock: np.ndarray  # population of the top Fock level
    snapshots: list[tuple[int, float, np.ndarray]] = field(default_factory=list)
    propagators: list[dict] = field(default_factory=list)

    def health(self) -> dict:
        """Worst case over the samples: the largest trace drift before
        repair, the number of samples renormalized, the smallest
        eigenvalue and the largest population of the top Fock level (how
        much of the state the cutoff clips)."""
        return {
            "max_trace_drift": float(self.trace_err.max()),
            "renormalizations": int(
                np.count_nonzero(self.trace_err > TRACE_RENORM_THRESHOLD)
            ),
            "min_eigenvalue": float(self.min_eig.min()),
            "max_top_fock_population": float(self.top_fock.max()),
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
) -> Trajectory:
    """Propagate through the schedule, sampling observables on the way.
    This is the one driver of the state: a single interval of constant
    generator is a one-segment schedule.

    Each segment uses the generator built from H_on or H_off and is
    subdivided into ``samples_per_segment`` equal sub-intervals; the state
    is recorded after each one.  The state is carried as its real
    coordinates x = S vec(rho) in the Hermitian basis (the Hermitian part
    of rho0), and every step matrix acts on them.  The step matrix of a
    sub-interval is exp(R dt) for ``method="expm"`` and the powered RK4
    polynomial T4(hR)^n for ``method="rk4"`` (sub-steps h <= ``dt_max``),
    with R from :func:`liouvillian`.  Either is cached per (drive flag,
    sub-interval) pair, so a run builds two step matrices regardless of
    step count: one dense block for the drive-on generator, and one small
    dense block per real-coordinate block of the drive-off generator (see
    :func:`propagator`).  The blocks of each generator are found once, by
    the builder, and ``propagators`` reads them off the step matrix.
    Floating-point errors follow the caller's numpy settings.  A
    NumericalFailureError, FloatingPointError or OverflowError in building
    a step matrix or in stepping the state is raised again as
    NumericalFailureError naming the segment and walk step.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    build = _builder(method, dt_max)
    generators: dict[bool, sp.csr_matrix] = {}  # keyed by drive flag
    propagators: dict[tuple[bool, float], list] = {}
    paths: list[dict] = []
    samples: list[tuple] = []
    snapshots: list[tuple[int, float, np.ndarray]] = []
    S = _hermitian_basis(rho0.size)
    S_dag = sp.csr_matrix(S.conj().T)

    def sample(t, drive_on, rho, drift, min_eig):
        pe, pg = qubit_populations(rho)
        top = reduce_boson(rho)[-1, -1].real
        samples.append((t, mean_number(rho), pe, pg, drive_on, drift, min_eig, top))

    x, rho, drift, min_eig = _condition((S @ vec(rho0)).real, S_dag)
    first_flag = schedule.segments[0].drive_on if schedule.segments else False
    sample(0.0, first_flag, rho, drift, min_eig)

    n_segments = len(schedule.segments)
    for i, seg in enumerate(schedule.segments):
        dt_sub = seg.duration / samples_per_segment
        key = (seg.drive_on, dt_sub)
        try:
            if key not in propagators:
                if seg.drive_on not in generators:
                    generators[seg.drive_on] = liouvillian(
                        H_on if seg.drive_on else H_off, diss
                    )
                P = propagators[key] = build(generators[seg.drive_on], dt_sub)
                paths.append({"drive_on": seg.drive_on, "dt": dt_sub, "blocks": len(P),
                              "largest_block": max(len(idx) for idx, _ in P)})
            P = propagators[key]
            for j in range(samples_per_segment):
                x, rho, drift, min_eig = _condition(_apply(P, x), S_dag)
                sample(seg.t_start + (j + 1) * dt_sub, seg.drive_on, rho, drift, min_eig)
        except (NumericalFailureError, FloatingPointError, OverflowError) as exc:
            raise NumericalFailureError(
                f"propagation failed in segment {i} (step {seg.step}): {exc}"
            ) from exc
        last_of_step = i + 1 == n_segments or schedule.segments[i + 1].step != seg.step
        if last_of_step:
            snapshots.append((seg.step, seg.t_start + seg.duration, rho))

    times, n_c, p_e, p_g, flags, trace_err, min_eigs, top_fock = map(
        np.asarray, zip(*samples)
    )
    return Trajectory(
        times=times,
        n_c=n_c,
        p_e=p_e,
        p_g=p_g,
        drive_on=flags,
        trace_err=trace_err,
        min_eig=min_eigs,
        top_fock=top_fock,
        snapshots=snapshots,
        propagators=paths,
    )
