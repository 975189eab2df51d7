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
drive), so exp(L dt), the one step matrix the solver builds, propagates
exactly up to floating point.

Real Hermitian coordinates
--------------------------
A Lindblad generator maps Hermitian matrices to Hermitian matrices, so in
the orthonormal Hermitian basis E_ii, (E_ij + E_ji)/sqrt(2),
i(E_ij - E_ji)/sqrt(2) it is a real matrix R = S L S^dag, with S unitary
and at most 2 nonzeros per row and per column (the coherence-vector form
of Gorini, Kossakowski & Sudarshan, J. Math. Phys. 17, 821 (1976)).
``liouvillian`` sums the entries of L from the nonzeros of its Kronecker
factors, sends each to the at most four entries of R it reaches, and
returns R as a :class:`Generator`, its nonzero entries: the one form of
the generator that the solver takes.  The state and every step matrix
live in these coordinates: the solver carries the real vector
x = S vec(rho), every step matrix is built from R and applied to x, and
rho = unvec(S^dag x) is formed only where a sample or a snapshot needs
it.  S and S^dag are applied as index gathers, each coordinate from the
vec entries of |i><j| and |j><i|.  So rho is Hermitian by construction,
and its trace is the sum of the diagonal coordinates x at the vec
indices of |i><i|.
A real dense product costs about a quarter of a complex one on half the
bytes.  exp(R dt) is a hand-written real degree-21 Taylor scaling and
squaring, scaled to the backward-error threshold theta_21 of Al-Mohy &
Higham (SIAM J. Sci. Comput. 33, 488 (2011)), not ``scipy.linalg.expm``:
on the real 1156 x 1156 drive-on matrix of the base preset scipy's
real-dtype path errs by about 1e-11 against the complex exponential of
L, while this kernel stays near 1e-13.  It takes no solve: 6 dense
products by Horner's rule in A^3, then the squarings, with at most two
dense arrays alive.  The kernel takes its operand by its entries: A^2
and A^3 are joins of entries with the rows they meet, summed by
``np.bincount``, and A and A^2 enter the polynomial only at their
entries, so A^3 is the one dense power.  A generator whose R is not
real to rounding does not preserve Hermiticity, and ``liouvillian``
rejects it with ValueError.  The module is numpy only: no scipy is
imported at run time.

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
R's entries, in 5 passes for either generator of the base preset, so no
graph library is imported.  Every step matrix is a list of (indices,
dense block) pairs, one per block, applied to x block by block: the drive-off one
holds 18 blocks and 100,104 entries at cutoff 17.  Nothing about the
model is assumed, so the split is exact for any parameters, zero rates
included.  The drive eps (c + c^dag) connects every sector, so the
drive-on generator is one component and one dense exponential.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, NumericalFailureError
from .observables import mean_number, qubit_populations, reduce_boson

__all__ = [
    "Generator",
    "liouvillian",
    "vec",
    "unvec",
    "propagator",
    "Trajectory",
    "evolve",
]

# Taylor coefficients c_k = 1/k!, k = 0..21, each correctly rounded, and
# theta_21: the largest 1-norm at which the degree-21 Taylor polynomial
# has a relative backward error of at most 2^-53 (Al-Mohy & Higham, SIAM
# J. Sci. Comput. 33, 488 (2011); derived in tests/test_solver.py).
_TAYLOR21 = tuple(1 / math.factorial(k) for k in range(22))
_THETA21 = 1.6237159502358214

# Rows of the Horner product X A^3 formed per GEMM, into one panel buffer
# that is then copied back over them.  96 rows of a 1156-wide operand take
# 0.85 MiB, under the 1 MiB mmap threshold cli.main sets.  A taller panel
# is faster and larger: one 1156^2 product taken 96, 289, 578 or 1156 rows
# per GEMM took 29.5, 27.8, 27.0 and 25.7 ms (OpenBLAS, 2 threads) and made
# OpenBLAS touch 1.7, 2.3, 3.2 and 4.9 MB of packing buffers, which stay
# resident, besides the panel itself.
_PANEL_ROWS = 96

# Rows of X @ X formed per GEMM in each squaring, straight into the second
# buffer: two halves of the base drive-on operand, whose 3.2 MB of packing
# is less than the Horner steps hold besides their two arrays.  The
# drive-off blocks, of at most 128 rows, square in one GEMM.
_SQUARING_ROWS = 578

# Largest imaginary part of S A S^dag, relative to A's largest entry,
# still taken for rounding.
_HERMITICITY_TOL = 1e-13

TRACE_RENORM_THRESHOLD = 1e-10
# Smallest eigenvalue a sampled state may have, so a run that exits 0
# leaves none below it.  A qubit rate of 1e20 GHz or more (gamma1 or
# gamma_phi) at cutoff 6 gives states with eigenvalues near -1e-6.
POSITIVITY_FLOOR = -1e-7


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stack a matrix."""
    return rho.reshape(-1, order="F")


def unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape((dim, dim), order="F")


@dataclass(frozen=True, eq=False)
class Generator:
    """A real square matrix by its nonzero entries: the generator R that
    :func:`liouvillian` returns, and each block of it that
    :func:`_blockwise` passes to a kernel.  ``rows``, ``cols`` and
    ``vals`` hold one entry per position, in row-major order.
    ``np.asarray(R)`` gives the dense matrix and ``R * c`` the matrix
    scaled by the number c."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return (self.dim, self.dim)

    @property
    def nnz(self) -> int:
        return len(self.vals)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a Generator has no dense array to share")
        A = np.zeros(self.shape, dtype=self.vals.dtype if dtype is None else dtype)
        A[self.rows, self.cols] = self.vals
        return A

    def __mul__(self, c) -> Generator:
        return Generator(self.dim, self.rows, self.cols, self.vals * c)


def _canonical(n: int, rows, cols, vals):
    """The entries (rows, cols, vals) of an n x n matrix in canonical
    form: one per position, in row-major order, each the sum of the
    entries given at its position (added in the order given), with the
    zero sums dropped."""
    keys, inv = np.unique(rows * n + cols, return_inverse=True)
    sums = np.bincount(inv, vals.real, len(keys)).astype(vals.dtype)
    if np.iscomplexobj(vals):
        sums.imag = np.bincount(inv, vals.imag, len(keys))
    keep = sums != 0
    return keys[keep] // n, keys[keep] % n, sums[keep]


def _kron(A: np.ndarray, B: np.ndarray):
    """The entries (rows, cols, vals) of kron(A, B), one per product of a
    nonzero of A and a nonzero of B."""
    ra, ca = np.nonzero(A)
    rb, cb = np.nonzero(B)
    m = B.shape[0]
    return (
        (ra[:, None] * m + rb).ravel(),
        (ca[:, None] * m + cb).ravel(),
        np.multiply.outer(A[ra, ca], B[rb, cb]).ravel(),
    )


def liouvillian(H: np.ndarray, channels: tuple) -> Generator:
    """The real generator R = S L S^dag (S from :func:`_hermitian_basis`)
    of the Liouvillian L on column-vectorized density matrices, as a
    :class:`Generator`: the operand of :func:`propagator`.  L is that of H
    and of the Lindblad ``channels``, (rate, collapse operator) pairs as
    ``model.dissipators`` returns them.  L is summed from the entries of
    the Kronecker products of its terms, and each of its entries reaches
    at most four entries of R, since S has at most two nonzeros per row
    and per column.  A generator that does not map
    Hermitian matrices to Hermitian matrices, such as that of a
    non-Hermitian H, has no real R and raises ValueError.  Overflow
    follows the caller's numpy floating-point settings; a non-finite R
    raises NumericalFailureError."""
    dim = H.shape[0]
    if H.shape != (dim, dim):
        raise DimensionError("Hamiltonian must be square")
    eye = np.eye(dim)
    terms = [_kron(eye, -1j * H), _kron(1j * H.T, eye)]
    for rate, x in channels:
        if x.shape != (dim, dim):
            raise DimensionError(
                f"dissipator channel shape {x.shape} does not match dim {dim}"
            )
        if rate == 0.0:
            continue
        xdx = x.conj().T @ x
        terms += [
            _kron(rate * x.conj(), x),
            _kron(eye, -0.5 * rate * xdx),
            _kron(-0.5 * rate * xdx.T, eye),
        ]
    n2 = dim * dim
    u, w, l = _canonical(n2, *map(np.concatenate, zip(*terms)))
    # R[p, q] = sum over L[u, w] of S[p, u] L[u, w] conj(S[q, w]); column u
    # of S holds own[u] at row u and other[partner[u]] at row partner[u]
    partner, own, other = _hermitian_basis(n2)
    at = np.stack((np.arange(n2), partner))
    col = np.stack((own, other[partner]))
    coef = col[:, None, u] * col[None, :, w].conj()
    keep = coef != 0
    rows, cols, vals = _canonical(
        n2,
        np.broadcast_to(at[:, None, u], coef.shape)[keep],
        np.broadcast_to(at[None, :, w], coef.shape)[keep],
        coef[keep] * np.broadcast_to(l, coef.shape)[keep],
    )
    if not np.isfinite(vals).all():
        raise NumericalFailureError("generator has non-finite entries")
    scale = np.abs(l).max(initial=0.0)
    if np.abs(vals.imag).max(initial=0.0) > _HERMITICITY_TOL * scale:
        raise ValueError("generator does not preserve Hermiticity")
    keep = vals.real != 0
    return Generator(n2, rows[keep], cols[keep], vals.real[keep])


def _hermitian_basis(n2: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unitary S from column-stacked vec(rho) to the coordinates of rho
    in the orthonormal Hermitian basis E_ii, (E_ij + E_ji)/sqrt(2) and
    i(E_ij - E_ji)/sqrt(2) (i < j), kept at the vec index of |i><j|, |i><j|
    and |j><i| respectively; real for Hermitian rho.  Returned as
    (partner, own, other): row v of S holds own[v] at column v and
    other[v] at column partner[v], the vec index of the transposed entry
    (other[v] = 0 where partner[v] = v, on the diagonal).  So
    S y = own y + other y[partner], and
    S^dag x = conj(own) x + conj(other[partner]) x[partner]."""
    n = math.isqrt(n2)
    if n * n != n2:
        raise DimensionError(f"superoperator dimension {n2} is not a square")
    v = np.arange(n2)
    i, j = v % n, v // n
    r = math.sqrt(0.5)
    own = np.where(i < j, r, np.where(i > j, 1j * r, 1.0))
    other = np.where(i < j, r, np.where(i > j, -1j * r, 0.0))
    return j + i * n, own, other


def _column_norms(A: Generator) -> np.ndarray:
    """The 1-norm of each column of A, summed in the order of A's entries."""
    return np.bincount(A.cols, np.abs(A.vals), A.dim)


def _norm1(A: Generator) -> float:
    """||A||_1 of a kernel operand; NumericalFailureError if not finite."""
    norm = _column_norms(A).max(initial=0.0)
    if not np.isfinite(norm):
        raise NumericalFailureError(f"step-matrix operand has 1-norm {norm}")
    return norm


def _squarings(norm: float) -> int:
    """The squarings s = max(0, ceil(log2(norm / theta_21))) that
    :func:`_expm_taylor21` runs on an operand of 1-norm ``norm``."""
    return max(0, math.ceil(math.log2(norm / _THETA21))) if norm > 0 else 0


def _error_bound(norm: float) -> float:
    """4 u norm + 1e-15, u = 2^-53: the bound on the largest entry error,
    against the exact exponential, of a step matrix whose blocks have
    1-norms of at most ``norm``, to which the tests hold the kernel
    against a ``np.longdouble`` Taylor series over cutoffs 3 to 6."""
    return 4 * 2.0**-53 * norm + 1e-15


def _product(L: Generator, R: Generator) -> np.ndarray:
    """The dense n x n product L @ R of two canonical generators, from
    their entries: every entry (i, j) of L is joined with every entry of
    row j of R, and one ``np.bincount`` over the positions (i, k) sums
    the products, in order of j."""
    n = L.dim
    # entry e = (i, j) of L meets the entries first[e] .. first[e] +
    # count[e] - 1 of R, which make up its row j
    indptr = np.searchsorted(R.rows, np.arange(n + 1))
    first, count = indptr[L.cols], np.diff(indptr)[L.cols]
    left = np.repeat(np.arange(L.nnz), count)
    right = np.arange(len(left)) + np.repeat(first - (np.cumsum(count) - count), count)
    return np.bincount(
        L.rows[left] * n + R.cols[right], L.vals[left] * R.vals[right], n * n
    ).astype(float, copy=False).reshape(n, n)


def _expm_taylor21(A: Generator) -> np.ndarray:
    """exp(A) for a real square :class:`Generator` A: the degree-21 Taylor
    polynomial T_21 with scaling and squaring, scaled by 2^-s (see
    :func:`_squarings`).  theta_21 bounds the relative backward error of
    T_21 by 2^-53 (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).

    A is put in canonical form first (see :func:`_canonical`), so
    duplicate entries are summed before its 1-norm is taken and every
    product adds its terms in one order, however the caller stored A.
    A^2 and A^3 are formed from entries (see :func:`_product`): A^2 from
    A's, A^3 from A^2's nonzeros and A's rows, so A^3 is the one dense
    power.  T_21 is evaluated by Horner's rule in A^3: with
    D_j = c_3j I + c_3j+1 A + c_3j+2 A^2 and c_k = 1/k!,
    X = c_21 A^3 + D_6, then X = X @ A^3 + D_j for j = 5, ..., 0, each D_j
    added at its entries, A^2 first and I last.  That is 6 dense products
    and no solve.  X is a polynomial in A, so it commutes with A^3, and
    each product is taken as X @ A^3, in place, ``_PANEL_ROWS`` rows of X
    at a time through one panel buffer.  A^2's rows and cols are freed once
    A^3 is formed, and A^3, the panel and the entries of A and A^2 once the
    Horner steps are done; only then is the second buffer allocated, into
    which each of the s squarings writes X @ X, ``_SQUARING_ROWS`` rows
    per GEMM.  So at most two dense n x n arrays are alive: A^3 and X,
    then X and the squaring buffer.  An A of non-finite 1-norm (a rate or
    frequency beyond the float range) raises NumericalFailureError."""
    c = _TAYLOR21
    n = A.dim
    A = Generator(n, *_canonical(n, A.rows, A.cols, A.vals))
    s = _squarings(_norm1(A))
    A = A * 2.0**-s
    A2 = _product(A, A).reshape(-1)
    pos = np.flatnonzero(A2 != 0)  # on a mask: several times faster here
    A2 = Generator(n, pos // n, pos % n, A2[pos])
    A3 = _product(A2, A)
    a2, a, at = A2.vals, A.vals, A.rows * n + A.cols
    del A, A2  # their rows and cols
    X = np.multiply(A3, c[21])
    flat = X.reshape(-1)
    panel = np.empty((min(_PANEL_ROWS, n), n))
    for j in range(6, -1, -1):
        if j < 6:
            for k in range(0, n, _PANEL_ROWS):
                rows = X[k : k + _PANEL_ROWS]
                rows[...] = np.matmul(rows, A3, out=panel[: len(rows)])
        # + D_j, at the entries of A^2, A and I in turn
        flat[pos] += c[3 * j + 2] * a2
        flat[at] += c[3 * j + 1] * a
        flat[:: n + 1] += c[3 * j]
    del A3, panel, pos, a2, a, at
    Y = np.empty_like(X)
    for _ in range(s):
        for k in range(0, n, _SQUARING_ROWS):
            np.matmul(X[k : k + _SQUARING_ROWS], X, out=Y[k : k + _SQUARING_ROWS])
        X, Y = Y, X
    return X


def _blockwise(R: Generator, kernel) -> list[tuple[np.ndarray, np.ndarray]]:
    """``kernel`` applied to each independent block of the real generator
    R: the real step matrix that advances the coordinates x = S vec(rho)
    (see :func:`_hermitian_basis`), as a list of (indices, block) pairs,
    one per connected component of R's sparsity pattern (its entries,
    taken as undirected edges).  The components are found by numpy label
    propagation: every pass lowers each label to the smallest label
    across any of its entries, then jumps each label to its label's
    label, until nothing changes; each label is then the smallest index
    of its component.  The components come in order of that index, the
    indices of each are ascending, and the block is the dense float64
    ``kernel`` of R's submatrix on them, passed as a :class:`Generator`
    of the block.  R has no entry between two components, so this is
    exact for any kernel that acts block by block on a block-diagonal
    matrix, such as a power series.  A complex R raises ValueError."""
    if np.iscomplexobj(R.vals):
        raise ValueError("step matrices take the real generator from liouvillian")
    n, rows, cols = R.dim, R.rows, R.cols
    labels = np.arange(n)  # each label is an index of its own component
    while True:
        lower = labels.copy()
        np.minimum.at(lower, rows, labels[cols])
        np.minimum.at(lower, cols, labels[rows])
        lower = lower[lower]
        if np.array_equal(lower, labels):
            break
        labels = lower
    # every label is now the smallest index of its component; sort the
    # indices and the entries by component, keeping their order within one
    order = np.argsort(labels, kind="stable")
    roots, starts = np.unique(labels[order], return_index=True)
    local = np.empty(n, dtype=np.intp)  # the index within the component
    local[order] = np.arange(n) - np.repeat(starts, np.diff(np.append(starts, n)))
    entries = np.argsort(labels[rows], kind="stable")
    cuts = np.searchsorted(labels[rows][entries], roots[1:])
    return [
        (idx, kernel(Generator(len(idx), local[rows[e]], local[cols[e]], R.vals[e])))
        for idx, e in zip(np.split(order, starts[1:]), np.split(entries, cuts))
    ]


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
    return _blockwise(R * dt, _expm_taylor21)


def _condition(
    x: np.ndarray, S_dag: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray, float, float]:
    """Renormalize drifting trace and police positivity of the state with
    real Hermitian coordinates x.  ``S_dag`` = (partner, a, b) maps them
    back to vec(rho) = a x + b x[partner] (see :func:`_hermitian_basis`).

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
    partner, a, b = S_dag
    rho = unvec(a * x + b * x[partner], n)
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
    ``propagators`` describes each step matrix exp(R dt) built, in build
    order: drive flag, sub-interval ``dt``, and the number of dense blocks
    of the step matrix and the size of the largest one, read off its list
    of blocks (1 block of the full size means one component); ``norm1``,
    the largest block's ||R dt||_1, and ``squarings``, the kernel's
    squarings summed over the blocks (see :func:`_squarings`), both from
    the column norms of R dt on each block's indices; ``error_bound``,
    the bound :func:`_error_bound` at ``norm1`` on the step matrix's
    largest entry error; and ``build_s``, the wall seconds of the
    :func:`propagator` call that built it.  ``generators_s`` sums the
    wall seconds of the :func:`liouvillian` calls, ``step_matrices_s``
    those of the step-matrix builds with their ``propagators`` entries.
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
    generators_s: float = 0.0
    step_matrices_s: float = 0.0

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
    segments: tuple,
    rho0: np.ndarray,
    H_on: np.ndarray,
    H_off: np.ndarray,
    channels: tuple,
    samples_per_segment: int = 10,
) -> Trajectory:
    """Propagate through ``segments``, the schedule's ``model.Segment``s
    in time order, sampling observables on the way; ``channels`` are the
    Lindblad (rate, operator) pairs of :func:`liouvillian`.  This is the
    one driver of the state: a single interval of constant generator is a
    one-segment schedule.

    Each segment uses the generator built from H_on or H_off and is
    subdivided into ``samples_per_segment`` equal sub-intervals; the state
    is recorded after each one.  The state is carried as its real
    coordinates x = S vec(rho) in the Hermitian basis (the Hermitian part
    of rho0), and every step matrix acts on them.  The step matrix of a
    sub-interval is exp(R dt) from :func:`propagator` (looked up when
    called, so a wrapper installed in its place runs), with R from
    :func:`liouvillian`, both built once per (drive flag, sub-interval)
    pair, so a run builds two step matrices regardless of step count: one
    dense block for the drive-on generator, and one small dense block per
    real-coordinate block of the drive-off generator (see
    :func:`propagator`).  The blocks of each generator are found once, by
    the builder, and ``propagators`` reads them off the step matrix.

    It runs in two passes.  The first builds the step matrix of each
    distinct (drive flag, sub-interval), in schedule order.  The second
    conditions rho0, takes the t=0 sample and steps every segment with
    the matrices built.  The order changes no number.  It keeps the
    process's first eigenvalue call, which maps about 1.1 MB of LAPACK
    code, out of the drive-on build, where a run's RSS peaks.

    Floating-point errors follow the caller's numpy settings.  A
    NumericalFailureError or FloatingPointError in building a generator
    or a step matrix or in stepping the state, or an ``error_bound``
    above -POSITIVITY_FLOOR, is raised as NumericalFailureError naming
    the segment and walk step.  A failed build names the first segment
    that uses its step matrix and is raised before any step is taken: a
    failing drive-off build of a preset's schedule fails the walk before
    its first drive-on segment is stepped.  A failure of the t=0 sample
    is raised unnamed.
    """
    if samples_per_segment < 1:
        raise ValueError("samples_per_segment must be >= 1")
    propagators: dict[tuple[bool, float], list] = {}
    paths: list[dict] = []
    generators_s = step_matrices_s = 0.0
    samples: list[tuple] = []
    snapshots: list[tuple[int, float, np.ndarray]] = []
    partner, own, other = _hermitian_basis(rho0.size)
    S_dag = (partner, own.conj(), other[partner].conj())
    v0 = vec(rho0)

    def sample(t, drive_on, rho, drift, min_eig):
        pe, pg = qubit_populations(rho)
        top = reduce_boson(rho)[-1, -1].real
        samples.append((t, mean_number(rho), pe, pg, drive_on, drift, min_eig, top))

    first_use: dict[tuple[bool, float], int] = {}  # key -> first segment using it
    for i, seg in enumerate(segments):
        first_use.setdefault((seg.drive_on, seg.duration / samples_per_segment), i)

    try:
        for (drive_on, dt_sub), i in first_use.items():
            t_generator = time.perf_counter()
            R = liouvillian(H_on if drive_on else H_off, channels)
            t_build = time.perf_counter()
            P = propagators[drive_on, dt_sub] = propagator(R, dt_sub)
            build_s = time.perf_counter() - t_build
            sums = _column_norms(R * dt_sub)
            norms = [sums[idx].max(initial=0.0) for idx, _ in P]
            norm1 = float(max(norms))
            bound = _error_bound(norm1)
            if bound > -POSITIVITY_FLOOR:  # too coarse to hold positivity
                raise NumericalFailureError(
                    f"step-matrix error bound {bound:.3e} exceeds the "
                    f"positivity floor {-POSITIVITY_FLOOR:g}")
            paths.append({"drive_on": drive_on, "dt": dt_sub, "blocks": len(P),
                          "largest_block": max(len(idx) for idx, _ in P),
                          "norm1": norm1,
                          "squarings": sum(map(_squarings, norms)),
                          "error_bound": bound,
                          "build_s": build_s})
            generators_s += t_build - t_generator
            step_matrices_s += time.perf_counter() - t_build

        i = None  # the t=0 sample belongs to no segment
        x, rho, drift, min_eig = _condition((own * v0 + other * v0[partner]).real, S_dag)
        sample(0.0, segments[0].drive_on if segments else False, rho, drift, min_eig)

        for i, seg in enumerate(segments):
            dt_sub = seg.duration / samples_per_segment
            P = propagators[seg.drive_on, dt_sub]
            for j in range(samples_per_segment):
                x, rho, drift, min_eig = _condition(_apply(P, x), S_dag)
                sample(seg.t_start + (j + 1) * dt_sub, seg.drive_on, rho, drift, min_eig)
            if i + 1 == len(segments) or segments[i + 1].step != seg.step:
                snapshots.append((seg.step, seg.t_start + seg.duration, rho))
    except (NumericalFailureError, FloatingPointError) as exc:
        if i is None:
            raise
        raise NumericalFailureError(
            f"propagation failed in segment {i} (step {segments[i].step}): {exc}"
        ) from exc

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
        generators_s=generators_s,
        step_matrices_s=step_matrices_s,
    )
