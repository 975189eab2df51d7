"""Hilbert-space primitives: ladder and qubit operators, tensor products,
coherent/phase states, displacement and parity.

All operators are dense complex numpy arrays; at the dimensions used here
(composite spaces up to a few hundred) dense storage is simplest and the
solver module sparsifies where it pays off (superoperators).  Tensor
ordering is fixed as qubit (x) boson everywhere in the package.

Qubit basis convention: ``|e> = (1, 0)``, ``|g> = (0, 1)``, so that
``sigma_z |e> = +|e>``.  ``sigma_plus``/``sigma_minus`` follow the doubled
convention ``sigma_x +- i sigma_y`` (single entry of magnitude 2); the
unit-normalized ladder pair used inside Hamiltonians is ``qubit_ladder()``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .errors import DimensionError

__all__ = [
    "annihilation",
    "number_op",
    "identity",
    "QubitOperators",
    "qubit_operators",
    "qubit_ladder",
    "tensor",
    "basis_state",
    "coherent_state",
    "phase_state",
    "displacement",
    "parity",
    "is_hermitian",
]


def annihilation(dim: int) -> np.ndarray:
    """Bosonic annihilation operator with <n-1|c|n> = sqrt(n), truncated at dim."""
    if dim < 2:
        raise DimensionError(f"annihilation operator needs dim >= 2, got {dim}")
    c = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    c[ns - 1, ns] = np.sqrt(ns)
    return c


def number_op(dim: int) -> np.ndarray:
    if dim < 1:
        raise DimensionError(f"number operator needs dim >= 1, got {dim}")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def identity(dim: int) -> np.ndarray:
    return np.eye(dim, dtype=complex)


@dataclass(frozen=True)
class QubitOperators:
    sigma_x: np.ndarray
    sigma_y: np.ndarray
    sigma_z: np.ndarray
    sigma_plus: np.ndarray
    sigma_minus: np.ndarray


def qubit_operators() -> QubitOperators:
    """Pauli operators plus the doubled ladder pair sigma_x +- i sigma_y."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    return QubitOperators(sx, sy, sz, sx + 1j * sy, sx - 1j * sy)


def qubit_ladder() -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized (raise, lower) pair: |e><g| and |g><e|.

    These carry the matrix elements that make the Jaynes-Cummings coupling
    eta*(c^dag lower + c raise) produce the dispersive shift eta^2/detuning;
    the doubled sigma_plus/sigma_minus of :func:`qubit_operators` would
    quadruple it.
    """
    raise_op = np.array([[0, 1], [0, 0]], dtype=complex)
    return raise_op, raise_op.conj().T


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; composite operators are built as qubit (x) boson."""
    return np.kron(a, b)


def basis_state(dim: int, n: int) -> np.ndarray:
    if not 0 <= n < dim:
        raise DimensionError(f"basis index {n} outside [0, {dim})")
    v = np.zeros(dim, dtype=complex)
    v[n] = 1.0
    return v


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


def phase_state(phi: float, dim: int) -> np.ndarray:
    """Uniform-magnitude phase state exp(i n phi)/sqrt(dim)."""
    if dim < 1:
        raise DimensionError(f"phase state needs dim >= 1, got {dim}")
    return np.exp(1j * phi * np.arange(dim)) / np.sqrt(dim)


def displacement(alpha: complex, dim: int) -> np.ndarray:
    """D(alpha) = exp(alpha c^dag - alpha* c) via matrix exponential."""
    if dim < 2:
        raise DimensionError(f"displacement needs dim >= 2, got {dim}")
    c = annihilation(dim)
    return expm(alpha * c.conj().T - np.conj(alpha) * c)


def parity(dim: int) -> np.ndarray:
    """Photon-number parity (-1)^n."""
    if dim < 2:
        raise DimensionError(f"parity needs dim >= 2, got {dim}")
    return np.diag((-1.0 + 0j) ** np.arange(dim))


def is_hermitian(a: np.ndarray, tol: float = 1e-12) -> bool:
    scale = max(np.linalg.norm(a), 1.0)
    return bool(np.linalg.norm(a - a.conj().T) <= tol * scale)
