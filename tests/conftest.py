"""Oracles that the tests hold the package to: the fixed-step RK4 step
matrix for the Taylor-21 step matrices, and for the phase observables the
direct-summation phase distribution and the first moment of a
distribution on its grid; a fresh interpreter on the package source,
for what only a new process shows (its imports, its warnings, its RSS);
and the ``solver.Generator`` of a dense matrix's nonzero entries, the one
operand type of the step-matrix kernel.

For a linear constant-coefficient system one RK4 sub-step of length h
multiplies by the degree-4 Taylor polynomial
T4(hR) = 1 + hR + (hR)^2/2 + (hR)^3/6 + (hR)^4/24, so n sub-steps are the
step matrix T4(hR)^n, computed by binary powering in about 2 log2 n
products (the Taylor and scaling-and-squaring family of Moler & Van Loan,
SIAM Rev. 45, 3 (2003)).  It is a fixed-step product of Taylor-4
polynomials, not the kernel's degree-21 polynomial scaled by 2^-s, so it
stays independent of ``solver.propagator``, and it preserves the trace
identically because the trace coordinates annihilate R.  A test that runs
it through ``evolve`` installs it with
``monkeypatch.setattr(solver, "propagator", rk4_propagator)``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magnonwalk import solver

# Largest ||h R||_1 of one RK4 sub-step h; ||R||_1 bounds the spectral
# radius.  RK4 is stable to h*radius = 2*sqrt(2) but a base segment loses
# positivity near 0.44.  Two walk steps of either preset agree with expm in
# n_c to 4e-11..5e-10 for 0.002..0.006 (the rounding floor of the powering)
# and to 2.2e-9 at 0.01 on realistic.
_RK4_SUBSTEP_NORM = 0.004


def _rk4_propagator(R, dt: float) -> list:
    """The RK4 step matrix over dt: n = max(1, ceil(||R dt||_1 / 0.004))
    sub-steps of h = dt / n, one n for all blocks, each the Taylor
    polynomial T4(hR); so T4(hR)^n, built and applied block by block like
    ``solver.propagator``.  A non-finite R dt raises NumericalFailureError;
    under numpy's defaults an overflowing polynomial leaves non-finite
    entries, which evolve rejects."""
    n_sub = max(1, math.ceil(solver._norm1(R * dt) / _RK4_SUBSTEP_NORM))

    def taylor4_power(A):
        A = np.asarray(A)
        eye = np.eye(len(A))
        T = eye + A @ (eye + A / 2 @ (eye + A / 3 @ (eye + A / 4)))
        return np.linalg.matrix_power(T, n_sub)

    return solver._blockwise(R * (dt / n_sub), taylor4_power)


def _entries(A) -> solver.Generator:
    """The dense real matrix A as a ``solver.Generator`` of its nonzero
    entries, in row-major order: the one operand type of the step-matrix kernel."""
    rows, cols = np.nonzero(A)
    return solver.Generator(len(A), rows, cols, A[rows, cols])


@pytest.fixture(scope="session")
def entries():
    """Converts a dense real matrix to a ``solver.Generator`` of its
    nonzero entries."""
    return _entries


@pytest.fixture(scope="session")
def rk4_propagator():
    """The Taylor-4 step-matrix builder, with the signature of
    ``solver.propagator``."""
    return _rk4_propagator


def _phase_dist_oracle(state, M):
    """Direct summation oracle: P(phi_k) = |<phi_k|psi>|^2 with explicit loops."""
    dim = len(state)
    p = []
    for k in range(M):
        phi = -math.pi + 2 * math.pi * k / M
        amp = 0j
        for n in range(dim):
            amp += complex(math.cos(n * phi), -math.sin(n * phi)) * state[n]
        p.append(abs(amp) ** 2 / M)
    return np.array(p)


@pytest.fixture(scope="session")
def phase_dist_oracle():
    """The phase distribution of a pure state by direct summation."""
    return _phase_dist_oracle


def _grid_holevo(dist) -> tuple[float, float]:
    """Sharpness and Holevo deviation from the first moment of a phase
    distribution on its grid, sum_k p_k exp(i phi_k): the oracle for
    ``sharpness_holevo``, which reads the moment off the mode state."""
    sharp = float(abs(np.sum(dist.p * np.exp(1j * dist.phi))))
    return sharp, float(np.sqrt(1.0 / sharp**2 - 1.0))


@pytest.fixture(scope="session")
def grid_holevo():
    """(sharpness, sigma_H) of a ``PhaseDistribution`` from its grid."""
    return _grid_holevo


def _fresh_python(*args, env_overrides=None) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter with ``src`` first on
    ``PYTHONPATH``, as a user starts it; its output is captured as text and
    its exit code left to the caller.  ``env_overrides`` maps a variable
    name to its value in the child, or to None to remove it there; without
    it the child inherits this process's environment."""
    env = dict(os.environ)
    for name, value in (env_overrides or {}).items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    src = Path(__file__).resolve().parents[1] / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), *filter(None, [env.get("PYTHONPATH")])]
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, check=False
    )


@pytest.fixture(scope="session")
def fresh_python():
    """Runs ``python *args`` in a fresh interpreter on the package source."""
    return _fresh_python
