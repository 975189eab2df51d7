"""Discrete-time quantum walk of a driven collective NV-ensemble mode
(quasimagnon) coupled to a superconducting flux-qubit coin.

The walk lives in the phase space of the bosonic mode: a square-wave
drive pulse tosses the Hadamard coin on the qubit, and the dispersive
qubit-mode coupling rotates the mode's phase clockwise or
counterclockwise conditioned on the coin state.  The package propagates
the open-system dynamics with a Lindblad master equation, computes the
phase-space observables (phase distribution, sharpness, Holevo standard
deviation, Wigner function) and the ballistic-spreading exponent, and
ships a verification suite for the underlying operator-algebra
identities.

Importing it sets OpenBLAS's idle-thread timeout for numpy's load, which
saves CPU time and changes no result (see ``_OPENBLAS_THREAD_TIMEOUT``).
"""

__version__ = "0.1.0"

# numpy's bundled OpenBLAS starts a worker thread when it loads, and the
# worker spins for 2**OPENBLAS_THREAD_TIMEOUT cycles (28 unless set) each
# time it goes idle: at start-up and after every threaded GEMM or gemv.  A
# short timeout lets it sleep at once, which saves CPU time and changes no
# bits, since the thread count and so every product's split stay the same.
# OpenBLAS reads the variable once, in its load-time constructor, so it is
# set only around numpy's first import: a value the user set is kept, a
# process that loaded numpy first keeps its own, and the environment that
# child processes inherit is restored as it was.
_OPENBLAS_THREAD_TIMEOUT = "4"


def _import_numpy() -> None:
    import os

    name = "OPENBLAS_THREAD_TIMEOUT"
    user_set = name in os.environ
    os.environ.setdefault(name, _OPENBLAS_THREAD_TIMEOUT)
    try:
        import numpy  # noqa: F401
    finally:
        if not user_set:
            del os.environ[name]


_import_numpy()

from .model import (  # noqa: F401
    DerivedParams,
    DissipatorSpec,
    PhysicalParams,
    PulseSchedule,
    derive,
    dissipators,
    hamiltonian_effective,
    hamiltonian_rotframe,
    initial_state,
    preset,
    pulse_schedule,
)
from .observables import (  # noqa: F401
    PhaseDistribution,
    WignerGrid,
    loglog_slope,
    mean_number,
    phase_distribution,
    qubit_populations,
    reduce_boson,
    rotate_mode,
    sharpness_holevo,
    wigner,
)
from .solver import Trajectory, evolve, liouvillian  # noqa: F401
