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
"""

__version__ = "0.1.0"

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
    SpreadSeries,
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
from .solver import Trajectory, evolve, liouvillian, propagate  # noqa: F401
