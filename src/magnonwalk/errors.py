"""Exception and warning types shared across the package.

The ``magnonwalk`` command exits 1 on a :class:`ConfigError`, a class that
every settings error below derives from, and 2 on a
:class:`NumericalFailureError`, a class that every numerical failure below
derives from (the fit and distribution errors are ValueErrors too).
"""


class ConfigError(ValueError):
    """Run configuration cannot be resolved to valid parameters (exit 1)."""


class DimensionError(ConfigError):
    """A Hilbert-space dimension or grid size is invalid for the operation
    (exit 1)."""


class ScheduleInfeasibleError(ConfigError):
    """The coin pulse does not fit inside one walk step, t_H >= t_p (exit 1)."""


class InvalidParameterError(ConfigError):
    """A physical parameter violates its constraints, e.g. a negative rate
    (exit 1)."""


class NumericalFailureError(RuntimeError):
    """A computation failed numerically, e.g. propagation produced an
    unphysical state beyond repair thresholds (exit 2)."""


class FlatDistributionError(NumericalFailureError, ValueError):
    """Phase distribution is flat; the cyclic standard deviation diverges
    (exit 2)."""


class FitDomainError(NumericalFailureError, ValueError):
    """Spread series contains values outside the log-log fit domain (exit 2)."""


class DispersiveRegimeWarning(UserWarning):
    """Qubit-mode detuning is not large against the coupling strength."""
