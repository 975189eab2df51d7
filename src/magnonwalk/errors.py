"""Exception and warning types shared across the package."""


class DimensionError(ValueError):
    """A Hilbert-space dimension or grid size is invalid for the operation."""


class ScheduleInfeasibleError(ValueError):
    """The coin pulse does not fit inside one walk step (t_H >= t_p)."""


class InvalidParameterError(ValueError):
    """A physical parameter violates its constraints (e.g. negative rate)."""


class FlatDistributionError(ValueError):
    """Phase distribution is flat; the cyclic standard deviation diverges."""


class FitDomainError(ValueError):
    """Spread series contains values outside the log-log fit domain."""


class NumericalFailureError(RuntimeError):
    """Propagation produced an unphysical state beyond repair thresholds."""


class ConfigError(ValueError):
    """Run configuration cannot be resolved to valid parameters."""


class DispersiveRegimeWarning(UserWarning):
    """Qubit-mode detuning is not large against the coupling strength."""
