"""Shared exception and warning types."""


class DklbError(Exception):
    """Base class for package-specific errors."""


class ConfigError(DklbError, ValueError):
    """Malformed or invalid configuration input."""


class NumericalError(DklbError, RuntimeError):
    """Numerical failure: NaN/overflow abort, divergence, lost convergence."""


class LeakageError(DklbError, ValueError):
    """Field mass near the domain boundary exceeds the allowed threshold."""


class OverflowGuardWarning(RuntimeWarning):
    """A growing exponent was clamped to keep the computation finite."""
