"""Shared exception types."""


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


class NumericalError(RuntimeError):
    """Numerical failure: NaN/overflow abort, divergence, lost convergence."""


class LeakageError(NumericalError):
    """Field mass near the domain boundary exceeds the allowed threshold."""
