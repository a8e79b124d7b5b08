"""Shared exception types."""


class ConfigError(ValueError):
    """Malformed or invalid configuration input."""


class NumericalError(RuntimeError):
    """Numerical failure: NaN/overflow abort, divergence, lost convergence."""


class LeakageError(NumericalError):
    """Field mass near the domain boundary exceeds the allowed threshold."""


class ExponentError(NumericalError):
    """A norm of finite magnitudes, not all zero, that rounds to 0 or
    overflows at its Lebesgue exponent; `name` is the parameter that holds
    the exponent."""

    def __init__(self, name: str, detail: str):
        super().__init__(f"{name}: {detail}")
        self.name, self.detail = name, detail


class BoundError(NumericalError):
    """A bound constant that is not finite and positive, against which every
    ratio would be vacuous."""
