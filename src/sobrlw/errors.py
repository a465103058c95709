"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid, problem, or solver configuration."""


class SamplingError(ValueError):
    """A sampled function returned a non-finite value at a grid node."""


class GridMismatchError(ValueError):
    """Operands live on different grids."""


class FrameError(ValueError):
    """A field violates the two-layer vanishing-frame precondition."""


class SingularSystemError(ArithmeticError):
    """Zero pivot encountered while factoring a banded system."""


class NumericalError(ArithmeticError):
    """Base class for failures of a running solve."""


class BlowUpError(NumericalError):
    """Non-finite values, or |U| above scheme.BLOW_UP_BOUND, during time stepping."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = level


class PicardError(NumericalError):
    """Fixed-point iteration for an implicit sub-step did not converge."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
