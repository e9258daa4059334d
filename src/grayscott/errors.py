"""Exception types shared across the package."""


class GrayScottError(Exception):
    """Base class for all package errors."""


class ValidationError(GrayScottError):
    """One or more configuration constraints are violated.

    Collects every violation, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class ParseError(GrayScottError):
    """A configuration document could not be parsed.

    Carries line/key context where available.
    """


class NonFinite(GrayScottError):
    """A field coefficient became NaN or Inf during time stepping."""

    def __init__(self, message, step, time):
        super().__init__(message)
        self.step = step
        self.time = time


class NoConvergence(GrayScottError):
    """Picard iteration did not reach the requested tolerance."""

    def __init__(self, message, residuals):
        super().__init__(message)
        self.residuals = list(residuals)
