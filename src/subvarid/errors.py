"""Exception types shared across the package."""


class SubvaridError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(SubvaridError):
    """Inconsistent dimensions or invalid configuration values."""


class OutOfRangeError(SubvaridError):
    """A signal does not cover the requested index window."""


class NumericOverflowError(SubvaridError):
    """A simulation or computation produced non-finite values."""


class EstimationError(SubvaridError):
    """Estimation failed; carries the offending condition number when known."""

    def __init__(self, message: str, condition_number: float | None = None):
        super().__init__(message)
        self.condition_number = condition_number


class OrderDeficiencyError(SubvaridError):
    """Markov Hankel matrix has numerical rank below the requested order."""

    def __init__(self, message: str, singular_values=None):
        super().__init__(message)
        self.singular_values = singular_values


class NearSingularError(SubvaridError):
    """Schur complement or pivot too close to zero for a stable update."""


class DesignFailureError(SubvaridError):
    """Input design could not produce a feasible input."""


class PlantProtocolError(SubvaridError):
    """An external plant exited or answered with a non-numeric or non-finite line."""
