"""Exception hierarchy shared by all finwell modules.

Two families matter for callers (and for CLI exit codes): ``DomainError``
covers invalid or out-of-range inputs, ``NumericalError`` covers failures
of the numerics themselves.  ``check_positive`` is the shared domain check
for quantities that must be positive and finite.
"""

import math


class FinwellError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FinwellError):
    """Input outside the physical or mathematical domain of an operation."""


class UnknownUnit(DomainError):
    """Unit token is not one of the supported symbols."""


class MalformedNumber(DomainError):
    """Numeric part of a quantity string could not be parsed."""


class DimensionMismatch(DomainError):
    """Two quantities of different dimensions were combined or compared."""


class NoSuchBranch(DomainError):
    """Requested bound-state branch does not exist for the given strength."""


class FitOutOfRange(DomainError):
    """Fitted energy series was evaluated where it predicts E > V0."""


class NumericalError(FinwellError):
    """A numerical procedure failed to produce a trustworthy result."""


class ConvergenceFailure(NumericalError):
    """Iterative solver exhausted its budget without meeting tolerance."""


class SingularSystem(NumericalError):
    """Least-squares design matrix is numerically rank-deficient."""


class PoleSingularity(NumericalError):
    """Evaluation requested at (or too close to) a pole of dE/dP."""


class NoRoot(NumericalError):
    """Root search found no sign change in the requested interval."""


def check_positive(**values: float) -> None:
    """Raise DomainError naming the first value that is not positive and finite."""
    for name, value in values.items():
        if not math.isfinite(value) or value <= 0.0:
            raise DomainError(f"{name} must be positive and finite, got {value}")
