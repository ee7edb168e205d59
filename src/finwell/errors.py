"""Exception hierarchy shared by all finwell modules.

Two families matter for callers (and for CLI exit codes): ``DomainError``
covers invalid or out-of-range inputs, ``NumericalError`` covers failures
of the numerics themselves.  ``check_positive`` is the shared domain check
for quantities that must be positive and finite, ``check_positive_columns``
the same check on arrays, ``check_columns`` the shape check of every array
entry point, and ``check_finite`` the range check on a result.  Each takes
the names of its values as one space-separated string, then the values by
position, as in ``check_positive("a K V0", a, K, V0)``: a value that passes
costs no dict and no split, only a refused one has its name looked up.
``value_text`` is the text of a refused value in every domain message.
"""

from __future__ import annotations

import math
import sys

# The largest double.  The scalar input checks compare with it (0 < x <=
# FLOAT_MAX) in place of math.isfinite: the comparison refuses NaN and the
# infinities as well, and also an int beyond the float range, for which
# math.isfinite raises OverflowError.
FLOAT_MAX = sys.float_info.max


class FinwellError(Exception):
    """Base class for every error raised by this package."""


class DomainError(FinwellError):
    """Input outside the physical or mathematical domain of an operation."""


class UnknownUnit(DomainError):
    """Unit token is not one of the supported symbols."""


class MalformedNumber(DomainError):
    """Numeric part of a quantity string could not be parsed."""


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
    """Root search found no root in the requested interval."""


def value_text(value: object) -> str:
    """str(value), or the sign and bit length of an int too long for str()."""
    try:
        return str(value)
    except ValueError:  # more than sys.get_int_max_str_digits() digits
        sign = "a negative" if value < 0 else "an"
        return f"{sign} integer of {abs(value).bit_length()} bits"


def check_positive(names: str, *values: float) -> None:
    """Raise DomainError naming the first value that is not positive and finite.

    names: the values' names, space-separated, in the order of values.
    """
    for value in values:
        if not 0.0 < value <= FLOAT_MAX:
            # Every earlier value passed, so the first one equal to this is it.
            name = names.split()[values.index(value)]
            raise DomainError(f"{name} must be positive and finite, got {value_text(value)}")


def check_finite(value: float, what: str, names: str, *at: float) -> float:
    """value, or NumericalError "<what> overflows at <name> = <value>, ...".

    names as in check_positive, one per value of at.
    """
    if math.isfinite(value):
        return value
    where = ", ".join(f"{name} = {x:.6g}" for name, x in zip(names.split(), at))
    raise NumericalError(f"{what} overflows at {where}")


def check_columns(names: str, *columns: np.ndarray) -> None:
    """Raise DomainError unless every column is a 1-D numpy array as long as the first.

    names as in check_positive.
    """
    import numpy as np
    names = names.split()
    for name, column in zip(names, columns):
        if not (isinstance(column, np.ndarray) and column.ndim == 1):
            shape = getattr(column, "shape", None)
            got = type(column).__name__ if shape is None else f"shape {shape}"
            raise DomainError(f"{name} must be a 1-D array, got {got}")
        if len(column) != len(columns[0]):
            raise DomainError(
                f"{name} has {len(column)} rows where {names[0]} has {len(columns[0])}")


def check_positive_columns(names: str, *columns: np.ndarray) -> None:
    """check_columns, then check_positive on every row, reporting the first offending one."""
    import numpy as np
    check_columns(names, *columns)
    bad = [~(np.isfinite(v) & (v > 0.0)) for v in columns]
    rows = np.flatnonzero(np.logical_or.reduce(bad))
    if rows.size:
        check_positive(names, *(values[rows[0]] for values in columns))
