"""Exception hierarchy shared by all finwell modules.

Two families matter for callers (and for CLI exit codes): ``DomainError``
covers invalid or out-of-range inputs, ``NumericalError`` covers failures
of the numerics themselves.  The range rule of a scalar input lives here
alone: ``check_positive``, ``check_non_negative`` and ``check_real`` refuse a
value that is not positive, non-negative or finite, and return the values as
Python floats, as in ``a, K, V0 = check_positive("a K V0", a, K, V0)``.
``check_positive_columns`` is the positive check on arrays, ``check_columns``
the shape check of every array entry point, and ``check_finite`` the range
check on a result.  Each takes the names of its values as one space-separated
string, then the values by position: a value that passes costs no dict and no
split.  ``value_text`` is the text of a refused value in every domain message.
"""

from __future__ import annotations

import math
import sys

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


def _as_float(value: float) -> float:
    # float(value) of a real number.  math.ldexp(x, 0) refuses a str
    # (TypeError) that float() would parse; an int beyond the float range, for
    # which it raises OverflowError, gives inf, and is refused as inf is.
    try:
        return math.ldexp(value, 0)
    except OverflowError:
        return math.inf


def _range_check(low: float, rule: str):
    # A check of the rule low <= x <= FLOAT_MAX, named "<rule>" in its message.
    def check(names: str, *values: float) -> tuple[float, ...]:
        """The values as floats, or DomainError naming the first out of range."""
        for x in values:
            if type(x) is not float or not low <= x <= FLOAT_MAX:
                break
        else:
            return values  # the usual case; converting these too cost lib-calls 12%
        # Converted, then compared: a float32 compared with FLOAT_MAX warns on the cast.
        floats = tuple(map(_as_float, values))
        for name, x, given in zip(names.split(), floats, values, strict=True):
            if not low <= x <= FLOAT_MAX:
                raise DomainError(f"{name} must be {rule}, got {value_text(given)}")
        return floats
    return check


check_positive = _range_check(5e-324, "positive and finite")  # the least positive double
check_non_negative = _range_check(0.0, "non-negative and finite")
check_real = _range_check(-FLOAT_MAX, "finite")


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
