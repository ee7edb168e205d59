"""Physical constants and the parsing of quantities into SI units.

Everything downstream works in coherent SI; eV, angstrom, nm, and electron
masses are accepted only at the boundary (CLI flags, file input) and are
converted on parse.  The one-dimensional "pressure" carries force units [N]
because it is the derivative of an energy with respect to a length.

Pinned constants (CODATA 2018):

    hbar            1.054571817e-34 J*s   (h/2pi, h exact since 2019)
    electron mass   9.1093837015e-31 kg
    electronvolt    1.602176634e-19 J     (exact since 2019)

Presets are built from these constants where they are defined; the
hydrogen well, for one, is spectrum.hydrogen_well.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from enum import Enum

from .errors import MalformedNumber, NumericalError, UnknownUnit, check_real


# Fixed constants table; values are pinned, never user-mutable.
# hbar [J*s], electron_mass [kg], electronvolt [J].
PhysicalConstants = namedtuple(
    "PhysicalConstants", "hbar electron_mass electronvolt",
    defaults=(1.054571817e-34, 9.1093837015e-31, 1.602176634e-19),
)


CONSTANTS = PhysicalConstants()


class Dimension(Enum):
    LENGTH = "length"
    ENERGY = "energy"
    MASS = "mass"
    FORCE = "force"
    DIMENSIONLESS = "dimensionless"


# unit symbol -> (dimension, multiplicative factor to SI)
_UNIT_TABLE: dict[str, tuple[Dimension, float]] = {
    "m": (Dimension.LENGTH, 1.0),
    "nm": (Dimension.LENGTH, 1e-9),
    "angstrom": (Dimension.LENGTH, 1e-10),
    "J": (Dimension.ENERGY, 1.0),
    "eV": (Dimension.ENERGY, CONSTANTS.electronvolt),
    "kg": (Dimension.MASS, 1.0),
    "me": (Dimension.MASS, CONSTANTS.electron_mass),
    "N": (Dimension.FORCE, 1.0),
    "": (Dimension.DIMENSIONLESS, 1.0),
}

_QUANTITY_RE = re.compile(
    r"^\s*([+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)\s*([A-Za-z]*)\s*$"
)


class Quantity(namedtuple("Quantity", "value dimension")):
    """An SI-normalized value tagged with its dimension."""

    __slots__ = ()

    def __new__(cls, value: float, dimension: Dimension) -> Quantity:
        return super().__new__(cls, *check_real("value", value), dimension)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so that _replace checks too


def _lookup_unit(unit: str) -> tuple[Dimension, float]:
    try:
        return _UNIT_TABLE[unit]
    except KeyError:
        known = ", ".join(sorted(u for u in _UNIT_TABLE if u))
        raise UnknownUnit(f"unknown unit '{unit}' (supported: {known})") from None


def parse_quantity(text: str) -> Quantity:
    """Parse ``<number><unit>`` into an SI-normalized :class:`Quantity`.

    Supported units: m, nm, angstrom, J, eV, kg, me (electron masses), N,
    or no unit at all for dimensionless values.

    Raises:
        MalformedNumber: the text is not of the form ``<number><unit>``.
        UnknownUnit: the unit suffix is not in the table above.
        NumericalError: a number that overflows the float range, or a
            nonzero number whose SI value underflows to 0.0.
    """
    match = _QUANTITY_RE.match(text)
    if match is None:
        raise MalformedNumber(f"could not parse a number from '{text}'")
    number, unit = match.groups()
    dim, factor = _lookup_unit(unit)
    value = float(number) * factor
    if math.isinf(value):
        raise NumericalError(f"'{text}' overflows the float range")
    mantissa = number.lower().partition("e")[0]
    if value == 0.0 and mantissa.strip("+-.0"):  # a nonzero digit was rounded away
        raise NumericalError(f"'{text}' underflows to 0 in SI units")
    return Quantity(value, dim)


def quantity(value: float, unit: str) -> Quantity:
    """Construct a Quantity from a value expressed in ``unit``."""
    dim, factor = _lookup_unit(unit)
    (value,) = check_real("value", value)
    return Quantity(value * factor, dim)

