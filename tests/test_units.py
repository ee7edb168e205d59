import math

import numpy as np
import pytest

from finwell import (
    CONSTANTS,
    Dimension,
    DomainError,
    MalformedNumber,
    NumericalError,
    Quantity,
    UnknownUnit,
    parse_quantity,
    quantity,
)

ALL_UNITS = ["m", "nm", "angstrom", "J", "eV", "kg", "me", "N", ""]


def test_constants_pinned():
    assert CONSTANTS.hbar == 1.054571817e-34
    assert CONSTANTS.electron_mass == 9.1093837015e-31
    assert CONSTANTS.electronvolt == 1.602176634e-19
    assert CONSTANTS.hbar > 0 and CONSTANTS.electron_mass > 0 and CONSTANTS.electronvolt > 0


def test_parse_ev_to_joule():
    q = parse_quantity("13.6058eV")
    assert q.dimension is Dimension.ENERGY
    # direct multiplication by the pinned eV -> J factor
    assert q.value == pytest.approx(13.6058 * 1.602176634e-19, rel=1e-15)
    assert q.value == pytest.approx(2.17989e-18, rel=1e-5)


def test_parse_identity_unit():
    q = parse_quantity("1m")
    assert q.value == 1.0
    assert q.dimension is Dimension.LENGTH


def test_parse_bohr_radius():
    q = parse_quantity("0.529angstrom")
    assert q.value == pytest.approx(0.529e-10, rel=1e-15)
    assert q.dimension is Dimension.LENGTH


@pytest.mark.parametrize(
    "text,value,dim",
    [
        ("2nm", 2e-9, Dimension.LENGTH),
        ("1me", 9.1093837015e-31, Dimension.MASS),
        ("0.5kg", 0.5, Dimension.MASS),
        ("3N", 3.0, Dimension.FORCE),
        ("42", 42.0, Dimension.DIMENSIONLESS),
        ("-1m", -1.0, Dimension.LENGTH),
        ("+2.5e-3J", 2.5e-3, Dimension.ENERGY),
        (".5m", 0.5, Dimension.LENGTH),
        (" 7 eV ", 7 * 1.602176634e-19, Dimension.ENERGY),
        ("1.7976931348623157e308m", 1.7976931348623157e308, Dimension.LENGTH),  # largest finite
    ],
)
def test_parse_grammar(text, value, dim):
    q = parse_quantity(text)
    assert q.value == pytest.approx(value, rel=1e-15)
    assert q.dimension is dim


@pytest.mark.parametrize("text", ["1.5parsec", "3x", "10ev"])
def test_unknown_unit(text):
    with pytest.raises(UnknownUnit):
        parse_quantity(text)


@pytest.mark.parametrize("text", ["", "abc", "--3m", "1.2.3m", "nan", "inf", "1_0m"])
def test_malformed_number(text):
    with pytest.raises(MalformedNumber):
        parse_quantity(text)


@pytest.mark.parametrize("text", ["1e-300me", "1e-400m", "-2e-320angstrom", "1e-400"])
def test_underflow_to_zero_is_numerical_error(text):
    with pytest.raises(NumericalError, match="underflows"):
        parse_quantity(text)


@pytest.mark.parametrize("text", ["1e400m", "-1e309eV", "2e308me", "1e400"])
def test_overflow_is_numerical_error(text):
    # float(number) is inf; the message names the text, not a non-finite value.
    with pytest.raises(NumericalError) as info:
        parse_quantity(text)
    assert str(info.value) == f"'{text}' overflows the float range"


@pytest.mark.parametrize("text,value", [
    ("0m", 0.0), ("-0.0me", -0.0), ("0.000e-400eV", 0.0), ("+.0", 0.0),
    ("1e-320m", 1e-320), ("1e-300nm", 1e-300 * 1e-9),  # subnormal, not 0
])
def test_zero_and_subnormal_values_parse(text, value):
    q = parse_quantity(text)
    assert q.value == value
    assert math.copysign(1.0, q.value) == math.copysign(1.0, value)


def test_roundtrip_parse_format():
    # The shortest round-trip text of a value, with its unit, parses to the
    # very Quantity that quantity() builds from the value.
    rng = np.random.default_rng(7)
    magnitudes = [1e-30, 1e-10, 1.0, 1e10, 1e30]
    for unit in ALL_UNITS:
        for mag in magnitudes:
            value = float(rng.uniform(0.1, 10.0)) * mag
            q = parse_quantity(f"{value!r}{unit}")
            want = quantity(value, unit)
            assert q.dimension is want.dimension
            assert q.value.hex() == want.value.hex()


def test_unknown_target_unit():
    with pytest.raises(UnknownUnit):
        quantity(1.0, "furlong")


def test_nonfinite_rejected():
    with pytest.raises(DomainError):
        Quantity(math.inf, Dimension.LENGTH)
    with pytest.raises(DomainError):
        Quantity(math.nan, Dimension.ENERGY)
