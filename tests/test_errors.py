"""Scalar entry points refuse an int beyond the float range as a DomainError.

math.isfinite and float() raise OverflowError ("int too large to convert to
float") for such an int; the shared checks compare it with the largest double.
str() raises ValueError for an int of more than 4300 digits; the messages
give such a value by errors.value_text.  A numpy scalar input gives the same
clean error as the float of the same value.  FitCoefficients also refuses a
coefficient count other than six and a non-finite value.  The shared checks
keep the exact text of their messages.
"""

import math
import re

import numpy as np
import pytest

import finwell as fw
from finwell import DomainError, NumericalError
from finwell.errors import (
    check_columns, check_finite, check_positive, check_positive_columns, value_text)
from finwell.pressure import expansion_small_k, expansion_small_width
from finwell.units import Dimension

C = fw.PAPER_FIT


def entry_points(HUGE):
    return {
        "solve_even_root": lambda: fw.solve_even_root(HUGE),
        "energy_ratio": lambda: fw.energy_ratio(HUGE),
        "eval_fit": lambda: fw.eval_fit(C, HUGE),
        "WellConfig": lambda: fw.WellConfig(HUGE, 1.0, 1.0),
        "WellConfig._replace": lambda: fw.hydrogen_well()._replace(mass=HUGE),
        "pressure_1d": lambda: fw.pressure_1d(HUGE, 1.0, C, 1.0),
        "pressure_profile": lambda: fw.pressure_profile(1.0, 1.0, C, HUGE),
        "denergy_dpressure": lambda: fw.denergy_dpressure(1.0, HUGE, C),
        "critical_width": lambda: fw.critical_width(HUGE, C),
        "classify_response": lambda: fw.classify_response(HUGE, 1.0, C),
        "expansion_small_k": lambda: expansion_small_k(1.0, HUGE, C),
        "expansion_small_width": lambda: expansion_small_width(1.0, HUGE, C),
        "probability_interval width": lambda: fw.probability_interval(HUGE, 1.0, 0.5),
        "probability_interval beta": lambda: fw.probability_interval(1.0, HUGE, 0.5),
        "probability_interval gamma": lambda: fw.probability_interval(1.0, 1.0, HUGE),
        "beta_from_fit": lambda: fw.beta_from_fit(1.0, 1.0, C, HUGE, 1.0),
        "FitGrid": lambda: fw.FitGrid(1.0, HUGE, 13),
        "FitCoefficients": lambda: fw.FitCoefficients((0.0, HUGE, 0, 0, 0, 0), 0.0, "refit"),
        "FitCoefficients._replace": lambda: C._replace(sigma=HUGE),
        "FitCoefficients.from_dict": lambda: fw.FitCoefficients.from_dict(
            {"c": [HUGE, 0, 0, 0, 0, 0], "sigma": 0.0, "source": "refit"}),
        "quantity": lambda: fw.quantity(HUGE, "m"),
        "Quantity": lambda: fw.Quantity(HUGE, Dimension.LENGTH),
        "check_positive": lambda: check_positive("x", -HUGE),
    }


ENTRY_POINTS = [
    pytest.param(call, id=name + suffix)
    for suffix, huge in (("", 10**400), (" 10**5000", 10**5000))
    for name, call in entry_points(huge).items()
]


@pytest.mark.parametrize("call", ENTRY_POINTS)
def test_int_beyond_float_range_is_domain_error(call):
    # Each raised a raw OverflowError at 10**400, and a raw ValueError from
    # str() of the value at 10**5000.
    with pytest.raises(DomainError):
        call()


# Each is (function, its float arguments, the position of the one given as
# np.float64).  Each raised a raw OverflowError or a RuntimeWarning for the
# numpy scalar, where the float gives a clean FinwellError.
NUMPY_SCALAR_CALLS = {
    "solve_even_root": (fw.solve_even_root, (5.0, 10**400), 0),
    "eval_fit": (fw.eval_fit, (C, 1e-200), 1),
    "beta_from_fit": (fw.beta_from_fit, (1e-300, 1e-200, C, 9.1e-31, 1e-18), 1),
    "expansion_small_width": (expansion_small_width, (1e300, 1e-200, C), 1),
    "expansion_small_k": (expansion_small_k, (1e-200, 1e300, C), 0),
    "probability_interval": (fw.probability_interval, (1.7e306, 1.9e207, 0.5), 0),
    "critical_width": (fw.critical_width, (1.7e308, C), 0),
    "classify_response": (fw.classify_response, (1.0, 1.7e308, C), 1),
    "probability_pressure_derivative": (
        lambda a, V0, m: fw.probability_pressure_derivative(fw.WellConfig(a, V0, m), C, 0.5),
        (1e-12, 1e-200, 1e300), 1),
}


@pytest.mark.parametrize("fn, args, i", NUMPY_SCALAR_CALLS.values(), ids=NUMPY_SCALAR_CALLS.keys())
def test_numpy_scalar_is_the_clean_error_of_its_float(fn, args, i):
    with pytest.raises(fw.FinwellError) as from_float:
        fn(*args)
    scalar_args = (*args[:i], np.float64(args[i]), *args[i + 1:])
    with pytest.raises(type(from_float.value), match=f"^{re.escape(str(from_float.value))}$"):
        fn(*scalar_args)


def test_well_config_stores_floats():
    cfg = fw.WellConfig(np.float64(1e-10), 2, np.float64(0.5))
    assert [type(x) for x in cfg] == [float] * 3
    assert cfg == (1e-10, 2.0, 0.5)


# The exact text of the shared checks.  A refused value is named by its
# position among the names, first, middle or last.
BAD_VALUES = [(0.0, "0.0"), (-1.0, "-1.0"), (math.nan, "nan"), (math.inf, "inf"),
              (10**400, "1" + "0" * 400)]


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad, text", BAD_VALUES, ids=[t[:6] for _, t in BAD_VALUES])
def test_check_positive_message(position, bad, text):
    values = [1.0, 2.0, 3.0]
    values[position] = bad
    name = ("a", "K", "V0")[position]
    with pytest.raises(DomainError) as info:
        check_positive("a K V0", *values)
    assert str(info.value) == f"{name} must be positive and finite, got {text}"
    # A later bad value is not the one named.
    if position < 2:
        values[2] = -5.0
        with pytest.raises(DomainError, match=f"^{name} must"):
            check_positive("a K V0", *values)


def test_check_positive_passes():
    assert check_positive("a K V0", 1.0, 5e-324, 1.7976931348623157e308) is None
    assert check_positive("n", 10**300) is None


@pytest.mark.parametrize("position", [0, 1, 2], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad, text", BAD_VALUES[:4], ids=[t for _, t in BAD_VALUES[:4]])
def test_check_positive_columns_message(position, bad, text):
    columns = [np.array([1.0, 2.0, 3.0]) for _ in range(3)]
    columns[position][1] = bad
    columns[2][2] = -7.0  # a later row is not the one reported
    name = ("a", "K", "V0")[position]
    with pytest.raises(DomainError) as info:
        check_positive_columns("a K V0", *columns)
    assert str(info.value) == f"{name} must be positive and finite, got {text}"


def test_check_columns_messages():
    one = np.ones(3)
    with pytest.raises(DomainError) as info:
        check_columns("a K V0", one, np.ones((3, 1)), one)
    assert str(info.value) == "K must be a 1-D array, got shape (3, 1)"
    with pytest.raises(DomainError) as info:
        check_positive_columns("a K V0", one, one, [1.0, 1.0, 1.0])
    assert str(info.value) == "V0 must be a 1-D array, got list"
    with pytest.raises(DomainError) as info:
        check_positive_columns("a K V0", one, one, np.ones(2))
    assert str(info.value) == "V0 has 2 rows where a has 3"


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_check_finite_message(bad):
    with pytest.raises(NumericalError) as info:
        check_finite(bad, "pressure", "a/K", 2.5e-7)
    assert str(info.value) == "pressure overflows at a/K = 2.5e-07"
    with pytest.raises(NumericalError) as info:
        check_finite(bad, "small-K expansion", "a K V0", 1.0, 1e300, 1 / 3)
    assert str(info.value) == "small-K expansion overflows at a = 1, K = 1e+300, V0 = 0.333333"


def test_check_finite_returns_the_value():
    for x in (0.0, -0.0, -1.5, 5e-324, 1.7976931348623157e308):
        assert math.copysign(1.0, check_finite(x, "x", "a", 1.0)) == math.copysign(1.0, x)
        assert check_finite(x, "x", "a", 1.0) == x


@pytest.mark.parametrize("call, message", [
    # Each was accepted: pressure_1d then raised a raw IndexError, and
    # eval_fit(c, 2.0) returned 1.75 from the three terms.
    pytest.param(lambda: fw.FitCoefficients((1.0, 1.0, 1.0), 0.0, "refit"),
                 "expected 6 coefficients, got 3", id="three coefficients"),
    pytest.param(lambda: C._replace(c=C.c[:5]),
                 "expected 6 coefficients, got 5", id="five by _replace"),
    pytest.param(lambda: fw.FitCoefficients(C.c, math.nan, "refit"),
                 "must be finite, got nan", id="nan sigma"),
    pytest.param(lambda: C._replace(c=(0.0, math.inf, 0, 0, 0, 0)),
                 "must be finite, got inf", id="inf c1 by _replace"),
])
def test_coefficients_check_their_values(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_value_text():
    # str() where it works, so the messages of values that print are unchanged
    assert [value_text(x) for x in (2.5, -3, 10**400)] == ["2.5", "-3", str(10**400)]
    assert value_text(10**5000) == "an integer of 16610 bits"
    assert value_text(-10**5000) == "a negative integer of 16610 bits"
