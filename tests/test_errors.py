"""Scalar entry points refuse an int beyond the float range as a DomainError.

math.isfinite and float() raise OverflowError ("int too large to convert to
float") for such an int; the shared checks compare it with the largest double.
str() raises ValueError for an int of more than 4300 digits; the messages
give such a value by errors.value_text.  FitCoefficients also refuses a
coefficient count other than six and a non-finite value.
"""

import math

import pytest

import finwell as fw
from finwell import DomainError
from finwell.errors import check_positive, value_text
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
        "check_positive": lambda: check_positive(x=-HUGE),
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
