"""Scalar entry points refuse an int beyond the float range as a DomainError.

math.isfinite and float() raise OverflowError ("int too large to convert to
float") for such an int; the shared checks compare it with the largest double.
"""

import pytest

import finwell as fw
from finwell import DomainError
from finwell.errors import check_positive
from finwell.pressure import expansion_small_k, expansion_small_width
from finwell.units import Dimension

HUGE = 10**400
C = fw.PAPER_FIT

ENTRY_POINTS = {
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
    "FitCoefficients.from_dict": lambda: fw.FitCoefficients.from_dict(
        {"c": [HUGE, 0, 0, 0, 0, 0], "sigma": 0.0, "source": "refit"}),
    "quantity": lambda: fw.quantity(HUGE, "m"),
    "Quantity": lambda: fw.Quantity(HUGE, Dimension.LENGTH),
    "check_positive": lambda: check_positive(x=-HUGE),
}


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_int_beyond_float_range_is_domain_error(call):
    # Each raised a raw OverflowError.
    with pytest.raises(DomainError):
        call()
