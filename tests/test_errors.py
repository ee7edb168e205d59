"""Scalar entry points refuse an int beyond the float range as a DomainError.

math.isfinite and float() raise OverflowError ("int too large to convert to
float") for such an int; the shared checks refuse it as they refuse inf.
str() raises ValueError for an int of more than 4300 digits; the messages
give such a value by errors.value_text.  A numpy scalar input of any width
gives the result or the clean error of the float of the same value, with no
warning.  FitCoefficients also refuses a coefficient count other than six
and a non-finite value.  The shared checks return the values as floats and
keep the exact text of their messages.
"""

import math
import random
import re

import numpy as np
import pytest

import finwell as fw
from finwell import DomainError, NumericalError
from finwell.errors import (
    check_columns, check_finite, check_non_negative, check_positive, check_positive_columns,
    check_real, value_text)
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


# An in-range call of each scalar entry point and record: (function, its
# float arguments).  Every float argument is given as np.float32 at once.
A, K, V0, M = 5.29e-11, 5.2918e-11, 2.18e-18, 9.1e-31
FLOAT32_CALLS = {
    "solve_even_root": (fw.solve_even_root, (5.0,)),
    "solve_even_root branch": (fw.solve_even_root, (20.0, 2)),
    "energy_ratio": (fw.energy_ratio, (5.0,)),
    "eval_fit": (fw.eval_fit, (C, 2.5)),
    "WellConfig": (fw.WellConfig, (A, V0, M)),
    "WellConfig._replace": (lambda a: fw.hydrogen_well()._replace(half_width=a), (A,)),
    "well_strength": (lambda a, V0, m: fw.well_strength(fw.WellConfig(a, V0, m)), (A, V0, M)),
    "energy_exact": (lambda a, V0, m: fw.energy_exact(fw.WellConfig(a, V0, m), 1), (4e-10, V0, M)),
    "pressure_1d": (fw.pressure_1d, (A, K, C, V0)),
    "pressure_profile": (fw.pressure_profile, (A, K, C, V0)),
    "denergy_dpressure": (fw.denergy_dpressure, (A, K, C)),
    "critical_width": (fw.critical_width, (K, C, "numeric")),
    "classify_response": (fw.classify_response, (A, K, C)),
    "expansion_small_k": (expansion_small_k, (A, 1e-12, C)),
    "expansion_small_width": (expansion_small_width, (A, K, C)),
    "beta_from_fit": (fw.beta_from_fit, (A, K, C, M, V0)),
    "probability_interval": (fw.probability_interval, (A, 2e10, 0.3)),
    "probability_pressure_derivative": (
        lambda a, V0, m, gamma: fw.probability_pressure_derivative(
            fw.WellConfig(a, V0, m), C, gamma), (3 * K, V0, M, 0.4)),
    "FitGrid": (fw.FitGrid, (1.5, 10.0, 16)),
    "refit": (lambda start, stop: fw.refit(fw.FitGrid(start, stop, 16)), (1.5, 10.1)),
    "FitCoefficients": (lambda *c: fw.FitCoefficients(c[:6], c[6], "refit"), (*C.c, 2.2e-6)),
    "fit_inverse_poly": (lambda *ns: fw.fit_inverse_poly([(n, fw.energy_ratio(n)) for n in ns]),
                         tuple(1.0 + 0.75 * i for i in range(12))),
    "quantity": (fw.quantity, (13.6, "eV")),
    "Quantity": (fw.Quantity, (-2.5, Dimension.FORCE)),
    "check_positive": (lambda *v: check_positive("a K", *v), (A, K)),
    "check_non_negative": (lambda *v: check_non_negative("a K", *v), (0.0, K)),
    "check_real": (lambda *v: check_real("a K", *v), (-A, K)),
}


@pytest.mark.parametrize("fn, args", FLOAT32_CALLS.values(), ids=FLOAT32_CALLS.keys())
def test_float32_gives_the_result_of_its_float(fn, args):
    # Each warned ("overflow encountered in cast"), which tier-1's
    # error::RuntimeWarning filter makes an error; without the filter several
    # returned float32 results, since float32 arithmetic stays float32.
    f32 = [np.float32(x) if type(x) is float else x for x in args]
    want = fn(*(float(x) if isinstance(x, np.float32) else x for x in f32))
    got = fn(*f32)
    assert repr(got) == repr(want)  # repr shows a numpy scalar as np.float32(...)


def test_out_of_range_values_are_still_refused():
    for check, text in ((check_positive, "positive and finite"),
                        (check_non_negative, "non-negative and finite"), (check_real, "finite")):
        for bad in (math.nan, math.inf, -math.inf, np.float32(math.inf), np.float16(math.nan),
                    10**400, -10**400):
            with pytest.raises(DomainError, match=f"^x must be {text}, got "):
                check("a x", 1.0, bad)
        # float() would parse a str; the checks refuse it.
        with pytest.raises(TypeError):
            check("x", "5")
    with pytest.raises(DomainError, match="^x must be positive and finite, got -1.0$"):
        check_positive("x", np.float32(-1.0))
    with pytest.raises(DomainError, match="^x must be non-negative and finite, got -1e-300$"):
        check_non_negative("x", -1e-300)
    assert check_non_negative("x", -0.0) == (0.0,)
    with pytest.raises(TypeError):
        fw.solve_even_root("5")


# 2000 strengths log-uniform on [1e-3, 1e4], as each numpy float width.
STRENGTHS = [math.exp(random.Random(7).uniform(math.log(1e-3), math.log(1e4))) for _ in range(2000)]


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_narrow_strength_solves_in_double(dtype):
    # A float32 n ran the solve in float32: solve_even_root(np.float32(5.0))
    # was np.float32(1.30644), and 63 of these 2000, np.float32(0.9367729)
    # among them, raised ConvergenceFailure after 200 iterations.
    rng = random.Random(7)
    for n in [dtype(x) for x in STRENGTHS] + [dtype(0.9367729)]:
        assert 0.0 < n < math.inf
        xi = fw.solve_even_root(n, rng.choice([0, 0, 0, 1]) if n > 4.0 else 0)
        assert type(xi) is float
    for n in (dtype(x) for x in STRENGTHS[::20]):
        assert fw.solve_even_root(n) == fw.solve_even_root(float(n))
        assert fw.energy_ratio(n) == fw.energy_ratio(float(n))


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_fit_grid_stores_floats(dtype):
    grid = fw.FitGrid(dtype(1.5), dtype(10.0), np.int64(16))
    assert [type(x) for x in grid] == [float, float, int]
    assert grid == (1.5, 10.0, 16)
    assert fw.refit(grid) == fw.refit(fw.FitGrid(1.5, 10.0, 16))
    # A bound beyond the narrow type's range, next to a narrow one: the
    # ordering compared them before both were floats, casting 1e5 to float16.
    assert fw.FitGrid(dtype(1.5), 1e5, 16) == (1.5, 1e5, 16)


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
    # It returns the values as floats.
    got = check_positive("a K V0", 1.0, 5e-324, 1.7976931348623157e308)
    assert got == (1.0, 5e-324, 1.7976931348623157e308)
    got = check_positive("n K", 10**300, np.float32(0.1))
    assert got == (1e300, float(np.float32(0.1))) and [type(x) for x in got] == [float, float]


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
