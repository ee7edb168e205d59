"""The record contract: every public result and input record is an immutable
named tuple with value equality and a readable repr.

Records are tuples, so they can also be iterated and unpacked, and one
compares equal to a plain tuple of the same values; the checked records
(Quantity, WellConfig, FitGrid) run their domain checks on every
construction, by position, by keyword and through _replace.
"""

import json
import math

import numpy as np
import pytest

import finwell as fw
from finwell.audit import VerifyCheck, build_verify_report


def _ground_states():
    # One well, as scalars: columns of arrays have no single truth value.
    cfg = fw.hydrogen_well()
    columns = fw.ground_states(*(np.array([v]) for v in cfg))
    return fw.GroundStates(*(column.item() for column in columns))


# Each builds a record from a real call, the same one every time.
RECORDS = {
    "PhysicalConstants": fw.PhysicalConstants,
    "Quantity": lambda: fw.parse_quantity("13.6058eV"),
    "WellConfig": fw.hydrogen_well,
    "WellStrength": lambda: fw.well_strength(fw.hydrogen_well()),
    "BoundState": lambda: fw.energy_exact(fw.hydrogen_well(), 0),
    "GroundStates": _ground_states,
    "FitGrid": lambda: fw.FitGrid(1.0, 10.0, 13),
    "FitCoefficients": fw.refit,
    "PressureProfile": lambda: fw.pressure_profile(1.0, 1.0, fw.PAPER_FIT, 1.0),
    "CriticalWidthReport": lambda: fw.critical_width(1.0, fw.PAPER_FIT, method="numeric"),
    "ResponseReport": lambda: fw.classify_response(1.0, 1.0, fw.PAPER_FIT),
    "ProbabilityResult": lambda: fw.probability_interval(1.0, 0.5, 0.3),
    "VerifyCheck": lambda: build_verify_report()[0],
}
CLASSES = {name: VerifyCheck if name == "VerifyCheck" else getattr(fw, name) for name in RECORDS}


@pytest.mark.parametrize("name", RECORDS)
def test_built_by_its_function(name):
    assert type(RECORDS[name]()) is CLASSES[name]


@pytest.mark.parametrize("name", RECORDS)
def test_setting_an_attribute_raises(name):
    record = RECORDS[name]()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], 1.0)
    with pytest.raises(AttributeError):
        record.not_a_field = 1.0
    assert record == RECORDS[name]()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_values_compare_equal(name):
    record = RECORDS[name]()
    cls = CLASSES[name]
    again = RECORDS[name]()
    assert record == again and hash(record) == hash(again)
    assert cls(*record) == record
    assert cls(**record._asdict()) == record


@pytest.mark.parametrize("name", RECORDS)
def test_repr_starts_with_the_class_name(name):
    record = RECORDS[name]()
    assert repr(record).startswith(f"{name}({record._fields[0]}=")


def test_repr_text():
    assert repr(fw.WellConfig(1.0, 2.0, 3.0)) == "WellConfig(half_width=1.0, depth=2.0, mass=3.0)"
    assert repr(fw.quantity(2.0, "m")) == "Quantity(value=2.0, dimension=<Dimension.LENGTH: 'length'>)"


def test_records_are_tuples():
    # The one behaviour a tuple adds: iteration, unpacking and equality
    # with a plain tuple of the same values.
    a, V0, m = cfg = fw.WellConfig(1.0, 2.0, 3.0)
    assert (a, V0, m) == (1.0, 2.0, 3.0) == cfg
    assert fw.FitCoefficients((1.0,) * 6, 0.0, "paper").grid is None


@pytest.mark.parametrize("coeffs", [fw.PAPER_FIT, fw.refit(), fw.refit(fw.FitGrid(1.5, 10.0, 16))],
                         ids=["paper", "refit", "refit-1.5"])
def test_coefficients_round_trip(coeffs):
    assert fw.FitCoefficients.from_dict(coeffs.to_dict()) == coeffs
    assert fw.FitCoefficients.from_dict(json.loads(json.dumps(coeffs.to_dict()))) == coeffs


BAD_RECORDS = {
    "Quantity-inf": lambda: fw.Quantity(math.inf, fw.Dimension.LENGTH),
    "Quantity-nan-keywords": lambda: fw.Quantity(value=math.nan, dimension=fw.Dimension.ENERGY),
    "Quantity-replace": lambda: fw.parse_quantity("1m")._replace(value=math.inf),
    "WellConfig-negative": lambda: fw.WellConfig(-1.0, 1.0, 1.0),
    "WellConfig-zero-keywords": lambda: fw.WellConfig(half_width=1.0, depth=1.0, mass=0.0),
    "WellConfig-nan-mixed": lambda: fw.WellConfig(1.0, depth=math.nan, mass=1.0),
    "WellConfig-replace": lambda: fw.hydrogen_well()._replace(mass=0.0),
    "WellConfig-make": lambda: fw.WellConfig._make((1.0, -1.0, 1.0)),
    "FitGrid-below-one": lambda: fw.FitGrid(0.5, 10.0, 13),
    "FitGrid-inf-keywords": lambda: fw.FitGrid(n_start=1.0, n_stop=math.inf, n_count=13),
    "FitGrid-count-mixed": lambda: fw.FitGrid(1.0, 10.0, n_count=11),
    "FitGrid-replace": lambda: fw.DEFAULT_GRID._replace(n_stop=1.0),
}


@pytest.mark.parametrize("build", BAD_RECORDS.values(), ids=BAD_RECORDS.keys())
def test_checked_constructors_raise_domain_error(build):
    with pytest.raises(fw.DomainError):
        build()


def test_checked_messages():
    with pytest.raises(fw.DomainError, match=r"^half_width must be positive and finite, got -1.0$"):
        fw.WellConfig(half_width=-1.0, depth=1.0, mass=1.0)
    with pytest.raises(fw.DomainError, match=r"^n_count must be at least 12, got 11$"):
        fw.FitGrid(1.0, 10.0, 11)
    with pytest.raises(fw.DomainError, match=r"^quantity value must be finite, got inf$"):
        fw.Quantity(math.inf, fw.Dimension.LENGTH)
