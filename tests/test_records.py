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
    with pytest.raises(fw.DomainError, match=r"^value must be finite, got inf$"):
        fw.Quantity(math.inf, fw.Dimension.LENGTH)


# Records built by position: each field holds the value that defines it.
# The wells span the ground branch and branch 1, shallow to deep.
FIELD_WELLS = [fw.hydrogen_well(), fw.WellConfig(2e-9, 5e-19, 9.1e-31),
               fw.WellConfig(3e-11, 8e-18, 1.7e-27)]


@pytest.mark.parametrize("cfg", FIELD_WELLS, ids=["hydrogen", "wide", "heavy"])
def test_well_strength_fields(cfg):
    momentum = math.sqrt(2.0 * cfg.mass * cfg.depth)
    strength = fw.well_strength(cfg)
    assert strength.strength == cfg.half_width * momentum / fw.CONSTANTS.hbar
    assert strength.characteristic_length == fw.CONSTANTS.hbar / momentum


@pytest.mark.parametrize("branch", [0, 1])
@pytest.mark.parametrize("cfg", FIELD_WELLS[1:], ids=["wide", "heavy"])
def test_bound_state_fields(cfg, branch):
    n = fw.well_strength(cfg).strength
    state = fw.energy_exact(cfg, branch)
    a = cfg.half_width
    assert state.branch == branch
    assert state.xi == fw.solve_even_root(n, branch)
    assert math.isclose(state.eta, math.sqrt(n * n - state.xi ** 2), rel_tol=1e-12)
    assert state.alpha == state.xi / a
    assert state.beta == state.eta / a
    assert state.energy_ratio == (state.xi / n) ** 2
    assert state.energy == state.energy_ratio * cfg.depth


@pytest.mark.parametrize("t", [0.5, 3.0, 40.0])
def test_pressure_profile_fields(t):
    K, V0 = 5.29e-11, 2.18e-18
    a = t * K
    profile = fw.pressure_profile(a, K, fw.PAPER_FIT, V0)
    assert profile == (a, fw.pressure_1d(a, K, fw.PAPER_FIT, V0),
                       fw.denergy_dpressure(a, K, fw.PAPER_FIT, "consistent"),
                       fw.denergy_dpressure(a, K, fw.PAPER_FIT, "printed"), False)
    assert profile.dedp != profile.dedp_printed


@pytest.mark.parametrize("side", [0.5, 1.0, 2.0])
def test_response_report_fields(side):
    K = 5.29e-11
    a0 = fw.critical_width(K, fw.PAPER_FIT).a0_paper
    report = fw.classify_response(side * a0, K, fw.PAPER_FIT)
    assert report.critical_half_width == a0
    assert report.at_boundary is (side == 1.0)
    want = fw.Response.IONIZES if side < 1.0 else fw.Response.PUSHED_DEEPER
    assert report.outcome is want


def test_critical_width_report_fields():
    K = 5.29e-11
    c = fw.PAPER_FIT.c
    assert fw.critical_width(K, fw.PAPER_FIT) == (-7.5 * (c[5] / c[4]) * K, None, None)
    numeric = fw.critical_width(K, fw.PAPER_FIT, "numeric")
    assert numeric.a0_paper == -7.5 * (c[5] / c[4]) * K
    # The numerator's root, not the denominator's (which is the pole).
    for width, poly in ((numeric.a0_numeric, (5 * c[5], 4 * c[4], 3 * c[3], 2 * c[2], c[1])),
                        (numeric.pole_location, (15 * c[5], 10 * c[4], 6 * c[3], 3 * c[2], c[1]))):
        t = width / K
        value = sum(pk * t ** k for k, pk in enumerate(poly))
        assert abs(value) <= 1e-12 * sum(abs(pk) * t ** k for k, pk in enumerate(poly))


@pytest.mark.parametrize("gamma", [0.0, 0.3, 0.9])
def test_probability_result_fields(gamma):
    a, beta = 1e-10, 4e9
    result = fw.probability_interval(a, beta, gamma)
    assert result.gamma == gamma
    z = 2.0 * a * beta
    want = gamma * (1.0 + (math.sinh(z * gamma) / (z * gamma) if gamma else 1.0)) / (
        1.0 + math.sinh(z) / z)
    assert math.isclose(result.probability, want, rel_tol=1e-14)
    assert result.probability != gamma or gamma == 0.0
