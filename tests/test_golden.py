"""Sweep output against golden fixtures from the per-row scalar implementation.

``golden/cases.json`` lists each sweep's argv, exit code and output file; the
outputs were written by the scalar per-row sweep that the array path
replaced.  Columns computed by the same expressions must match bit for bit;
the root, energies and R may move by a few ulps (Newton end-point, numpy's
sin/sinh/exp against libm); dE/dP may move by the rounding of its summed
terms (powers of a/K are now products), which is large next to its zero
and its pole.  The same bounds hold between the column functions and the
scalar ones over log-uniform wells (``TestColumnsMatchScalar``), except for
dE/dP, which both compute with one function and so match bit for bit.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finwell import (
    CONSTANTS,
    PAPER_FIT,
    FitOutOfRange,
    PoleSingularity,
    WellConfig,
    beta_from_fit,
    denergy_dpressure,
    energy_exact,
    ground_states,
    load_coefficients,
    pressure_1d,
    pressure_columns,
    probability_columns,
    probability_interval,
    well_strength,
)
from finwell.cli import CSV_HEADER, main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))
EPS = 2.0 ** -52

BIT_EQUAL = ("param", "a_m", "n", "K_m", "P_N")
ULPS = {"xi": 2, "E_J": 8, "E_over_V0": 8, "R": 8}


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def read_rows(text: str, as_json: bool) -> list[dict]:
    """Rows as dicts of CSV_HEADER -> float or None, flags as a string."""
    if as_json:
        rows = json.loads(text)["rows"]
        for row in rows:
            row["flags"] = ";".join(row["flags"])
        return rows
    table = list(csv.reader(io.StringIO(text)))
    assert table[0] == CSV_HEADER
    return [
        {k: (v if k == "flags" else None if v == "" else float(v)) for k, v in zip(CSV_HEADER, r)}
        for r in table[1:]
    ]


def dedp_bound(row: dict, coeffs, printed: bool) -> float:
    """16 eps * 0.5 a * (sum|num terms| + |num/den| sum|den terms|) / |den|:
    the first-order effect of rounding every term of both sums, which
    dominates next to the zero (t ~ 0.887) and the pole (t ~ 1.1135)."""
    c = coeffs.c
    t = row["a_m"] / row["K_m"]
    lead = 2 * c[1] if printed else c[1]
    num = [5 * c[5], 4 * c[4] * t, 3 * c[3] * t**2, 2 * c[2] * t**3, c[1] * t**4]
    den = [15 * c[5], 10 * c[4] * t, 6 * c[3] * t**2, 3 * c[2] * t**3, lead * t**4]
    num_sum, den_sum = math.fsum(num), math.fsum(den)
    spread = sum(map(abs, num)) + abs(num_sum / den_sum) * sum(map(abs, den))
    return 16 * EPS * 0.5 * row["a_m"] * spread / abs(den_sum)


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_sweep_matches_golden(case, monkeypatch):
    monkeypatch.chdir(Path(__file__).parent.parent)  # --coeffs paths are repo-relative
    code, out = run(case["argv"])
    assert code == case["exit_code"]
    as_json = "--json" in case["argv"]
    want = read_rows((GOLDEN / case["output"]).read_text(encoding="utf-8"), as_json)
    got = read_rows(out, as_json)
    assert len(got) == len(want)
    argv = case["argv"]
    coeffs = load_coefficients(argv[argv.index("--coeffs") + 1]) if "--coeffs" in argv else PAPER_FIT
    printed = "printed" in argv
    for i, (g, w) in enumerate(zip(got, want)):
        assert g["flags"] == w["flags"], i
        for key in CSV_HEADER[:-1]:
            assert (g[key] is None) == (w[key] is None), (i, key)
        for key in BIT_EQUAL:
            assert g[key] == w[key], (i, key)
        for key, ulps in ULPS.items():
            if w[key] is not None:
                assert abs(g[key] - w[key]) <= ulps * math.ulp(w[key]), (i, key, g[key], w[key])
        if w["dEdP_m"] is not None:
            assert abs(g["dEdP_m"] - w["dEdP_m"]) <= dedp_bound(w, coeffs, printed), i


def test_csv_is_byte_stable():
    case = CASES[0]
    assert run(case["argv"]) == run(case["argv"])


# Log-uniform a/K in [1e-3, 1e4], V0 in [1e-3, 1e4] eV and m in [1e-3, 1e3] me,
# uniform gamma in [0, 1]; each example is one batch of wells.
WELLS = st.lists(
    st.tuples(
        st.floats(math.log(1e-3), math.log(1e4)),
        st.floats(math.log(1e-3), math.log(1e4)),
        st.floats(math.log(1e-3), math.log(1e3)),
        st.floats(0.0, 1.0),
    ),
    min_size=1, max_size=16,
)
# The published set never leaves E/V0 < 1 on this range; the raised c0
# crosses 1 inside it, so both fit_out_of_range outcomes occur.
COEFFS = st.sampled_from([PAPER_FIT, load_coefficients(GOLDEN / "coeffs_above_one.json")])


def well_columns(wells):
    """(a, K, V0, m, gamma) arrays for a batch drawn from WELLS."""
    log_t, log_v0, log_m, gamma = (np.array(col) for col in zip(*wells))
    V0 = np.exp(log_v0) * CONSTANTS.electronvolt
    m = np.exp(log_m) * CONSTANTS.electron_mass
    K = CONSTANTS.hbar / np.sqrt(2.0 * m * V0)
    return np.exp(log_t) * K, K, V0, m, gamma


class TestColumnsMatchScalar:
    @settings(max_examples=100)
    @given(WELLS)
    def test_ground_states(self, wells):
        a, _, V0, m, _ = well_columns(wells)
        states = ground_states(a, V0, m)
        for i in range(a.size):
            cfg = WellConfig(float(a[i]), float(V0[i]), float(m[i]))
            strength, state = well_strength(cfg), energy_exact(cfg)
            assert states.strength[i] == strength.strength
            assert states.characteristic_length[i] == strength.characteristic_length
            assert abs(states.xi[i] - state.xi) <= ULPS["xi"] * math.ulp(state.xi)
            assert abs(states.energy[i] - state.energy) <= ULPS["E_J"] * math.ulp(state.energy)

    @settings(max_examples=100)
    @given(WELLS, COEFFS, st.sampled_from(["consistent", "printed"]))
    def test_pressure_columns(self, wells, coeffs, variant):
        a, K, V0, _, _ = well_columns(wells)
        P, dedp, near_pole, overflow = pressure_columns(a, K, coeffs, V0, variant)
        assert not overflow.any()
        for i in range(a.size):
            ai, Ki = float(a[i]), float(K[i])
            assert P[i] == pressure_1d(ai, Ki, coeffs, float(V0[i]))
            try:
                want = denergy_dpressure(ai, Ki, coeffs, variant)
            except PoleSingularity:
                assert near_pole[i]
                continue
            assert not near_pole[i]
            assert dedp[i] == want

    @settings(max_examples=100)
    @given(WELLS, COEFFS)
    def test_probability_columns(self, wells, coeffs):
        a, K, V0, m, gamma = well_columns(wells)
        R, out_of_range, overflow = probability_columns(a, K, coeffs, m, V0, gamma)
        assert not overflow.any()
        for i in range(a.size):
            ai = float(a[i])
            try:
                beta = beta_from_fit(ai, float(K[i]), coeffs, float(m[i]), float(V0[i]))
            except FitOutOfRange:
                assert out_of_range[i]
                continue
            assert not out_of_range[i]
            want = probability_interval(ai, beta, float(gamma[i])).probability
            assert abs(R[i] - want) <= ULPS["R"] * math.ulp(want)
