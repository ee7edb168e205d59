import contextlib
import csv
import errno
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from finwell import (
    PAPER_FIT,
    NumericalError,
    critical_width,
    denergy_dpressure,
    hydrogen_well,
    load_coefficients,
    pressure_1d,
    well_strength,
)
import finwell.cli as cli
import finwell.sweep
from finwell.cli import CSV_HEADER, EXIT_BROKEN_PIPE, build_parser, main
from finwell.sweep import ROW_FLAGS, SweepTable
from oracles import ground_root_eta_oracle

GOLDEN = Path(__file__).parent / "golden"

HYDROGEN_FLAGS = ["--width", "0.529angstrom", "--depth", "13.6058eV", "--mass", "me"]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_human(text):
    values = {}
    for line in text.strip().splitlines():
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def hydrogen_k():
    return well_strength(hydrogen_well()).characteristic_length


SUBNORMAL_WELL = ["--depth", "1e-320J", "--mass", "1e300kg"]


def check_energy_ratio(ratio, n):
    # E/V0 = (xi/n)^2 from the decimal root, whatever the precision of E_J.
    want = (ground_root_eta_oracle(n)[0] / n) ** 2
    assert abs(ratio - want) <= 4 * math.ulp(want), (n, ratio, want)


class TestSpectrum:
    def test_subnormal_energy(self, capsys):
        # E_J rounds to 0 and E_J / V0 printed 0.0 for E/V0 = 1.37e-8.
        code, out, _ = run(capsys, ["spectrum", "--width", "1e-20m", *SUBNORMAL_WELL, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["E_J"] == 0.0
        check_energy_ratio(doc["E_over_V0"], doc["n"])

    def test_hydrogen_flags(self, capsys):
        code, out, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS])
        assert code == 0
        values = parse_human(out)
        assert float(values["n"]) == pytest.approx(1.0, abs=1e-3)
        assert float(values["E_over_V0"]) == pytest.approx(0.546392382, rel=1e-6)

    def test_preset_matches_flags(self, capsys):
        code1, out1, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS])
        code2, out2, _ = run(capsys, ["spectrum", "--preset", "hydrogen"])
        assert code1 == code2 == 0
        assert out1 == out2

    def test_preset_with_a_flag_matches_flags(self, capsys):
        # The preset fills only the flags that are not given.
        width = ["--width", "1e-10m"]
        full = run(capsys, ["spectrum", *width, "--depth", "13.6058eV", "--mass", "me"])
        assert full[0] == 0
        assert run(capsys, ["spectrum", "--preset", "hydrogen", *width]) == full

    def test_underflowing_quantity_numerical_error(self, capsys):
        # 1e-300 electron masses is 9e-331 kg, which rounds to 0.0; this was
        # the domain error "mass must be positive and finite, got 0.0".
        code, out, err = run(capsys, ["spectrum", "--width", "1e-10m", "--depth", "13.6eV",
                                      "--mass", "1e-300me"])
        assert (code, out) == (2, "")
        assert err == ("finwell spectrum: numerical failure: "
                       "'1e-300me' underflows to 0 in SI units\n")

    def test_overflowing_quantity_numerical_error(self, capsys):
        # float("1e400") is inf; this was the domain error "quantity value
        # must be finite, got inf", which named neither the flag nor the text.
        code, out, err = run(capsys, ["spectrum", "--width", "1e400m", "--depth", "1eV",
                                      "--mass", "me"])
        assert (code, out) == (2, "")
        assert err == ("finwell spectrum: numerical failure: "
                       "'1e400m' overflows the float range\n")

    def test_missing_flag_usage_error(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--width", "1m", "--depth", "1eV"])
        assert code == 3
        assert "missing" in err

    def test_negative_width_domain_error(self, capsys):
        code, _, err = run(capsys, ["spectrum", "--width", "-1m", "--depth", "13.6058eV", "--mass", "me"])
        assert code == 1
        assert "domain error" in err

    def test_unknown_unit_domain_error(self, capsys):
        code, _, _ = run(capsys, ["spectrum", "--width", "1parsec", "--depth", "1eV", "--mass", "me"])
        assert code == 1

    def test_wrong_dimension(self, capsys):
        code, _, _ = run(capsys, ["spectrum", "--width", "1eV", "--depth", "1eV", "--mass", "me"])
        assert code == 1

    def test_missing_branch_numeric(self, capsys):
        code, _, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS, "--branch", "1"])
        assert code == 1  # n ~ 1 admits only the ground branch

    def test_huge_branch_domain_error(self):
        # branch * pi overflowed: a traceback ending in OverflowError.
        proc = subprocess.run(
            [sys.executable, "-m", "finwell.cli", "spectrum", "--preset", "hydrogen",
             "--branch", "1" + "0" * 400], capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (1, "")
        assert "Traceback" not in proc.stderr
        assert proc.stderr == ("finwell spectrum: domain error: branch exceeds the "
                               "strength n = 0.999669; branch k needs n > k pi\n")

    def test_sub_ulp_branch_numerical_failure(self):
        # k pi + pi/2 rounds to k pi: this was a domain error saying that
        # n = 5.12317e+16 is not above 3.14159e+16.
        proc = subprocess.run(
            [sys.executable, "-m", "finwell.cli", "spectrum", "--width", "1e7m",
             "--depth", "1eV", "--mass", "me", "--branch", "10000000000000000"],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (
            "finwell spectrum: numerical failure: branch 10000000000000000 cannot be "
            "resolved: its bracket (k pi, k pi + pi/2) rounds to the single double "
            "k pi = 3.14159e+16\n")

    def test_eta_just_above_branch_threshold(self):
        # n - pi = 3.1e-10: eta printed 0 (E_over_V0 = 1), because xi rounds
        # next to pi; the decimal root gives eta = 9.869603686116153e-10.
        proc = subprocess.run(
            [sys.executable, "-m", "finwell.cli", "spectrum", "--branch", "1",
             "--width", "1.3711859141472058e-10m", "--depth", "20eV", "--mass", "me", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["eta"] == pytest.approx(9.869603686116153e-10, rel=1e-12)

    def test_preset_json(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--preset", "hydrogen", "--json"])
        assert code == 0
        assert 0.0 < json.loads(out, parse_constant=reject_constant)["E_over_V0"] < 1.0

    def test_json_matches_human(self, capsys):
        _, human, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS])
        _, machine, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS, "--json"])
        doc = json.loads(machine)
        values = parse_human(human)
        assert set(doc) == set(values)
        for key, val in doc.items():
            assert float(values[key]) == pytest.approx(val, rel=1e-8)


def quantity_flags(*units):
    """Quantity flag values log-uniform over 1e-300..1e300, in any of units."""
    return st.builds(lambda exponent, unit: f"{10.0 ** exponent!r}{unit}",
                     st.floats(-300.0, 300.0), st.sampled_from(units))


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_rejects_non_finite(value):
    with pytest.raises(NumericalError):
        cli._json({"x": value})


class TestSpectrumProperties:
    @settings(max_examples=300)
    @given(quantity_flags("m", "nm", "angstrom"), quantity_flags("J", "eV"),
           quantity_flags("kg", "me"), st.integers(0, 3), st.booleans())
    # E in eV overflowed: E_eV printed as inf (Infinity in JSON), exit 0.
    @example("5.71051e-274m", "1.92732e+298J", "2.65613e-76kg", 0, True)
    @example("5.71051e-274m", "1.92732e+298J", "2.65613e-76kg", 0, False)
    def test_exit_code_and_finite_output(self, width, depth, mass, branch, as_json):
        argv = ["spectrum", "--width", width, "--depth", depth, "--mass", mass,
                "--branch", str(branch), *(["--json"] if as_json else [])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code:
            assert out.getvalue() == "" and err.getvalue()
        elif as_json:
            json.loads(out.getvalue(), parse_constant=reject_constant)
        else:
            assert not re.search(r"\b(inf|nan)\b", out.getvalue(), re.IGNORECASE)


SWEEP_UNITS = {"width": ("m", "nm", "angstrom"), "depth": ("J", "eV"), "mass": ("kg", "me")}


@st.composite
def sweep_argvs(draw):
    """Whole sweep command lines: every param, scale, variant and format."""
    param = draw(st.sampled_from(["width", "depth", "mass", "gamma"]))
    lo, hi = sorted(draw(st.floats(-0.25, 1.25) if param == "gamma" else st.floats(-300.0, 300.0))
                    for _ in range(2))
    assume(lo < hi)
    if param == "gamma":
        bounds = [repr(lo), repr(hi)]
    else:
        unit = draw(st.sampled_from(SWEEP_UNITS[param]))
        bounds = [f"{10.0 ** lo!r}{unit}", f"{10.0 ** hi!r}{unit}"]
    argv = ["sweep", "--param", param, "--from", bounds[0], "--to", bounds[1],
            "--steps", str(draw(st.integers(2, 20))),
            "--scale", draw(st.sampled_from(["linear", "log"])),
            "--variant", draw(st.sampled_from(["consistent", "printed"]))]
    for name, units in SWEEP_UNITS.items():
        if name != param:
            argv += [f"--{name}", draw(quantity_flags(*units))]
    gamma = draw(st.one_of(st.none(), st.floats(0.0, 1.0),
                           st.floats(1.0, 1e3, exclude_min=True),
                           st.floats(-1e3, 0.0, exclude_max=True)))
    if gamma is not None and param != "gamma":
        argv += ["--gamma", repr(gamma)]
    return argv + (["--json"] if draw(st.booleans()) else [])


def sweep_output_rows(text, as_json):
    """Rows of sweep output as {column: float or None, "flags": [names]}."""
    if as_json:
        return json.loads(text, parse_constant=reject_constant)["rows"]
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    rows = []
    for line in lines[1:]:
        *cells, flags = line.split(",")
        row = {k: None if v == "" else float(v) for k, v in zip(CSV_HEADER, cells)}
        rows.append({**row, "flags": flags.split(";") if flags else []})
    return rows


class TestSweepProperties:
    @settings(max_examples=200, deadline=None)
    @given(sweep_argvs())
    def test_exit_code_and_finite_rows(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2, 3)
        text = out.getvalue()
        if code in (1, 3) or not text:
            assert text == "" and err.getvalue() and code
            return
        rows = sweep_output_rows(text, "--json" in argv)
        assert len(rows) == int(argv[argv.index("--steps") + 1])
        has_r = "--gamma" in argv or argv[2] == "gamma"
        for row in rows:
            assert all(v is None or math.isfinite(v) for k, v in row.items() if k != "flags")
            assert row["P_N"] is not None or "overflow" in row["flags"]
            assert row["dEdP_m"] is not None or {"overflow", "near_pole"} & set(row["flags"])
            if has_r:
                assert row["R"] is not None or {"overflow", "fit_out_of_range"} & set(row["flags"])
        assert (code == 2) == all(row["flags"] for row in rows)


class TestFit:
    def test_default_sigma(self, capsys):
        code, out, _ = run(capsys, ["fit", "--json"])
        assert code == 0
        doc = json.loads(out, parse_constant=reject_constant)
        assert doc["sigma"] <= 1e-5
        assert doc["source"] == "refit"
        assert doc["grid"] == {"n_start": 1.0, "n_stop": 10.0, "n_count": 13}

    def test_paper_set_verbatim(self, capsys):
        code, out, _ = run(capsys, ["fit", "--paper", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["c"] == list(PAPER_FIT.c)
        assert doc["sigma"] == 2.2e-6
        assert doc["source"] == "paper"
        assert doc["grid"] is None

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "c.json"
        code, out, _ = run(capsys, ["fit", "--out", str(path)])
        assert code == 0
        assert "sigma" in out
        coeffs = load_coefficients(str(path))
        assert coeffs.source == "refit"
        assert coeffs.sigma <= 1e-5

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    def test_unwritable_out_domain_error(self, capsys, tmp_path, where):
        # Each ended in a FileNotFoundError or IsADirectoryError traceback.
        path = tmp_path / "missing" / "c.json" if where == "missing-directory" else tmp_path
        code, out, err = run(capsys, ["fit", "--paper", "--out", str(path)])
        assert (code, out) == (1, "")
        assert err.startswith("finwell fit: domain error: cannot write coefficients file: ")
        assert err.count("\n") == 1

    def test_small_grid_domain_error(self, capsys):
        code, _, _ = run(capsys, ["fit", "--grid", "1:10:11"])
        assert code == 1

    def test_infinite_grid_stop_domain_error(self, capsys):
        code, _, err = run(capsys, ["fit", "--grid", "1:inf:13"])
        assert code == 1
        assert err == "finwell fit: domain error: n_stop must be finite, got inf\n"

    def test_grid_count_beyond_float_range_domain_error(self, capsys):
        code, out, err = run(capsys, ["fit", "--grid", "1:10:1" + "0" * 400])
        assert code == 1
        assert out == ""
        assert err.startswith("finwell fit: domain error: n_count must be finite, got 1000")

    def test_malformed_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, ["fit", "--grid", "1:10"])
        assert code == 3

    @pytest.mark.parametrize("grid", ["1:1e300:13", "1:1.0000000000001:13", "1:1e16:13"])
    def test_rank_deficient_grid_numerical_error(self, capsys, grid):
        code, out, err = run(capsys, ["fit", "--grid", grid])
        assert code == 2
        assert out == ""
        assert "design matrix rank" in err

    def test_coincident_grid_points_domain_error(self, capsys):
        # The two representable n in [1e15, 1e15 + 0.25) repeat over 12 points.
        code, out, err = run(capsys, ["fit", "--grid", "1e15:1.0000000000000002e15:12"])
        assert code == 1
        assert out == ""
        assert "distinct n values" in err

    def test_json_matches_human(self, capsys):
        _, human, _ = run(capsys, ["fit", "--paper"])
        _, machine, _ = run(capsys, ["fit", "--paper", "--json"])
        doc = json.loads(machine)
        values = parse_human(human)
        for i, c in enumerate(doc["c"]):
            assert float(values[f"c{i}"]) == pytest.approx(c, rel=1e-8)
        assert float(values["sigma"]) == pytest.approx(doc["sigma"], rel=1e-8)


class TestHydrogen:
    def test_reproduction(self, capsys):
        code, out, _ = run(capsys, ["hydrogen"])
        assert code == 0
        assert "classification = Ionizes" in out
        values = parse_human(out)
        a0 = float(values["a0_m"])
        k = float(values["K_m"])
        assert abs(a0 - 1.31056e-10) / 1.31056e-10 < 0.002
        assert abs(k - 1.31056e-10 / 2.476601) / (1.31056e-10 / 2.476601) < 0.002

    def test_json_matches_human(self, capsys):
        _, human, _ = run(capsys, ["hydrogen"])
        _, machine, _ = run(capsys, ["hydrogen", "--json"])
        doc = json.loads(machine)
        values = parse_human(human)
        for key, val in doc.items():
            if isinstance(val, float):
                assert float(values[key]) == pytest.approx(val, rel=1e-8)
        assert doc["classification"] == values["classification"]

    def test_failed_reproduction_exits_nonzero(self, capsys, monkeypatch):
        import finwell.audit as audit

        monkeypatch.setattr(audit, "HYDROGEN_K_REF", 1e-10)
        code, out, _ = run(capsys, ["hydrogen"])
        assert code == 2
        assert "reproduced     = False" in out


class TestSweep:
    def width_args(self, steps=10):
        K = hydrogen_k()
        return [
            "sweep", "--param", "width",
            "--from", f"{0.5 * K!r}m", "--to", f"{5 * K!r}m", "--steps", str(steps),
            "--depth", "13.6058eV", "--mass", "me",
        ]

    def test_exp_form_r_near_gamma_one(self, capsys):
        # 2 a beta ~ 1e12 at 26 m: R was 0.906407221957345, 6e-5 off.
        code, out, _ = run(capsys, [
            "sweep", "--param", "width", "--from", "26m", "--to", "27m", "--steps", "2",
            "--depth", "13.6058eV", "--mass", "me", "--gamma", "0.9999999999999",
        ])
        assert code == 0
        R = float(out.splitlines()[1].split(",")[CSV_HEADER.index("R")])
        assert R == pytest.approx(0.9063524156122018, rel=1e-12)

    def test_subnormal_energy(self, capsys):
        # E_J is subnormal: E_J / V0 printed 0.41847826086956524 for
        # E/V0 = 0.41837032306769917 in the first row.
        code, out, _ = run(capsys, [
            "sweep", "--param", "width", "--from", "1e-24m", "--to", "2e-24m", "--steps", "3",
            *SUBNORMAL_WELL,
        ])
        assert code == 0
        for line in out.splitlines()[1:]:
            row = dict(zip(CSV_HEADER, line.split(",")))
            check_energy_ratio(float(row["E_over_V0"]), float(row["n"]))

    def test_row_count_and_header(self, capsys):
        code, out, _ = run(capsys, self.width_args())
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 11

    def test_gamma_sweep_monotone(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--param", "gamma", "--from", "0", "--to", "1", "--steps", "11",
            *HYDROGEN_FLAGS,
        ])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        r_values = [float(row.split(",")[9]) for row in rows]
        assert r_values[0] == 0.0
        assert r_values[-1] == 1.0
        assert all(r1 < r2 for r1, r2 in zip(r_values, r_values[1:]))

    def test_pole_crossing_flagged(self, capsys):
        K = hydrogen_k()
        t_pole = critical_width(1.0, PAPER_FIT, "numeric").pole_location
        code, out, _ = run(capsys, [
            "sweep", "--param", "width",
            "--from", f"{(t_pole - 0.05) * K!r}m", "--to", f"{(t_pole + 0.05) * K!r}m",
            "--steps", "11", "--depth", "13.6058eV", "--mass", "me",
        ])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        flagged = [row for row in rows if row.endswith("near_pole")]
        assert flagged
        # the flagged row has an empty dEdP_m column
        assert flagged[0].split(",")[8] == ""

    def test_byte_stable(self, capsys):
        _, out1, _ = run(capsys, self.width_args())
        _, out2, _ = run(capsys, self.width_args())
        assert out1 == out2

    def test_log_scale_spacing(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--param", "depth", "--from", "1eV", "--to", "100eV",
            "--steps", "3", "--scale", "log",
            "--width", "0.529angstrom", "--mass", "me",
        ])
        assert code == 0
        depths = [float(row.split(",")[0]) for row in out.strip().splitlines()[1:]]
        assert depths[1] / depths[0] == pytest.approx(10.0, rel=1e-12)
        assert depths[2] / depths[1] == pytest.approx(10.0, rel=1e-12)

    def test_json_matches_csv(self, capsys):
        argv = self.width_args(steps=4) + ["--gamma", "0.5"]
        _, csv_out, _ = run(capsys, argv)
        _, json_out, _ = run(capsys, argv + ["--json"])
        rows = json.loads(json_out)["rows"]
        csv_rows = csv_out.strip().splitlines()[1:]
        assert len(rows) == len(csv_rows) == 4
        for row, line in zip(rows, csv_rows):
            cells = line.split(",")
            for idx, key in enumerate(CSV_HEADER[:-1]):
                if row[key] is None:
                    assert cells[idx] == ""
                else:
                    assert float(cells[idx]) == row[key]

    def test_json_matches_csv_text_on_flagged_rows(self, capsys):
        # Cell by cell the same text, on a sweep whose narrow rows are flagged
        # and have no R.
        argv = ["sweep", "--param", "width", "--scale", "log", "--from", "1e-80m",
                "--to", "1e-10m", "--steps", "200", "--depth", "13.6eV", "--mass", "me",
                "--gamma", "0.5"]
        _, csv_out, _ = run(capsys, argv)
        _, json_out, _ = run(capsys, argv + ["--json"])
        header, *lines = list(csv.reader(io.StringIO(csv_out)))
        rows = json.loads(json_out, parse_constant=reject_constant)["rows"]
        assert len(lines) == len(rows) == 200
        assert any(row["R"] is None for row in rows) and any(row["flags"] for row in rows)
        for line, row in zip(lines, rows):
            assert list(row) == header
            text = ["" if v is None else repr(v) for v in list(row.values())[:-1]]
            assert line == [*text, ";".join(row["flags"])], (line, row)

    def test_xi_bounded_and_rising_over_n(self, capsys):
        # n from 2e-6 to 2e300: 0 < xi <= min(n, pi/2), and xi never falls.
        code, out, _ = run(capsys, [
            "sweep", "--param", "width", "--scale", "log", "--from", "1e-16m", "--to", "1e290m",
            "--steps", "400", "--depth", "13.6eV", "--mass", "me", "--json",
        ])
        assert code == 0
        rows = json.loads(out, parse_constant=reject_constant)["rows"]
        assert len(rows) == 400
        for row in rows:
            assert 0.0 < row["xi"] <= min(row["n"], 0.5 * math.pi), row
        for prev, row in zip(rows, rows[1:]):
            assert prev["n"] < row["n"] and prev["xi"] <= row["xi"], (prev, row)

    def test_all_rows_failing_exit(self, capsys, tmp_path):
        from finwell import FitCoefficients, dump_coefficients

        path = tmp_path / "bad.json"
        dump_coefficients(
            FitCoefficients(c=(2.0, 0, 0, 0, 0, 0), sigma=0.0, source="refit"), str(path)
        )
        code, out, _ = run(capsys, self.width_args() + ["--gamma", "0.5", "--coeffs", str(path)])
        assert code == 2
        rows = out.strip().splitlines()[1:]
        assert all("fit_out_of_range" in row for row in rows)

    def test_large_2a_beta_rows(self, capsys):
        # 2 a beta reaches ~1e3 here; sinh alone would overflow.
        code, out, _ = run(capsys, [
            "sweep", "--param", "width", "--from", "1e-9m", "--to", "1e-8m", "--steps", "3",
            "--depth", "1000eV", "--mass", "me", "--gamma", "0.5",
        ])
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 3
        for row in rows:
            assert 0.0 <= float(row.split(",")[9]) <= 0.5

    def test_overflowing_pressure_is_a_numerical_error(self, capsys):
        # P overflows in the first row only: that row is flagged and the rest print.
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--from", "1e-250m", "--to", "1e-10m", "--steps", "3",
            "--depth", "13.6058eV", "--mass", "me",
        ])
        assert code == 0
        assert err == ""
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.strip().splitlines()[1:]]
        assert [row["flags"] for row in rows] == ["overflow", "", ""]
        assert rows[0]["P_N"] == rows[0]["dEdP_m"] == ""
        V0 = hydrogen_well().depth
        for row in rows[1:]:
            a, K = float(row["a_m"]), float(row["K_m"])
            assert row["P_N"] == repr(pressure_1d(a, K, PAPER_FIT, V0))
            assert row["dEdP_m"] == repr(denergy_dpressure(a, K, PAPER_FIT))
        with pytest.raises(NumericalError):
            pressure_1d(float(rows[0]["a_m"]), float(rows[0]["K_m"]), PAPER_FIT, V0)

    def test_very_wide_well_dedp_is_finite(self, capsys):
        # a * num overflows in the first row although dE/dP ~ a/2 is finite;
        # the second row's dE/dP sums overflow and the row is flagged.
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--from", "1e66m", "--to", "1e67m", "--steps", "2",
            "--depth", "13.6eV", "--mass", "me",
        ])
        assert code == 0
        assert err == ""
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.strip().splitlines()[1:]]
        assert [row["flags"] for row in rows] == ["", "overflow"]
        a, K = float(rows[0]["a_m"]), float(rows[0]["K_m"])
        assert rows[0]["dEdP_m"] == repr(denergy_dpressure(a, K, PAPER_FIT)) == "5e+65"

    def test_every_row_overflowing_exits_numerical(self, capsys):
        code, out, _ = run(capsys, [
            "sweep", "--param", "width", "--scale", "log", "--from", "1e-170m", "--to", "1e-160m",
            "--steps", "3", "--depth", "13.6eV", "--mass", "me", "--json",
        ])
        assert code == 2
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        for row in rows:
            assert row["flags"] == ["overflow"]
            assert row["P_N"] is None and row["dEdP_m"] is None
            assert row["E_over_V0"] == 1.0

    def test_overflowing_r_flags_its_row(self, capsys):
        # The series overflows at a/K = 1.9e-70, so R was inf or NaN there and
        # the whole sweep exited 2 with nothing printed.
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--scale", "log", "--from", "1e-80m", "--to", "1e-10m",
            "--steps", "8", "--depth", "13.6eV", "--mass", "me", "--gamma", "0.5",
        ])
        assert (code, err) == (0, "")
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.strip().splitlines()[1:]]
        assert len(rows) == 8
        assert [row["flags"] for row in rows] == ["overflow"] * 2 + [""] * 6
        assert rows[0]["R"] == ""
        assert all(0.0 <= float(row["R"]) <= 0.5 for row in rows[1:])

    def test_gamma_above_one_on_a_flagged_row(self, capsys):
        # The 1.5 row is out of the fit's range, but gamma is still checked there.
        code, out, err = run(capsys, [
            "sweep", "--param", "gamma", "--from", "0.5", "--to", "1.5", "--steps", "3",
            "--width", "1e-10m", "--depth", "13.6eV", "--mass", "me",
            "--coeffs", str(GOLDEN / "coeffs_above_one.json"),
        ])
        assert code == 1
        assert out == ""
        assert err == "finwell sweep: domain error: gamma must lie in [0, 1], got 1.5\n"

    def test_negative_gamma_in_exponent_form(self, capsys):
        # argparse took `-1e-05` for an option and exited 3 from inside main.
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--from", "1m", "--to", "2m", "--steps", "2",
            "--depth", "1eV", "--mass", "me", "--gamma", "-1e-05",
        ])
        assert (code, out) == (1, "")
        assert err == "finwell sweep: domain error: gamma must lie in [0, 1], got -1e-05\n"

    def test_gamma_with_a_unit(self, capsys):
        # --gamma was parsed by float(): this was a usage error, exit 3.
        code, out, err = run(capsys, self.width_args() + ["--gamma", "0.5m"])
        assert (code, out) == (1, "")
        assert err == "finwell sweep: domain error: --gamma must be a dimensionless, got length\n"

    def test_non_finite_coeffs_file(self, capsys, tmp_path):
        path = tmp_path / "nan.json"
        doc = PAPER_FIT.to_dict()
        doc["c"][1] = float("nan")
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, self.width_args() + ["--gamma", "0.5", "--coeffs", str(path)])
        assert code == 1
        assert out == ""
        assert "domain error: c1 must be finite, got nan" in err

    @pytest.mark.parametrize("bound", ["--from", "--to"])
    def test_bound_of_wrong_dimension(self, capsys, bound):
        argv = self.width_args()
        argv[argv.index(bound) + 1] = "1eV"
        code, _, err = run(capsys, argv)
        assert code == 1
        assert err == f"finwell sweep: domain error: {bound} must be a length, got energy\n"

    def test_missing_coeffs_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, self.width_args() + ["--coeffs", str(tmp_path / "absent.json")]
        )
        assert code == 1
        assert "domain error" in err

    def test_missing_fixed_params_usage(self, capsys):
        K = hydrogen_k()
        code, _, err = run(capsys, [
            "sweep", "--param", "width", "--from", f"{K!r}m", "--to", f"{2 * K!r}m",
            "--steps", "3",
        ])
        assert code == 3
        assert "missing" in err

    def test_gamma_conflict_usage(self, capsys):
        code, out, err = run(capsys, [
            "sweep", "--param", "gamma", "--from", "0", "--to", "1", "--steps", "3",
            *HYDROGEN_FLAGS, "--gamma", "0.5",
        ])
        assert (code, out) == (3, "")
        assert err == "finwell sweep: error: --gamma conflicts with sweeping gamma\n"

    @pytest.mark.parametrize("param,start,stop", [
        ("width", "1e-10m", "2e-10m"), ("depth", "1eV", "2eV"), ("mass", "1me", "2me"),
    ])
    def test_swept_parameter_flag_conflicts(self, capsys, param, start, stop):
        # As --gamma above; these flags were parsed and then silently
        # overwritten by the sweep values (exit 0).
        code, out, err = run(capsys, [
            "sweep", "--param", param, "--from", start, "--to", stop, "--steps", "2",
            *HYDROGEN_FLAGS,
        ])
        assert (code, out) == (3, "")
        assert err == f"finwell sweep: error: --{param} conflicts with sweeping {param}\n"

    @pytest.mark.parametrize(
        "tweak",
        [
            ["--scale", "log", "--from", "0", "--to", "1"],       # log needs from > 0
            ["--steps", "1"],                                      # too few steps
            ["--from", "1J", "--to", "2J"],                        # wrong dimension
            ["--from", "2m", "--to", "1m"],                        # reversed bounds
        ],
    )
    def test_bad_spec_domain_error(self, capsys, tweak):
        base = [
            "sweep", "--param", "width", "--from", "1m", "--to", "2m", "--steps", "3",
            "--depth", "13.6058eV", "--mass", "me",
        ]
        code, _, _ = run(capsys, base + tweak)
        assert code == 1

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    @pytest.mark.parametrize("scale", ["log", "linear"])
    @pytest.mark.parametrize("steps", [2**62, 10**30])
    def test_unallocatable_steps_numerical_error(self, capsys, steps, scale, fmt):
        # numpy refuses both grids before it maps any memory; each ended in a
        # ValueError traceback.
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--from", "1e-11m", "--to", "1e-9m",
            "--steps", str(steps), "--scale", scale, "--depth", "13.6eV", "--mass", "me", *fmt,
        ])
        assert (code, out) == (2, "")
        assert f"cannot allocate the columns of --steps {steps}" in err

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_traced_peak_per_row(self, fmt):
        # The table stays as float64 columns and is written a block of rows at
        # a time: about 185 B/row, against about 430 with every column held
        # as a list of Python floats.
        rows = 20000
        argv = ["sweep", "--param", "width", "--scale", "log", "--from", "1e-11m",
                "--to", "1e-9m", "--depth", "13.6058eV", "--mass", "me", "--gamma", "0.5", *fmt]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            assert main([*argv, "--steps", "50"]) == 0  # first-call set-up, untraced
            tracemalloc.start()
            try:
                code = main([*argv, "--steps", str(rows)])
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert code == 0
        assert peak / rows < 300

    @pytest.mark.parametrize("scale, grid", [("log", "geomspace"), ("linear", "linspace")])
    def test_grid_memory_error_numerical_error(self, capsys, monkeypatch, scale, grid):
        import numpy as np

        def no_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(np, grid, no_memory)
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--from", "1e-11m", "--to", "1e-9m", "--steps", "5",
            "--scale", scale, "--depth", "13.6eV", "--mass", "me",
        ])
        assert (code, out) == (2, "")
        assert "cannot allocate the columns of --steps 5 (Unable to allocate" in err


def naive_csv(table, out):
    """The sweep CSV with one repr per cell, empty for NaN."""
    columns = [column.tolist() for column in table.columns.values()]
    out.write(",".join(CSV_HEADER) + "\n")
    for i, code in enumerate(table.flags.tolist()):
        cells = ["" if math.isnan(column[i]) else repr(column[i]) for column in columns]
        out.write(",".join([*cells, ";".join(ROW_FLAGS[code])]) + "\n")


def naive_json(table, out):
    """The sweep JSON document with one json.dumps of a dict per row, null for NaN."""
    names = [*table.columns, "flags"]
    columns = [column.tolist() for column in table.columns.values()]
    out.write('{"rows": [')
    for i, code in enumerate(table.flags.tolist()):
        cells = [None if math.isnan(column[i]) else column[i] for column in columns]
        row = dict(zip(names, [*cells, ROW_FLAGS[code]]))
        out.write((", " if i else "") + json.dumps(row, allow_nan=False))
    out.write("]}\n")


def naive_render(table, out, as_json):
    (naive_json if as_json else naive_csv)(table, out)


def first_difference(fast, naive):
    """None where the two documents are equal, else the offset of their first
    difference and 60 characters of each around it: pytest's own diff of two
    documents of several blocks takes minutes."""
    if fast == naive:
        return None
    at = next((i for i, (x, y) in enumerate(zip(fast, naive)) if x != y),
              min(len(fast), len(naive)))
    return at, fast[max(at - 60, 0):at + 60], naive[max(at - 60, 0):at + 60]


NAN = math.nan
# A NaN with a payload: every NaN is one empty cell, whatever its bits.
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]


def hand_table(**columns):
    """A two-row SweepTable: the given columns, 1.5 and 2.5 in the others;
    the first row has no flag, the second overflow and near_pole."""
    filled = {name: np.array(columns.get(name, [1.5, 2.5])) for name in CSV_HEADER[:-1]}
    return SweepTable(filled, np.array([0, 3], dtype=np.uint8))


BLOCK = cli._BLOCK_ROWS


def block_table():
    """A SweepTable of three blocks plus one row with every flag code: K_m is
    constant in each block but not across them, a_m copies param but for the
    sign of one zero in the last block, and R is empty on both sides of each
    block boundary."""
    rows = 3 * BLOCK + 1
    index = np.arange(rows)
    columns = {name: np.linspace(1.0, 2.0, rows) for name in CSV_HEADER[:-1]}
    columns["param"] = (index % 5) * 0.25
    columns["a_m"] = columns["param"].copy()
    columns["a_m"][3 * BLOCK - 2] = -0.0
    columns["K_m"] = (index // BLOCK) * 0.5
    columns["R"][(index % BLOCK == 0) | (index % BLOCK == BLOCK - 1)] = NAN
    return SweepTable(columns, np.resize(np.arange(len(ROW_FLAGS), dtype=np.uint8), rows))


HAND_TABLES = {
    "constant": hand_table(K_m=[5.25e-11, 5.25e-11], n=[-3.0, -3.0]),
    "repeats_earlier": hand_table(param=[1e-11, 2e-11], a_m=[1e-11, 2e-11], R=[1e-11, 2e-11]),
    "signed_zero_constant": hand_table(K_m=[0.0, -0.0], xi=[-0.0, 0.0]),
    "signed_zero_repeat": hand_table(param=[0.0, 1.0], a_m=[-0.0, 1.0], n=[0.0, -0.0]),
    "zero_constant": hand_table(K_m=[0.0, 0.0], xi=[-0.0, -0.0]),
    "nan": hand_table(P_N=[NAN, -NAN], dEdP_m=[PAYLOAD_NAN, 1.0], R=[-NAN, PAYLOAD_NAN],
                      E_J=[1.0, -NAN]),
    "shared_nan": hand_table(param=[NAN, 1.0], a_m=[-NAN, 1.0], xi=[PAYLOAD_NAN, 1.0]),
    "inf": hand_table(P_N=[math.inf, math.inf], dEdP_m=[-math.inf, math.inf],
                      R=[math.inf, math.inf]),
    "none": hand_table(P_N=[NAN, 1.0], dEdP_m=[NAN, 1.0], R=[NAN, NAN], xi=[2.0, NAN]),
    "mixed": hand_table(param=[1.0, 2.0], a_m=[1.0, 2.0], n=[1.0, 1.0], K_m=[1.0, 1.0],
                        xi=[0.0, 0.0], E_J=[NAN, 2.0], E_over_V0=[NAN, 2.0]),
    "block_boundaries": block_table(),
}


CELLS = st.one_of(st.sampled_from([NAN, -NAN, PAYLOAD_NAN, 0.0, -0.0]),
                  st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def sweep_tables(draw):
    """A SweepTable of one row to three blocks plus one.  Each column is free
    (cells drawn from a small pool), constant, constant in each block, free
    but empty on both sides of each block boundary, or a copy of an earlier
    column: as is, or with the sign of each zero flipped from some row on.
    The flags cycle through every code."""
    rows = draw(st.sampled_from([1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 1])
                | st.integers(1, 3 * BLOCK + 1))
    index = np.arange(rows)
    columns = {}
    for name in CSV_HEADER[:-1]:
        kind = draw(st.sampled_from(["free", "constant", "blocks", "boundaries"]
                                    + ["copy", "flipped"] * bool(columns)))
        if kind in ("copy", "flipped"):
            column = columns[draw(st.sampled_from(sorted(columns)))].copy()
            if kind == "flipped":
                column[(index >= draw(st.integers(0, rows - 1))) & (column == 0.0)] *= -1.0
        else:
            pool = np.array(draw(st.lists(CELLS, min_size=1, max_size=6)))
            if kind == "constant":
                column = np.full(rows, pool[0])
            elif kind == "blocks":
                column = pool[index // BLOCK % len(pool)]
            else:
                seed = draw(st.integers(0, 2**32 - 1))
                column = pool[np.random.default_rng(seed).integers(len(pool), size=rows)]
                if kind == "boundaries":
                    column[(index % BLOCK == 0) | (index % BLOCK == BLOCK - 1)] = NAN
        columns[name] = column
    codes = np.array(draw(st.permutations(range(len(ROW_FLAGS)))), dtype=np.uint8)
    return SweepTable(columns, np.resize(codes, rows))


class TestRenderCsv:
    """_render writes exactly what one repr per cell (CSV) or one json.dumps
    per row (JSON) would, NaN as an empty cell; infinity tables are CSV only,
    since no sweep gives them to the renderer."""

    @pytest.mark.parametrize("name", HAND_TABLES)
    def test_hand_built_tables(self, name):
        table = HAND_TABLES[name]
        finite = not any(np.isinf(column).any() for column in table.columns.values())
        for as_json in (False, True) if finite else (False,):
            fast, naive = io.StringIO(), io.StringIO()
            cli._render(table, fast, as_json)
            naive_render(table, naive, as_json)
            assert first_difference(fast.getvalue(), naive.getvalue()) is None, as_json

    @settings(max_examples=150)
    @given(sweep_tables(), st.booleans())
    @example(SweepTable({**HAND_TABLES["mixed"].columns, "a_m": np.array([NAN, -0.0]),
                         "E_J": np.array([NAN, -0.0]), "R": np.array([NAN, -0.0])},
                        np.array([7, 0], dtype=np.uint8)), True)
    def test_random_tables(self, table, as_json):
        fast, naive = io.StringIO(), io.StringIO()
        cli._render(table, fast, as_json)
        naive_render(table, naive, as_json)
        assert first_difference(fast.getvalue(), naive.getvalue()) is None

    def test_signed_zeros_keep_their_sign(self):
        out = io.StringIO()
        cli._render(HAND_TABLES["signed_zero_constant"], out, False)
        rows = [dict(zip(CSV_HEADER, line.split(","))) for line in out.getvalue().splitlines()[1:]]
        assert [(row["K_m"], row["xi"]) for row in rows] == [("0.0", "-0.0"), ("-0.0", "0.0")]

    @pytest.mark.parametrize("variant", ["consistent", "printed"])
    @pytest.mark.parametrize("sweep", [
        ["--param", "width", "--from", "1e-11m", "--to", "1e-9m", "--scale", "log",
         "--depth", "13.6058eV", "--mass", "me", "--gamma", "0.5"],
        ["--param", "width", "--from", "1e-250m", "--to", "1e-10m", "--depth", "13.6eV",
         "--mass", "me"],
        ["--param", "depth", "--from", "1eV", "--to", "100eV", "--width", "0.529angstrom",
         "--mass", "me", "--gamma", "0.9"],
        ["--param", "mass", "--from", "1e-31kg", "--to", "1e-29kg", "--width", "0.529angstrom",
         "--depth", "13.6eV"],
        ["--param", "gamma", "--from", "0", "--to", "1", *HYDROGEN_FLAGS],
    ])
    def test_sweeps_match_naive_renderer(self, capsys, monkeypatch, sweep, variant):
        for fmt in ([], ["--json"]):
            argv = ["sweep", *sweep, "--steps", "40", "--variant", variant, *fmt]
            code, fast, _ = run(capsys, argv)
            with monkeypatch.context() as patch:
                patch.setattr(cli, "_render", naive_render)
                assert run(capsys, argv) == (code, fast, ""), fmt

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_non_finite_cell_is_refused_before_output(self, capsys, monkeypatch, fmt):
        # An unflagged inf from a column function: CSV printed it and exited 0,
        # and JSON failed only after writing the rows before it.
        real = finwell.sweep.pressure_columns

        def unflagged_inf(*args):
            p, dedp, near_pole, overflow = real(*args)
            p = p.copy()
            p[2] = math.inf
            return p, dedp, near_pole, overflow

        monkeypatch.setattr(finwell.sweep, "pressure_columns", unflagged_inf)
        code, out, err = run(capsys, ["sweep", "--param", "width", "--from", "1e-11m",
                                      "--to", "1e-9m", "--steps", "5", "--depth", "13.6eV",
                                      "--mass", "me", *fmt])
        assert (code, out) == (2, "")
        assert "P_N is not finite" in err


class TestVerify:
    EXPECTED = {
        "pressure-series-v0": "discrepant",
        "dedp-printed-k0-limit": "discrepant",
        "small-width-expansion": "consistent",
        "small-k-expansion-third-term": "discrepant",
        "critical-width": "discrepant",
    }

    def test_verdicts(self, capsys):
        code, out, _ = run(capsys, ["verify", "--json"])
        assert code == 0
        checks = {c["check_id"]: c for c in json.loads(out, parse_constant=reject_constant)["checks"]}
        assert {k: c["verdict"] for k, c in checks.items()} == self.EXPECTED

    def test_critical_width_values(self, capsys):
        _, out, _ = run(capsys, ["verify", "--json"])
        checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
        cw = checks["critical-width"]
        assert cw["printed"] == pytest.approx(2.476601, rel=1e-6)
        assert cw["rederived"] == pytest.approx(0.887182, abs=1e-4)

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, ["verify"])
        assert code == 0
        assert "discrepant" in out and "consistent" in out
        for check_id in self.EXPECTED:
            assert check_id in out

    def test_json_matches_human(self, capsys):
        _, human, _ = run(capsys, ["verify"])
        _, machine, _ = run(capsys, ["verify", "--json"])
        checks = {c["check_id"]: c for c in json.loads(machine)["checks"]}
        for line in human.strip().splitlines()[1:]:
            fields = line.split()
            check = checks[fields[0]]
            assert float(fields[1]) == pytest.approx(check["printed"], rel=1e-5)
            assert float(fields[2]) == pytest.approx(check["rederived"], rel=1e-5)
            assert fields[4] == check["verdict"]


class TestTopLevel:
    def test_no_command_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 3

    def test_unknown_command_usage(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 3

    def test_parser_reused_across_calls(self, capsys):
        # One parser per process; consecutive commands print what fresh processes print.
        commands = [
            ["hydrogen"],
            ["sweep", "--param", "gamma", "--from", "0", "--to", "1", "--steps", "3",
             "--width", "1e-10m", "--depth", "13.6eV", "--mass", "me", "--json"],
            ["verify", "--json"],
            ["spectrum", "--preset", "hydrogen"],
        ]
        in_process = [run(capsys, argv)[:2] for argv in commands]
        for argv, (code, out) in zip(commands, in_process):
            proc = subprocess.run(
                [sys.executable, "-m", "finwell.cli", *argv], capture_output=True, text=True,
            )
            assert (code, out) == (proc.returncode, proc.stdout)
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("fmt", [[], ["--json"]])
    def test_closed_stdout(self, fmt):
        # The reader stops after a few bytes, as `finwell sweep ... | head` does.
        proc = subprocess.Popen(
            [sys.executable, "-m", "finwell.cli", "sweep", "--param", "width",
             "--from", "1e-11m", "--to", "1e-9m", "--steps", "20000",
             "--depth", "13.6eV", "--mass", "me", *fmt],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(64)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == EXIT_BROKEN_PIPE
        assert b"Traceback" not in err and err == b""

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["sweep", "--param", "width", "--from", "1e-11m", "--to", "1e-9m", "--steps", "2000",
         "--depth", "13.6eV", "--mass", "me"],
        ["sweep", "--param", "gamma", "--from", "0", "--to", "1", "--steps", "3",
         *HYDROGEN_FLAGS, "--json"],
    ])
    def test_full_stdout(self, argv):
        # A failed write other than to a closed pipe ended in an OSError traceback.
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "finwell.cli", *argv],
                                  stdout=full, stderr=subprocess.PIPE, text=True)
        assert proc.returncode == 1
        assert proc.stderr == (f"finwell {argv[0]}: error: cannot write output: "
                               f"{os.strerror(errno.ENOSPC)}\n")

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finwell.cli", "hydrogen", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "Ionizes"
