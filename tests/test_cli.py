import json
import subprocess
import sys

import pytest

from finwell import PAPER_FIT, critical_width, load_coefficients, well_strength, hydrogen_well
from finwell.cli import CSV_HEADER, main

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


class TestSpectrum:
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

    def test_json_matches_human(self, capsys):
        _, human, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS])
        _, machine, _ = run(capsys, ["spectrum", *HYDROGEN_FLAGS, "--json"])
        doc = json.loads(machine)
        values = parse_human(human)
        assert set(doc) == set(values)
        for key, val in doc.items():
            assert float(values[key]) == pytest.approx(val, rel=1e-8)


class TestFit:
    def test_default_sigma(self, capsys):
        code, out, _ = run(capsys, ["fit", "--json"])
        assert code == 0
        doc = json.loads(out)
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

    def test_small_grid_domain_error(self, capsys):
        code, _, _ = run(capsys, ["fit", "--grid", "1:10:11"])
        assert code == 1

    def test_malformed_grid_usage_error(self, capsys):
        code, _, _ = run(capsys, ["fit", "--grid", "1:10"])
        assert code == 3

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
        import finwell.cli as cli

        monkeypatch.setattr(cli, "HYDROGEN_K_REF", 1e-10)
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
        code, out, err = run(capsys, [
            "sweep", "--param", "width", "--from", "1e-250m", "--to", "1e-10m", "--steps", "3",
            "--depth", "13.6058eV", "--mass", "me",
        ])
        assert code == 2
        assert "numerical failure" in err and "pressure" in err
        assert out == ""

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
        code, _, _ = run(capsys, [
            "sweep", "--param", "gamma", "--from", "0", "--to", "1", "--steps", "3",
            *HYDROGEN_FLAGS, "--gamma", "0.5",
        ])
        assert code == 3

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
        checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
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

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "finwell.cli", "hydrogen", "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["classification"] == "Ionizes"
