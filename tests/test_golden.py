"""Sweep output against golden fixtures from the per-row scalar implementation.

``golden/cases.json`` lists each sweep's argv, exit code and output file; the
outputs were written by the scalar per-row sweep that the array path
replaced.  Columns computed by the same expressions must match bit for bit;
the root, energies and R may move by a few ulps (Newton end-point, numpy's
sin/sinh/exp against libm); dE/dP may move by the rounding of its summed
terms (powers of a/K are now products), which is large next to its zero
and its pole.
"""

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import pytest

from finwell import PAPER_FIT, load_coefficients
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
