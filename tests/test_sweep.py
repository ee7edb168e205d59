"""sweep_table as a library call, and the shape and domain check of every array entry point.

The library sweep must render to the bytes that `finwell sweep` writes for
the same grid; the CLI adds only flag parsing, the grid and the renderer.
"""

import io
import math

import numpy as np
import pytest

from finwell import (
    PAPER_FIT,
    DomainError,
    ground_states,
    parse_quantity,
    pressure_columns,
    probability_columns,
    solve_ground_roots,
    sweep_table,
)
import finwell.cli as cli

STEPS = 30

# For each swept name: --from, --to, --scale, and the fixed flags.  The width
# sweep reaches 2 a beta overflow, so some of its rows are flagged.
LIBRARY_SWEEPS = {
    "width": ("1e-80m", "1e-9m", "log", {"depth": "13.6058eV", "mass": "me", "gamma": "0.5"}),
    "depth": ("1eV", "100eV", "linear", {"width": "0.529angstrom", "mass": "me", "gamma": "0.9"}),
    "mass": ("1e-31kg", "1e-29kg", "log", {"width": "0.529angstrom", "depth": "13.6eV"}),
    "gamma": ("0", "1", "linear", {"width": "0.529angstrom", "depth": "13.6058eV", "mass": "me"}),
}


def si(text):
    return parse_quantity("1me" if text == "me" else text).value


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("param", LIBRARY_SWEEPS)
def test_library_sweep_renders_as_the_cli(capsys, param, as_json):
    start, stop, scale, fixed = LIBRARY_SWEEPS[param]
    argv = ["sweep", "--param", param, "--from", start, "--to", stop, "--scale", scale,
            "--steps", str(STEPS), *(f for name, value in fixed.items()
                                     for f in (f"--{name}", value))]
    code = cli.main(argv + ["--json"] * as_json)
    written = capsys.readouterr().out
    assert code == 0 and written
    grid = (np.geomspace if scale == "log" else np.linspace)(si(start), si(stop), STEPS)
    tables = [sweep_table(param, values, **{name: si(value) for name, value in fixed.items()})
              for values in (grid, grid.tolist())]
    if param == "width":
        assert any(tables[0].flags) and not all(tables[0].flags)
    for table in tables:
        assert len(table) == STEPS
        out = io.StringIO()
        cli._render(table, out, as_json)
        assert out.getvalue() == written


GRID = np.geomspace(1e-11, 1e-9, 5)
HYDROGEN = {"depth": si("13.6058eV"), "mass": si("me")}


@pytest.mark.parametrize("call", [
    lambda: sweep_table("height", GRID, **HYDROGEN),
    lambda: sweep_table("width", GRID, width=1e-10, **HYDROGEN),
    lambda: sweep_table("gamma", [0.5], gamma=0.5, width=1e-10, **HYDROGEN),
    lambda: sweep_table("width", GRID, depth=HYDROGEN["depth"]),
    lambda: sweep_table("width", GRID, mass=HYDROGEN["mass"], gamma=0.5),
    lambda: sweep_table("depth", GRID, mass=HYDROGEN["mass"]),
    lambda: sweep_table("mass", GRID, width=1e-10),
    lambda: sweep_table("width", [], **HYDROGEN),
    lambda: sweep_table("width", np.array([]), **HYDROGEN),
    lambda: sweep_table("width", GRID, depth=np.full(2, HYDROGEN["depth"]), mass=si("me")),
    lambda: sweep_table("width", GRID, variant="rounded", **HYDROGEN),
], ids=["unknown-param", "swept-also-fixed", "gamma-also-fixed", "no-mass", "no-depth",
        "no-width", "no-width-or-depth", "empty-list", "empty-array", "fixed-array",
        "unknown-variant"])
def test_sweep_table_domain_errors(call):
    with pytest.raises(DomainError):
        call()


# A valid column of any positive quantity, and columns that no array entry
# point accepts in place of one of its arguments.
ONES = np.array([1.0, 2.0, 3.0])
BAD_COLUMNS = {
    "0-d": np.float64(2.0),
    "float": 2.0,
    "2-d": np.ones((2, 3)),
    "unequal": np.ones(2),
    "negative": np.array([1.0, -2.0, 3.0]),
    "zero": np.array([1.0, 0.0, 3.0]),
    "nan": np.array([1.0, math.nan, 3.0]),
}
ENTRY_POINTS = {
    "solve_ground_roots": solve_ground_roots,
    "ground_states": lambda bad: ground_states(ONES, ONES, bad),
    "pressure_columns-a": lambda bad: pressure_columns(bad, ONES, PAPER_FIT, ONES),
    "pressure_columns-V0": lambda bad: pressure_columns(ONES, ONES, PAPER_FIT, bad),
    "probability_columns-m": lambda bad: probability_columns(
        ONES, ONES, PAPER_FIT, bad, ONES, 0.5 * ONES),
    "probability_columns-gamma": lambda bad: probability_columns(
        ONES, ONES, PAPER_FIT, ONES, ONES, 0.25 * bad),
    "sweep_table": lambda bad: sweep_table("mass", bad, width=1e-10, depth=1e-18),
}
# A single column has no length to disagree with, and gamma = 0 is in range.
VALID = {("solve_ground_roots", "unequal"), ("sweep_table", "unequal"),
         ("probability_columns-gamma", "zero")}


@pytest.mark.parametrize("kind", BAD_COLUMNS)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_array_entry_points_refuse_bad_columns(entry, kind):
    if (entry, kind) in VALID:
        ENTRY_POINTS[entry](BAD_COLUMNS[kind])
        return
    with pytest.raises(DomainError):
        ENTRY_POINTS[entry](BAD_COLUMNS[kind])
