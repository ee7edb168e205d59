"""Every command but the sweep runs without importing numpy, dataclasses or inspect.

Only the sweep's array path imports numpy, inside the functions that build
arrays; a module-level `import numpy` in any finwell module would load it for
every command and double the start-up time.  The records are named tuples:
one `@dataclass` would load dataclasses and inspect, which with the classes
they build cost about two thirds of finwell's own import time.  typing is not
checked, because a site hook of the interpreter may load it before finwell.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import finwell

SRC = str(Path(finwell.__file__).resolve().parent.parent)


def cli_call(*argv: str) -> str:
    return f"from finwell.cli import main; assert main({list(argv)!r}) == 0"


NUMPY_FREE = {
    "import finwell": "import finwell",
    "import finwell.cli": "import finwell.cli",
    "import finwell.audit": "import finwell.audit",
    "hydrogen": cli_call("hydrogen"),
    "verify": cli_call("verify"),
    "fit --paper": cli_call("fit", "--paper"),
    "fit": cli_call("fit"),
    "fit --json": cli_call("fit", "--json"),
    "fit --grid": cli_call("fit", "--grid", "1.5:10:16"),
    "spectrum --preset": cli_call("spectrum", "--preset", "hydrogen"),
    "spectrum --branch 1": cli_call(
        "spectrum", "--branch", "1", "--width", "2e-9m", "--depth", "20eV", "--mass", "me"
    ),
    "dR/dP": (
        "import finwell as fw; h = fw.hydrogen_well(); K = fw.well_strength(h).characteristic_length\n"
        "fw.probability_pressure_derivative(fw.WellConfig(2 * K, h.depth, h.mass), fw.PAPER_FIT, 0.5)"
    ),
    "dE/dP": (
        "import finwell as fw; h = fw.hydrogen_well(); K = fw.well_strength(h).characteristic_length\n"
        "fw.pressure_profile(h.half_width, K, fw.PAPER_FIT, h.depth)\n"
        "t_pole = fw.critical_width(1.0, fw.PAPER_FIT, 'numeric').pole_location\n"
        "for t in (t_pole, 1e100):\n"
        "    try: fw.denergy_dpressure(t, 1.0, fw.PAPER_FIT)\n"
        "    except fw.FinwellError: pass\n"
        "    else: raise AssertionError(t)"
    ),
}


SLOW_IMPORTS = ("numpy", "dataclasses", "inspect")


def slow_imports_after(code: str, modules=SLOW_IMPORTS) -> set[str]:
    """Which of modules a fresh interpreter has loaded after running code."""
    check = f"import sys; print(*(m for m in {modules!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{check}"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC}, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("code", NUMPY_FREE.values(), ids=NUMPY_FREE.keys())
def test_scalar_path_does_not_import_numpy(code):
    assert slow_imports_after(code) == set()


def test_array_commands_still_run():
    sweep = ("sweep", "--param", "width", "--from", "1e-10m", "--to", "2e-10m",
             "--steps", "3", "--depth", "13.6eV", "--mass", "me", "--gamma", "0.5")
    assert "numpy" in slow_imports_after(cli_call(*sweep))


def test_sweep_table_loads_no_cli():
    # The sweep as a library call, flagged rows included, needs neither the
    # CLI nor its argument parser.
    code = (
        "import numpy as np\n"
        "from finwell import CONSTANTS, sweep_table\n"
        "table = sweep_table('width', np.geomspace(1e-80, 1e-10, 50), gamma=0.5,\n"
        "                    depth=13.6 * CONSTANTS.electronvolt, mass=CONSTANTS.electron_mass)\n"
        "assert len(table) == 50 and any(table.flags), table.flags"
    )
    assert slow_imports_after(code, ("finwell.cli", "argparse")) == set()
