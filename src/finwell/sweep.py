"""Parameter sweeps: the array functions over a grid of one well parameter,
with the empty cells and the flags of each row.  Rendering is the caller's.
"""

from __future__ import annotations

import math

from .errors import DomainError, NumericalError, check_columns
from .fitseries import PAPER_FIT, FitCoefficients
from .pressure import pressure_columns
from .probability import probability_columns
from .spectrum import ground_states

# The table's columns, in output order; each holds one value per row.
COLUMNS = ("param", "a_m", "n", "K_m", "xi", "E_J", "E_over_V0", "P_N", "dEdP_m", "R")

_FLAG_NAMES = ("overflow", "near_pole", "fit_out_of_range")
# A row's flag names, indexed by its flag code: bit k of the code sets _FLAG_NAMES[k].
ROW_FLAGS = tuple(tuple(name for bit, name in enumerate(_FLAG_NAMES) if code >> bit & 1)
                  for code in range(1 << len(_FLAG_NAMES)))


class SweepTable:
    """Sweep output as columns: one float64 array per name in COLUMNS, NaN
    in each empty cell and nowhere else.

    flags holds each row's flag code, a small int that indexes ROW_FLAGS
    (0 for a row with no flag); len(table) is the row count.
    """

    __slots__ = ("columns", "flags")

    def __init__(self, columns: dict[str, np.ndarray], flags: np.ndarray) -> None:
        self.columns = columns
        self.flags = flags

    def __len__(self) -> int:
        return len(self.flags)


def sweep_table(
    param: str, values, *, width: float | None = None, depth: float | None = None,
    mass: float | None = None, gamma: float | None = None,
    coeffs: FitCoefficients = PAPER_FIT, variant: str = "consistent",
) -> SweepTable:
    """The ground state, P, dE/dP and R of a sweep of param over values.

    param is "width", "depth", "mass" or "gamma"; values is a non-empty 1-D
    sequence of its SI values.  Of width (the half-width), depth and mass,
    the two not swept are required, each one SI number; gamma is optional
    and fills the R column.  variant picks the dE/dP form, as in
    pressure_columns.

    Every row is kept.  A row whose P or dE/dP leaves the float range, or
    whose R does, is flagged "overflow" and those cells are empty; dE/dP on
    its pole is flagged "near_pole" and empty; R where the fit predicts
    E > V0 is flagged "fit_out_of_range" and empty.  Any other non-finite
    cell raises NumericalError, and a bad argument DomainError.
    """
    import numpy as np
    fixed = {"width": width, "depth": depth, "mass": mass, "gamma": gamma}
    if param not in fixed:
        raise DomainError(f"param must be one of {', '.join(fixed)}, got {param!r}")
    if fixed[param] is not None:
        raise DomainError(f"{param} is swept and cannot also be fixed")
    missing = [name for name in ("width", "depth", "mass")
               if name != param and fixed[name] is None]
    if missing:
        raise DomainError(f"a {param} sweep needs a fixed {' and '.join(missing)}")
    for name, value in fixed.items():
        if np.ndim(value):
            raise DomainError(f"fixed {name} must be one number, got shape {np.shape(value)}")
    values = np.asarray(values, dtype=float)
    check_columns("values", values)
    if not values.size:
        raise DomainError("a sweep needs at least one value")
    steps = values.size
    fixed[param] = values
    a, V0, m, g = (None if x is None else np.broadcast_to(np.asarray(x, dtype=float), (steps,))
                   for x in fixed.values())
    states = ground_states(a, V0, m)
    K = states.characteristic_length
    p, dedp, near_pole, overflow = pressure_columns(a, K, coeffs, V0, variant)
    no = np.zeros(steps, dtype=bool)
    if g is None:  # no R column: every cell of it is empty
        R, out_of_range, r_overflow, r_empty = np.broadcast_to(math.nan, (steps,)), no, no, ~no
    else:
        R, out_of_range, r_overflow = probability_columns(a, K, coeffs, m, V0, g)
        r_empty = out_of_range | r_overflow
    columns = dict(zip(COLUMNS, (values, a, states.strength, K, states.xi, states.energy,
                                 states.energy_ratio, p, dedp, R)))
    empty = {"P_N": overflow, "dEdP_m": near_pole | overflow, "R": r_empty}
    for name, column in columns.items():  # before any table exists
        bad = np.flatnonzero(~np.isfinite(column) & ~empty.get(name, no))
        if len(bad):
            raise NumericalError(f"{name} is not finite at {param} = {values[bad[0]]:.6g}")
    # Each column function puts NaN in the cells it flags, so after the check
    # above a cell is NaN exactly where it is empty.  Bit k of a row's flag
    # code is its mask named _FLAG_NAMES[k].
    masks = np.stack((overflow | r_overflow, near_pole, out_of_range), axis=1)
    return SweepTable(columns, np.packbits(masks, axis=1, bitorder="little")[:, 0])
