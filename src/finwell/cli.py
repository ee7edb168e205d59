"""Command-line surface: flag parsing and rendering for the finwell commands.

Commands:
    spectrum   solve one bound state for a configured well
    fit        refit the inverse-power series, or emit the published set
    hydrogen   reproduce the worked hydrogen-atom numbers
    sweep      parameter sweep as plot-ready CSV or JSON (schema below)
    verify     printed-vs-rederived consistency report

Every value flag (--width, --depth, --mass, --from, --to, --gamma) takes
<number><unit> in the grammar of units.parse_quantity, e.g. 0.529angstrom;
a bare unit means one of it (--mass me), and --gamma has no unit.

Every command accepts --json; JSON and human output carry the same numbers.
Exit codes: 0 ok, 1 domain error (also a write to stdout that fails other
than by a closed pipe, e.g. on a full disk), 2 numerical failure (also a
value that overflows the float range, or a nonzero one that underflows to 0
in SI units, or a sweep --steps too large to allocate), 3 usage, 141 stdout
closed by its reader (e.g. `finwell sweep ... | head`).

Sweep CSV schema (header exactly):
    param,a_m,n,K_m,xi,E_J,E_over_V0,P_N,dEdP_m,R,flags
Columns that do not apply stay empty; flags are semicolon-separated.  With
--json: {"rows": [{<CSV columns>, "flags": [...]}]}, null for an empty cell.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

from .audit import build_verify_report, hydrogen_report
from .errors import DomainError, MalformedNumber, NumericalError, UnknownUnit
from .fitseries import (
    DEFAULT_GRID,
    FitCoefficients,
    FitGrid,
    PAPER_FIT,
    dump_coefficients,
    load_coefficients,
    refit,
)
from .spectrum import WellConfig, energy_exact, hydrogen_well, well_strength
from .sweep import COLUMNS, ROW_FLAGS, SweepTable, sweep_table
from .units import CONSTANTS, Dimension, parse_quantity, quantity

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

CSV_HEADER = [*COLUMNS, "flags"]

# Sweep rows converted and written at a time: small, so that the text of one
# block stays small next to the table's float64 columns.
_BLOCK_ROWS = 256

_PARAM_DIMENSION = {
    "width": Dimension.LENGTH,
    "depth": Dimension.ENERGY,
    "mass": Dimension.MASS,
    "gamma": Dimension.DIMENSIONLESS,
}

# Options whose value is a quantity; their value token is glued
# with '=' before argparse sees it, so that e.g. `--width -1m` or `--gamma
# -1e-05` reaches the domain check instead of being mistaken for an option.
_VALUE_OPTS = {"--width", "--depth", "--mass", "--from", "--to", "--gamma"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _merge_value_flags(argv: list[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _quantity_flag(text: str, flag: str, dimension: Dimension) -> float:
    """SI value of a quantity flag of the given dimension."""
    try:
        q = parse_quantity(text)
    except MalformedNumber:
        unit = text.strip()
        try:  # a bare unit is one of it: `--mass me` is 1me
            q = quantity(1.0, unit) if unit else None
        except UnknownUnit:
            q = None
        if q is None:
            raise MalformedNumber(f"could not parse quantity '{text}'") from None
    if q.dimension is not dimension:
        raise DomainError(f"{flag} must be a {dimension.value}, got {q.dimension.value}")
    return q.value


def _quantity_flags(args: argparse.Namespace, names: tuple[str, ...],
                    defaults: dict[str, float | None]) -> dict[str, float | None]:
    """SI value of each named flag, or its default where the flag is absent.

    An absent flag with no default is a usage error that names every such flag.
    """
    missing = [f"--{name}" for name in names
               if getattr(args, name) is None and name not in defaults]
    if missing:
        raise _UsageError(f"missing required flag(s): {', '.join(missing)}")
    return {name: defaults.get(name) if getattr(args, name) is None
            else _quantity_flag(getattr(args, name), f"--{name}", _PARAM_DIMENSION[name])
            for name in names}


# json.dumps(value, allow_nan=False) without a new encoder on every call
_encode = json.JSONEncoder(allow_nan=False).encode


def _json(value) -> str:
    """JSON text of value; NumericalError where it holds a NaN or an infinity."""
    try:
        return _encode(value)
    except ValueError as exc:
        raise NumericalError(f"no JSON for a non-finite value ({exc})") from None


def _emit(values: dict, as_json: bool) -> None:
    if as_json:
        print(_json(values))
        return
    width = max(len(k) for k in values)
    for key, value in values.items():
        rendered = f"{value:.9g}" if isinstance(value, float) else str(value)
        print(f"{key:<{width}} = {rendered}")


def cmd_spectrum(args: argparse.Namespace) -> int:
    preset = {}
    if args.preset == "hydrogen":
        h = hydrogen_well()
        preset = {"width": h.half_width, "depth": h.depth, "mass": h.mass}
    well = _quantity_flags(args, ("width", "depth", "mass"), preset)
    cfg = WellConfig(well["width"], well["depth"], well["mass"])
    strength = well_strength(cfg)
    state = energy_exact(cfg, args.branch)
    energy_ev = state.energy / CONSTANTS.electronvolt
    if math.isinf(energy_ev):
        raise NumericalError(f"E in eV overflows at E = {state.energy:.6g} J")
    values = {
        "n": strength.strength,
        "K_m": strength.characteristic_length,
        "xi": state.xi,
        "eta": state.eta,
        "E_J": state.energy,
        "E_eV": energy_ev,
        "E_over_V0": state.energy_ratio,
    }
    _emit(values, args.json)
    return EXIT_OK


def _parse_grid(text: str) -> FitGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"--grid expects start:stop:count, got '{text}'")
    try:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise _UsageError(f"--grid expects numeric start:stop:count, got '{text}'") from None
    return FitGrid(start, stop, count)


def cmd_fit(args: argparse.Namespace) -> int:
    if args.paper:
        coeffs = PAPER_FIT
    else:
        grid = _parse_grid(args.grid) if args.grid else DEFAULT_GRID
        coeffs = refit(grid)
    if args.out:
        dump_coefficients(coeffs, args.out)
    if args.json:
        print(_json(coeffs.to_dict()))
    else:
        values = {f"c{i}": c for i, c in enumerate(coeffs.c)}
        values["sigma"] = coeffs.sigma
        values["source"] = coeffs.source
        if coeffs.grid is not None:
            g = coeffs.grid
            values["grid"] = f"{g.n_start:g}:{g.n_stop:g}:{g.n_count}"
        _emit(values, as_json=False)
    return EXIT_OK


def cmd_hydrogen(args: argparse.Namespace) -> int:
    values = hydrogen_report()
    _emit(values, args.json)
    return EXIT_OK if values["reproduced"] else EXIT_NUMERICAL


def _sweep_rows(
    args: argparse.Namespace,
    base: dict[str, float | None],
    start: float,
    stop: float,
    coeffs: FitCoefficients,
) -> SweepTable:
    """The sweep of args.param from start to stop, the other parameters fixed."""
    import numpy as np
    steps = args.steps
    try:  # numpy refuses a grid too large to index (ValueError) or to allocate
        values = (np.geomspace if args.scale == "log" else np.linspace)(start, stop, steps)
    except (MemoryError, ValueError) as exc:
        raise NumericalError(f"cannot allocate the columns of --steps {steps} ({exc})") from None
    return sweep_table(args.param, values, **base, coeffs=coeffs, variant=args.variant)


def _render(table: SweepTable, out, as_json: bool) -> None:
    """The sweep as CSV or as the {"rows": [...]} JSON document.

    Both write repr of each float, and empty or null for NaN.  A row is a
    fixed run of literal text (the separators, and in JSON the ', "name": '
    keys) with one column's cell text between each two literals.  The
    columns are looked at once per table, as int64 bit patterns with every
    NaN as one: a column of one pattern is merged as text into the literal
    before it, and a column equal to an earlier one takes that column's
    text, so repr runs once per cell of each distinct column.  The rows are
    then converted, repr'd and written _BLOCK_ROWS at a time, so no more than
    one block of cells is ever held as Python floats or text.  Cells are not
    checked here: sweep.sweep_table refuses a table with a non-finite cell
    that is not empty.
    """
    import numpy as np
    empty = "null" if as_json else ""
    if as_json:
        leads = [f", {_json(name)}: " for name in CSV_HEADER]
        leads[0] = ", {" + leads[0].removeprefix(", ")
        head, sep, end, tail = '{"rows": [', ", ", "}", "]}\n"
    else:
        leads = [""] + [","] * (len(CSV_HEADER) - 1)
        head, sep, end, tail = ",".join(CSV_HEADER) + "\n", "", "\n", ""
    nan_bits = np.float64(math.nan).view(np.int64)

    def bits(column):  # equal patterns render as equal text
        return np.where(np.isnan(column), nan_bits, column.view(np.int64))

    literals, sources, distinct = [""], [], []  # literals[k] precedes stream k
    for lead, column in zip(leads, table.columns.values()):
        literals[-1] += lead
        pattern = bits(column)
        if (pattern == pattern[0]).all():
            literals[-1] += empty if pattern[0] == nan_bits else repr(float(column[0]))
            continue
        source = next((k for k, (other, first, _) in enumerate(distinct)
                       if first == pattern[0] and np.array_equal(pattern, bits(other))),
                      len(distinct))
        if source == len(distinct):
            distinct.append((column, pattern[0], (pattern == nan_bits).any()))
        sources.append(source)
        literals.append("")
    literals[-1] += leads[-1]
    shared = {k for k in sources if sources.count(k) > 1}
    flag_text = [_json(f) if as_json else ";".join(f) for f in ROW_FLAGS]
    out.write(head)
    for start in range(0, len(table), _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        texts = []
        for k, (column, _, has_nan) in enumerate(distinct):
            values = column[rows].tolist()
            text = ((empty if v != v else repr(v) for v in values) if has_nan
                    else map(repr, values))
            texts.append(list(text) if k in shared else text)
        parts = [itertools.repeat(literals[0])]
        for k, literal in zip(sources, literals[1:]):
            parts += [texts[k], itertools.repeat(literal)]
        parts += [map(flag_text.__getitem__, table.flags[rows].tolist()), itertools.repeat(end)]
        lines = map("".join, zip(*parts))
        if not start:
            out.write(next(lines).removeprefix(sep))
        out.writelines(lines)
    out.write(tail)


def cmd_sweep(args: argparse.Namespace) -> int:
    if getattr(args, args.param) is not None:
        raise _UsageError(f"--{args.param} conflicts with sweeping {args.param}")
    base = _quantity_flags(args, tuple(_PARAM_DIMENSION), {args.param: None, "gamma": None})
    dimension = _PARAM_DIMENSION[args.param]
    start = _quantity_flag(args.sweep_from, "--from", dimension)
    stop = _quantity_flag(args.sweep_to, "--to", dimension)
    if args.steps < 2:
        raise DomainError(f"sweep needs at least 2 steps, got {args.steps}")
    if not start < stop:
        raise DomainError("sweep start must be strictly below stop (SI units)")
    if args.scale == "log" and start <= 0.0:
        raise DomainError("log scale requires a positive start")

    coeffs = load_coefficients(args.coeffs) if args.coeffs else PAPER_FIT
    table = _sweep_rows(args, base, start, stop, coeffs)
    _render(table, sys.stdout, args.json)
    return EXIT_NUMERICAL if table.flags.all() else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checks = build_verify_report()
    if args.json:
        print(_json({"checks": [check._asdict() for check in checks]}))
        return EXIT_OK
    width = max(len(check.check_id) for check in checks)
    print(f"{'check':<{width}}  {'printed':>14}  {'rederived':>14}  {'rel.dev':>10}  verdict")
    for check in checks:
        print(
            f"{check.check_id:<{width}}  {check.printed:>14.6g}  "
            f"{check.rederived:>14.6g}  {check.relative_deviation:>10.3g}  {check.verdict}"
        )
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process on first use."""
    parser = _Parser(prog="finwell", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_spec = sub.add_parser("spectrum", help="solve one bound state")
    p_spec.add_argument("--width", help="half-width, e.g. 0.529angstrom")
    p_spec.add_argument("--depth", help="well depth, e.g. 13.6058eV")
    p_spec.add_argument("--mass", help="particle mass, e.g. me or 9.1e-31kg")
    p_spec.add_argument("--branch", type=int, default=0)
    p_spec.add_argument("--preset", choices=["hydrogen"])
    p_spec.add_argument("--json", action="store_true")
    p_spec.set_defaults(func=cmd_spectrum)

    p_fit = sub.add_parser("fit", help="refit or emit the published coefficients")
    p_fit.add_argument("--grid", help="start:stop:count, default 1:10:13")
    p_fit.add_argument("--paper", action="store_true",
                       help="emit the published coefficient set")
    p_fit.add_argument("--out", help="write the coefficients JSON here")
    p_fit.add_argument("--json", action="store_true")
    p_fit.set_defaults(func=cmd_fit)

    p_h = sub.add_parser("hydrogen", help="reproduce the hydrogen example")
    p_h.add_argument("--json", action="store_true")
    p_h.set_defaults(func=cmd_hydrogen)

    p_sweep = sub.add_parser("sweep", help="emit a parameter sweep as CSV, or JSON")
    p_sweep.add_argument("--param", required=True,
                         choices=["width", "depth", "mass", "gamma"])
    p_sweep.add_argument("--from", dest="sweep_from", required=True,
                         help="sweep start (quantity grammar)")
    p_sweep.add_argument("--to", dest="sweep_to", required=True,
                         help="sweep stop (quantity grammar)")
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--scale", choices=["linear", "log"], default="linear")
    p_sweep.add_argument("--width", help="fixed half-width")
    p_sweep.add_argument("--depth", help="fixed depth")
    p_sweep.add_argument("--mass", help="fixed mass")
    p_sweep.add_argument("--gamma", help="fixed interval fraction; enables the R column")
    p_sweep.add_argument("--coeffs", help="coefficients JSON (default: published set)")
    p_sweep.add_argument("--variant", choices=["consistent", "printed"],
                         default="consistent", help="dE/dP form for the dEdP_m column")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="printed-vs-rederived report")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def _drop_stdout() -> None:
    """Point stdout at devnull, so the flush at interpreter exit cannot fail again."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(_merge_value_flags(argv))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout (e.g. `| head`)
        _drop_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # any other failed write to stdout, e.g. on a full disk
        _drop_stdout()
        print(f"finwell {args.command}: error: cannot write output: {exc.strerror or exc}",
              file=sys.stderr)
        return EXIT_DOMAIN
    except _UsageError as exc:
        print(f"finwell {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"finwell {args.command}: domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"finwell {args.command}: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
