"""Command-line surface: reproduction commands, sweeps, and the verify report.

Commands:
    spectrum   solve one bound state for a configured well
    fit        refit the inverse-power series, or emit the published set
    hydrogen   reproduce the worked hydrogen-atom numbers
    sweep      parameter sweep as plot-ready CSV (schema below)
    verify     printed-vs-rederived consistency report

Every command accepts --json; JSON and human output carry the same numbers.
Exit codes: 0 ok, 1 domain error, 2 numerical failure, 3 usage.

Sweep CSV schema (header exactly):
    param,a_m,n,K_m,xi,E_J,E_over_V0,P_N,dEdP_m,R,flags
Columns that do not apply stay empty; flags are semicolon-separated.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    MalformedNumber,
    NumericalError,
    UnknownUnit,
)
from .fitseries import (
    DEFAULT_GRID,
    FitCoefficients,
    FitGrid,
    PAPER_FIT,
    dump_coefficients,
    eval_fit,
    load_coefficients,
    refit,
)
from .pressure import (
    Response,
    classify_response,
    critical_width,
    denergy_dpressure,
    expansion_small_k,
    expansion_small_width,
    pressure_1d,
    pressure_columns,
)
from .probability import probability_columns
from .spectrum import WellConfig, energy_exact, ground_states, hydrogen_well, well_strength
from .units import (
    CONSTANTS,
    Dimension,
    Quantity,
    parse_quantity,
    quantity,
)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 3

CSV_HEADER = ["param", "a_m", "n", "K_m", "xi", "E_J", "E_over_V0", "P_N", "dEdP_m", "R", "flags"]

# Published reproduction targets for the hydrogen example, and the accepted
# relative deviation.
HYDROGEN_K_REF = 5.2918e-11      # m
HYDROGEN_A0_REF = 1.31056e-10    # m
HYDROGEN_RTOL = 2e-3

_PARAM_DIMENSION = {
    "width": Dimension.LENGTH,
    "depth": Dimension.ENERGY,
    "mass": Dimension.MASS,
    "gamma": Dimension.DIMENSIONLESS,
}

# Options whose value uses the quantity grammar; their value token is glued
# with '=' before argparse sees it, so that e.g. `--width -1m` reaches the
# domain check instead of being mistaken for an option.
_QUANTITY_OPTS = {"--width", "--depth", "--mass", "--from", "--to"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


@dataclass(frozen=True)
class SweepSpec:
    """One swept parameter over [start, stop] with fixed companions."""

    parameter: str
    start: Quantity
    stop: Quantity
    steps: int
    scale: str = "linear"

    def __post_init__(self) -> None:
        if self.parameter not in _PARAM_DIMENSION:
            raise DomainError(f"unknown sweep parameter {self.parameter!r}")
        expected = _PARAM_DIMENSION[self.parameter]
        for q in (self.start, self.stop):
            if q.dimension is not expected:
                raise DomainError(
                    f"sweep over {self.parameter} needs {expected.value} bounds, "
                    f"got {q.dimension.value}"
                )
        if self.steps < 2:
            raise DomainError(f"sweep needs at least 2 steps, got {self.steps}")
        if not self.start.value < self.stop.value:
            raise DomainError("sweep start must be strictly below stop (SI units)")
        if self.scale not in ("linear", "log"):
            raise DomainError(f"scale must be linear or log, got {self.scale!r}")
        if self.scale == "log" and self.start.value <= 0.0:
            raise DomainError("log scale requires a positive start")

    def values(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start.value, self.stop.value, self.steps)
        return np.linspace(self.start.value, self.stop.value, self.steps)


@dataclass(frozen=True)
class VerifyCheck:
    check_id: str
    printed: float
    rederived: float
    relative_deviation: float
    verdict: str  # "consistent" | "discrepant"


def build_verify_report(coeffs: FitCoefficients = PAPER_FIT) -> list[VerifyCheck]:
    """Compare each printed formula against an independent re-derivation.

    The checks cover the pressure series (missing V0 factor), the rational
    dE/dP form (denominator leading term, via the K->0 limit against the
    printed small-K expansion), both expansions, and the critical-width
    claim (series zero vs the numeric zero of the full rational form).
    """
    checks = []

    def add(check_id: str, printed: float, rederived: float, tol: float) -> None:
        dev = abs(printed - rederived) / max(abs(rederived), sys.float_info.min)
        verdict = "consistent" if dev <= tol else "discrepant"
        checks.append(VerifyCheck(check_id, printed, rederived, dev, verdict))

    # Pressure series as printed (no V0) vs -dE/da of the fitted energy, at
    # the hydrogen preset and a = 2K.
    cfg = hydrogen_well()
    K = well_strength(cfg).characteristic_length
    a = 2.0 * K
    h = 1e-6 * a
    printed_series = pressure_1d(a, K, coeffs, 1.0)  # V0 factor absent
    energy = lambda w: cfg.depth * eval_fit(coeffs, w / K)
    rederived_pressure = -(energy(a + h) - energy(a - h)) / (2.0 * h)
    add("pressure-series-v0", printed_series, rederived_pressure, 1e-6)

    # The two printed forms against each other in their common K->0 limit:
    # the rational form tends to a/4, the small-K expansion starts at a/2.
    a, K = 1.0, 1e-9
    add(
        "dedp-printed-k0-limit",
        denergy_dpressure(a, K, coeffs, "printed"),
        expansion_small_k(a, K, coeffs, "printed"),
        1e-6,
    )

    # Small-width expansion vs the consistent rational form at a/K = 0.01.
    a, K = 0.01, 1.0
    add(
        "small-width-expansion",
        expansion_small_width(a, K, coeffs),
        denergy_dpressure(a, K, coeffs, "consistent"),
        1e-2,
    )

    # Printed small-K expansion vs the re-derived one at K/a = 1e-4, deep in
    # the expansion's validity range for these coefficients.
    a, K = 1.0, 1e-4
    add(
        "small-k-expansion-third-term",
        expansion_small_k(a, K, coeffs, "printed"),
        expansion_small_k(a, K, coeffs, "consistent"),
        1e-4,
    )

    # Critical width: series zero (in units of K) vs the numeric zero of the
    # dE/dP numerator.
    report = critical_width(1.0, coeffs, method="numeric")
    add("critical-width", report.a0_paper, report.a0_numeric, 1e-3)

    return checks


def _merge_quantity_flags(argv: list[str]) -> list[str]:
    merged = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _QUANTITY_OPTS and i + 1 < len(argv):
            merged.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            merged.append(tok)
            i += 1
    return merged


def _quantity_flag(text: str) -> Quantity:
    """Quantity grammar plus the bare-unit shorthand (e.g. `--mass me`)."""
    try:
        return parse_quantity(text)
    except MalformedNumber:
        try:
            return quantity(1.0, text.strip())
        except UnknownUnit:
            raise MalformedNumber(f"could not parse quantity '{text}'") from None


def _fmt(value: float) -> str:
    return f"{value:.9g}"


def _emit(values: dict, as_json: bool, order: list[str] | None = None) -> None:
    if as_json:
        print(json.dumps(values))
        return
    keys = order if order is not None else list(values)
    width = max(len(k) for k in keys)
    for key in keys:
        value = values[key]
        rendered = _fmt(value) if isinstance(value, float) else str(value)
        print(f"{key:<{width}} = {rendered}")


def _well_from_args(args: argparse.Namespace) -> WellConfig:
    width, depth, mass = args.width, args.depth, args.mass
    if getattr(args, "preset", None) == "hydrogen":
        base = hydrogen_well()
        width = width if width is not None else f"{base.half_width!r}m"
        depth = depth if depth is not None else f"{base.depth!r}J"
        mass = mass if mass is not None else f"{base.mass!r}kg"
    missing = [name for name, v in (("--width", width), ("--depth", depth), ("--mass", mass)) if v is None]
    if missing:
        raise _UsageError(f"missing required flag(s): {', '.join(missing)}")
    w = _quantity_flag(width)
    d = _quantity_flag(depth)
    m = _quantity_flag(mass)
    for q, dim, flag in ((w, Dimension.LENGTH, "--width"),
                         (d, Dimension.ENERGY, "--depth"),
                         (m, Dimension.MASS, "--mass")):
        if q.dimension is not dim:
            raise DomainError(f"{flag} must be a {dim.value}, got {q.dimension.value}")
    return WellConfig(half_width=w.value, depth=d.value, mass=m.value)


def cmd_spectrum(args: argparse.Namespace) -> int:
    cfg = _well_from_args(args)
    strength = well_strength(cfg)
    state = energy_exact(cfg, args.branch)
    values = {
        "n": strength.strength,
        "K_m": strength.characteristic_length,
        "xi": state.xi,
        "eta": state.eta,
        "E_J": state.energy,
        "E_eV": state.energy / CONSTANTS.electronvolt,
        "E_over_V0": state.energy / cfg.depth,
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
        print(json.dumps(coeffs.to_dict()))
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
    cfg = hydrogen_well()
    strength = well_strength(cfg)
    K = strength.characteristic_length
    report = critical_width(K, PAPER_FIT, method="paper")
    classification = classify_response(cfg.half_width, K, PAPER_FIT)
    k_dev = abs(K - HYDROGEN_K_REF) / HYDROGEN_K_REF
    a0_dev = abs(report.a0_paper - HYDROGEN_A0_REF) / HYDROGEN_A0_REF
    reproduced = (
        k_dev <= HYDROGEN_RTOL
        and a0_dev <= HYDROGEN_RTOL
        and classification.outcome is Response.IONIZES
    )
    values = {
        "V0_eV": cfg.depth / CONSTANTS.electronvolt,
        "K_m": K,
        "K_reference_m": HYDROGEN_K_REF,
        "K_rel_dev": k_dev,
        "a0_m": report.a0_paper,
        "a0_reference_m": HYDROGEN_A0_REF,
        "a0_rel_dev": a0_dev,
        "half_width_m": cfg.half_width,
        "classification": classification.outcome.value,
        "reproduced": reproduced,
    }
    _emit(values, args.json)
    return EXIT_OK if reproduced else EXIT_NUMERICAL


def _load_sweep_coeffs(args: argparse.Namespace) -> FitCoefficients:
    if args.coeffs:
        return load_coefficients(args.coeffs)
    return PAPER_FIT


@dataclass(frozen=True)
class SweepTable:
    """Sweep output as columns: one list per CSV column, None for an empty cell."""

    columns: dict[str, list]  # CSV_HEADER[:-1] -> values
    flags: list[tuple[str, ...]]

    def __len__(self) -> int:
        return len(self.flags)


# (near_pole, fit_out_of_range) -> the row's flags
_ROW_FLAGS = {
    (False, False): (),
    (True, False): ("near_pole",),
    (False, True): ("fit_out_of_range",),
    (True, True): ("near_pole", "fit_out_of_range"),
}


def _sweep_rows(
    spec: SweepSpec,
    base: dict[str, float | None],
    gamma: float | None,
    coeffs: FitCoefficients,
    variant: str,
) -> SweepTable:
    values = spec.values()
    steps = len(values)
    params = {**base, "gamma": gamma, spec.parameter: values}
    a, V0, m, g = (None if params[k] is None else
                   np.broadcast_to(np.asarray(params[k], dtype=float), (steps,))
                   for k in ("width", "depth", "mass", "gamma"))
    states = ground_states(a, V0, m)
    K = states.characteristic_length
    p, dedp, near_pole = pressure_columns(a, K, coeffs, V0, variant)
    if g is None:
        R, out_of_range = None, np.zeros(steps, dtype=bool)
    else:
        R, out_of_range = probability_columns(a, K, coeffs, m, V0, g)

    def cells(column: np.ndarray | None, empty: np.ndarray) -> list:
        if column is None:
            return [None] * steps
        if not empty.any():
            return column.tolist()
        return [None if e else v for v, e in zip(column.tolist(), empty.tolist())]

    return SweepTable(
        columns={
            "param": values.tolist(),
            "a_m": a.tolist(),
            "n": states.strength.tolist(),
            "K_m": K.tolist(),
            "xi": states.xi.tolist(),
            "E_J": states.energy.tolist(),
            "E_over_V0": (states.energy / V0).tolist(),
            "P_N": p.tolist(),
            "dEdP_m": cells(dedp, near_pole),
            "R": cells(R, out_of_range),
        },
        flags=[_ROW_FLAGS[k] for k in zip(near_pole.tolist(), out_of_range.tolist())],
    )


def _render_csv(table: SweepTable, out) -> None:
    """CSV written one row at a time: repr of each value, empty for None."""
    columns = list(table.columns.values())
    fields = []
    for i, column in enumerate(columns):
        if None in column:
            columns[i] = ["" if v is None else repr(v) for v in column]
            fields.append("{}")
        else:
            fields.append("{!r}")
    row_format = ",".join(fields) + ",{}\n"
    out.write(",".join(CSV_HEADER) + "\n")
    for row in zip(*columns, map(";".join, table.flags)):
        out.write(row_format.format(*row))


def _render_json(table: SweepTable, out) -> None:
    """The {"rows": [...]} document, written one row at a time."""
    names = [*table.columns, "flags"]
    out.write('{"rows": [')
    for i, row in enumerate(zip(*table.columns.values(), table.flags)):
        out.write((", " if i else "") + json.dumps(dict(zip(names, row))))
    out.write("]}\n")


def cmd_sweep(args: argparse.Namespace) -> int:
    base: dict[str, float | None] = {"width": None, "depth": None, "mass": None}
    for name in base:
        text = getattr(args, name)
        if text is not None:
            q = _quantity_flag(text)
            if q.dimension is not _PARAM_DIMENSION[name]:
                raise DomainError(
                    f"--{name} must be a {_PARAM_DIMENSION[name].value}, "
                    f"got {q.dimension.value}"
                )
            base[name] = q.value

    spec = SweepSpec(
        parameter=args.param,
        start=_quantity_flag(args.sweep_from),
        stop=_quantity_flag(args.sweep_to),
        steps=args.steps,
        scale=args.scale,
    )
    required = {"width", "depth", "mass"} - {spec.parameter}
    missing = [f"--{name}" for name in sorted(required) if base[name] is None]
    if spec.parameter == "gamma" and args.gamma is not None:
        raise _UsageError("--gamma conflicts with sweeping gamma")
    if missing:
        raise _UsageError(f"missing required flag(s): {', '.join(missing)}")
    gamma = args.gamma
    if gamma is not None and not 0.0 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [0, 1], got {gamma}")

    coeffs = _load_sweep_coeffs(args)
    table = _sweep_rows(spec, base, gamma, coeffs, args.variant)
    (_render_json if args.json else _render_csv)(table, sys.stdout)
    return EXIT_NUMERICAL if all(table.flags) else EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    checks = build_verify_report()
    if args.json:
        print(json.dumps({"checks": [check.__dict__ for check in checks]}))
        return EXIT_OK
    width = max(len(check.check_id) for check in checks)
    print(f"{'check':<{width}}  {'printed':>14}  {'rederived':>14}  {'rel.dev':>10}  verdict")
    for check in checks:
        print(
            f"{check.check_id:<{width}}  {check.printed:>14.6g}  "
            f"{check.rederived:>14.6g}  {check.relative_deviation:>10.3g}  {check.verdict}"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
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

    p_sweep = sub.add_parser("sweep", help="emit a parameter sweep as CSV")
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
    p_sweep.add_argument("--gamma", type=float,
                         help="fixed interval fraction; enables the R column")
    p_sweep.add_argument("--coeffs", help="coefficients JSON (default: published set)")
    p_sweep.add_argument("--variant", choices=["consistent", "printed"],
                         default="consistent", help="dE/dP form for the dEdP_m column")
    p_sweep.add_argument("--json", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="printed-vs-rederived report")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(_merge_quantity_flags(argv))
    try:
        return args.func(args)
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
