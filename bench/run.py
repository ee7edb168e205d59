#!/usr/bin/env python3
"""End-to-end benchmark for finwell, stdlib plus the numpy finwell needs.

    python3 bench/run.py --workload {sweep-csv,cmd-mix,lib-calls} --seed N \
        --seconds S --trace {0,1} [--small]

Run from the repository root; finwell is imported from ./src.  One process
drives the load and runs one finwell call or one child process at a time.
The window of S seconds is filled with whole rounds of the same seeded
operations; each rate is the median of many short samples spread over the
window, and the set-up probes (fresh interpreters importing the workload's
entry module) are interleaved with the rounds.  Every timed sample is scaled
to a nominal machine speed measured right before it (see "Machine speed"
below).  Outputs are checked against
bench/oracle.py after the window.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics (the end-to-end metrics with
--trace 0, the per-layer metrics from bench/spans.py with --trace 1).
See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

SETUP_PROBES = 12      # set-up samples per run, spread over the window
CHILD_TIMEOUT = 60.0   # seconds before a child process is killed
CHECKED_ROWS = 40      # seeded sweep rows checked per kept output, plus first and last

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("peak_rss_mb", "MB")]

_SPAN_STATS = {"calls": "count", "self_ms": "ms", "p50_us": "us"}
PER_LAYER = [
    ("import.python_ms", "ms"), ("import.numpy_ms", "ms"), ("import.finwell_ms", "ms"),
    *((f"units.parse_quantity.{s}", _SPAN_STATS[s]) for s in ("calls", "p50_us")),
    *((f"spectrum.{f}.{s}", _SPAN_STATS[s])
      for f in ("solve_even_root", "energy_exact", "well_strength", "WellConfig")
      for s in ("calls", "self_ms")),
    ("spectrum.solve_even_root.p50_us", "us"),
    *((f"fitseries.{f}.{s}", _SPAN_STATS[s])
      for f in ("refit", "fit_inverse_poly") for s in ("calls", "p50_us")),
    ("fitseries.eval_fit.calls", "count"), ("fitseries.eval_fit.self_ms", "ms"),
    *((f"pressure.{f}.{s}", _SPAN_STATS[s])
      for f in ("pressure_1d", "denergy_dpressure", "pressure_profile", "classify_response")
      for s in ("calls", "self_ms")),
    ("pressure.critical_width.calls", "count"), ("pressure.critical_width.p50_us", "us"),
    *((f"probability.{f}.{s}", _SPAN_STATS[s])
      for f in ("beta_from_fit", "probability_interval") for s in ("calls", "self_ms")),
    ("probability.probability_pressure_derivative.p50_us", "us"),
    ("cli.main.self_ms", "ms"), ("cli.build_verify_report.p50_us", "us"),
    ("cli.sweep.rows", "count"), ("cli.render.bytes_per_row", "B/row"),
    ("run.wall_s", "s"), ("run.cpu_s", "s"), ("run.ops_per_s", "1/s"), ("run.speed", "ratio"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list[str], stdout_path: Path, stderr_path: Path) -> tuple[float, int, float]:
    """Run one child to completion: (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=CHILD_ENV, cwd=ROOT)
        watchdog = threading.Timer(CHILD_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


# Machine speed.  On a shared VM the same code runs up to ~1.6x faster or
# slower from one half-minute to the next.  Each timed sample is paired with
# a fixed reference measured right before it and is reported at the
# reference's nominal speed: speed = nominal / measured reference time, rates
# are divided by it and times multiplied by it.  The references are the
# benchmark's own code (in-process samples) or the environment's interpreter
# and numpy (child processes), never finwell, so they hold still while
# finwell changes.
REF_STRENGTHS = [10.0 ** (i / 10 - 1) for i in range(50)]
REF_LOOP_S = 2.0e-3    # nominal time of oracle.even_root over REF_STRENGTHS
REF_PROCESS_S = 0.16   # nominal wall time of a fresh `python -c "import numpy"`


def loop_speed() -> float:
    start = time.perf_counter()
    for n in REF_STRENGTHS:
        oracle.even_root(n)
    return REF_LOOP_S / (time.perf_counter() - start)


def process_speed() -> float:
    argv = [sys.executable, "-c", "import numpy"]
    elapsed, code, _ = run_child(argv, OUT / "ref.out", OUT / "ref.err")
    if code != 0:
        raise RuntimeError(f"reference process failed: {(OUT / 'ref.err').read_text()[-400:]}")
    return REF_PROCESS_S / elapsed


class Samples:
    """Timed samples, each with the machine speed measured just before it."""

    def __init__(self) -> None:
        self.values: list[float] = []
        self.speeds: list[float] = []

    def add(self, value: float, speed: float) -> None:
        self.values.append(value)
        self.speeds.append(speed)

    def rate(self) -> float:
        return statistics.median(v / s for v, s in zip(self.values, self.speeds))

    def time(self) -> float:
        return statistics.median(v * s for v, s in zip(self.values, self.speeds))

    def raw(self) -> float:
        return statistics.median(self.values)


def parse_importtime(stderr: str, wall_s: float) -> dict[str, float]:
    """Split a fresh `-X importtime` process into interpreter, numpy and finwell ms."""
    finwell_us = numpy_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.strip() == "numpy":
            numpy_us = int(cumulative)
        elif name.startswith(" finwell"):  # top level: one space after the bar
            finwell_us += int(cumulative)
    return {
        "import.python_ms": wall_s * 1e3 - finwell_us / 1e3,
        "import.numpy_ms": numpy_us / 1e3,
        "import.finwell_ms": (finwell_us - numpy_us) / 1e3,
    }


def setup_probe(entry: str, trace: bool, imports: list[dict], setup: Samples) -> None:
    """Fresh interpreter that imports the entry module and exits; its wall time."""
    speed = process_speed()
    argv = [sys.executable, *(["-X", "importtime"] if trace else []), "-c", f"import {entry}"]
    err_path = OUT / "probe.err"
    elapsed, code, _ = run_child(argv, OUT / "probe.out", err_path)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {err_path.read_text()[-400:]}")
    if trace:
        imports.append(parse_importtime(err_path.read_text(), elapsed))
    setup.add(elapsed, speed)


def peak_rss_self_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# --- workloads -------------------------------------------------------------
#
# A workload builds its seeded inputs in __init__, runs one round per call
# of run_round (timing its own samples), and checks the kept outputs in
# check().  Every round repeats the same operations, so the share of failed
# operations is the same in every run.

HYDROGEN_DEPTH_J = oracle.HYDROGEN_DEPTH_EV * oracle.ELECTRONVOLT
ME = oracle.ELECTRON_MASS


class SweepCsv:
    """In-process `sweep` over width on a log scale to a CSV file."""

    entry = "finwell.cli"
    STEPS = (2000, 2500, 3000, 3500)

    def __init__(self, rng: random.Random, small: bool, tracer) -> None:
        import finwell.cli

        self.rng = rng
        K = oracle.char_length(HYDROGEN_DEPTH_J, ME)
        steps = [s // 10 if small else s for s in self.STEPS]
        rng.shuffle(steps)
        self.calls = []
        for n_steps in steps:
            lo = 0.1 * K * rng.uniform(0.9, 1.1)
            hi = 100.0 * K * rng.uniform(0.9, 1.1)
            gamma = round(rng.uniform(0.1, 0.95), 6)
            argv = ["sweep", "--param", "width", "--scale", "log",
                    "--from", f"{lo!r}m", "--to", f"{hi!r}m", "--steps", str(n_steps),
                    "--depth", f"{oracle.HYDROGEN_DEPTH_EV}eV", "--mass", "me",
                    "--gamma", repr(gamma)]
            self.calls.append((argv, n_steps, lo, hi, gamma))
        self.ops_per_round = sum(c[1] for c in self.calls)
        self.main = finwell.cli.main  # resolved after the tracer is installed
        self.samples = Samples()
        self.failed = 0
        self.errors: list[str] = []
        self.first_failed: set[int] = set()
        self.rendered_bytes = 0
        # Warm-up, outside the window and uncounted.
        self._sweep(["sweep", "--param", "width", "--scale", "log", "--from", "1e-11m",
                     "--to", "1e-10m", "--steps", "50", "--depth", "13.6058eV",
                     "--mass", "me", "--gamma", "0.5"], OUT / "sweep-warmup.csv")

    def _sweep(self, argv, path: Path) -> int:
        with open(path, "w", encoding="utf-8", newline="") as fh, contextlib.redirect_stdout(fh):
            return self.main(argv)

    def run_round(self, index: int) -> None:
        for i, (argv, n_steps, *_) in enumerate(self.calls):
            path = OUT / f"sweep-{'first' if index == 0 else 'last'}-{i}.csv"
            speed = loop_speed()
            start = time.perf_counter()
            try:
                code = self._sweep(argv, path)
            except Exception as exc:  # a raising sweep fails all its rows
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            if code != 0:
                self.failed += n_steps
                self.errors.append(f"sweep call {i} ended with {code}")
                if index == 0:
                    self.first_failed.add(i)
                continue
            self.samples.add(n_steps / elapsed, speed)
            self.rendered_bytes += path.stat().st_size

    def ops_per_s(self, scaled: bool = True) -> float:
        return self.samples.rate() if scaled else self.samples.raw()

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()

    def check(self, rounds: int) -> None:
        for i, (argv, n_steps, lo, hi, gamma) in enumerate(self.calls):
            if i in self.first_failed:
                continue
            first = OUT / f"sweep-first-{i}.csv"
            if rounds > 1 and first.read_bytes() != (OUT / f"sweep-last-{i}.csv").read_bytes():
                self.errors.append(f"sweep call {i}: last round's CSV differs from the first's")
            with open(first, encoding="utf-8", newline="") as fh:
                table = list(csv.reader(fh))
            if table[0] != oracle.CSV_HEADER or len(table) != n_steps + 1:
                self.errors.append(f"sweep call {i}: bad header or {len(table) - 1} rows")
                continue
            rows = [oracle.csv_row(r) for r in table[1:]]
            if not (oracle.close(rows[0]["param"], lo, oracle.FULL)
                    and oracle.close(rows[-1]["param"], hi, oracle.FULL)):
                self.errors.append(f"sweep call {i}: range {rows[0]['param']}..{rows[-1]['param']}")
            picks = {0, n_steps - 1, *self.rng.sample(range(n_steps), min(CHECKED_ROWS, n_steps))}
            for k in sorted(picks):
                problems = oracle.check_sweep_row(rows[k], HYDROGEN_DEPTH_J, ME, gamma)
                if problems:
                    self.failed += 1
                    self.errors += [f"sweep call {i} row {k}: {p}" for p in problems]


class CmdMix:
    """Closed loop, one client: fresh `python -m finwell.cli` processes."""

    entry = "finwell.cli"
    SWEEP_ROWS = 1000

    def __init__(self, rng: random.Random, small: bool, tracer) -> None:
        self.trace = tracer is not None
        branch_depth_ev = rng.uniform(5.0, 50.0)
        branch_width = rng.uniform(6.0, 40.0) * oracle.char_length(
            branch_depth_ev * oracle.ELECTRONVOLT, ME)
        sweep_width = oracle.HYDROGEN_HALF_WIDTH * rng.uniform(0.8, 1.25)
        sweep_from, sweep_to = rng.uniform(1.0, 5.0), rng.uniform(50.0, 100.0)
        sweep_rows = self.SWEEP_ROWS // 10 if small else self.SWEEP_ROWS
        self.commands = [
            ["hydrogen"],
            ["verify"],
            ["fit"],
            ["fit", "--paper"],
            ["spectrum", "--preset", "hydrogen"],
            ["spectrum", "--branch", "1", "--width", f"{branch_width!r}m",
             "--depth", f"{branch_depth_ev!r}eV", "--mass", "me"],
            ["sweep", "--param", "depth", "--from", f"{sweep_from!r}eV",
             "--to", f"{sweep_to!r}eV", "--steps", str(sweep_rows),
             "--width", f"{sweep_width!r}m", "--mass", "me", "--json"],
        ]
        rng.shuffle(self.commands)
        self.ops_per_round = len(self.commands)
        self.rng = rng
        self.durations = [Samples() for _ in self.commands]
        self.largest_child_mb = 0.0
        self.failed = 0
        self.errors: list[str] = []
        self.first_failed: set[int] = set()
        self.rendered_bytes = 0
        self.child_stats: list[dict] = []

    def _argv(self, i: int) -> list[str]:
        if self.trace:
            return [sys.executable, str(ROOT / "bench" / "spans.py"),
                    str(OUT / f"cmd-{i}.spans.json"), "--", *self.commands[i]]
        return [sys.executable, "-m", "finwell.cli", *self.commands[i]]

    def run_round(self, index: int) -> None:
        for i, command in enumerate(self.commands):
            out = OUT / f"cmd-{'first' if index == 0 else 'last'}-{i}.out"
            speed = process_speed()
            elapsed, code, rss = run_child(self._argv(i), out, OUT / f"cmd-{i}.err")
            if code != 0:
                self.failed += 1
                self.errors.append(f"`{' '.join(command)}` exited {code}")
                if index == 0:
                    self.first_failed.add(i)
                continue
            self.durations[i].add(elapsed, speed)
            self.largest_child_mb = max(self.largest_child_mb, rss)
            if command[0] == "sweep":
                self.rendered_bytes += out.stat().st_size
            if self.trace:
                self.child_stats.append(json.loads((OUT / f"cmd-{i}.spans.json").read_text()))

    def ops_per_s(self, scaled: bool = True) -> float:
        """One client cycling through the mix: commands / sum of median durations."""
        medians = (d.time() if scaled else d.raw() for d in self.durations)
        return len(self.commands) / sum(medians)

    def peak_rss_mb(self) -> float:
        return self.largest_child_mb

    def check(self, rounds: int) -> None:
        for i, command in enumerate(self.commands):
            if i in self.first_failed:
                continue
            text = (OUT / f"cmd-first-{i}.out").read_text()
            if rounds > 1 and text != (OUT / f"cmd-last-{i}.out").read_text():
                self.errors.append(f"`{' '.join(command)}`: last round's output differs")
            problems = self._check_output(command, text)
            if problems:
                self.failed += 1
                self.errors += [f"`{' '.join(command)}`: {p}" for p in problems]

    def _check_output(self, command: list[str], text: str) -> list[str]:
        name = command[0]
        if name == "verify":
            rows = {}
            for line in text.splitlines()[1:]:
                check_id, printed, rederived, _, verdict = line.split()
                rows[check_id] = (float(printed), float(rederived), verdict)
            return oracle.check_verify(rows, oracle.PRINTED_6)
        if name == "sweep":
            rows = json.loads(text)["rows"]
            if len(rows) != int(command[command.index("--steps") + 1]):
                return [f"{len(rows)} rows"]
            picks = sorted({0, len(rows) - 1, *self.rng.sample(range(len(rows)), min(CHECKED_ROWS, len(rows)))})
            return [p for k in picks for p in oracle.check_sweep_row(rows[k], rows[k]["param"], ME, None)]
        values = dict(line.split(" = ", 1) for line in text.splitlines())
        values = {k.strip(): v.strip() for k, v in values.items()}
        if name == "hydrogen":
            return oracle.check_hydrogen(values)
        if name == "fit":
            c = [float(values[f"c{k}"]) for k in range(6)]
            if "--paper" in command:
                ok = (all(oracle.close(x, y, oracle.PRINTED_9) for x, y in zip(c, oracle.PAPER_C))
                      and float(values["sigma"]) == oracle.PAPER_SIGMA and values["source"] == "paper")
                return [] if ok else [f"published set differs: {values}"]
            if values["source"] != "refit" or values["grid"] != "1:10:13":
                return [f"refit provenance {values.get('source')} {values.get('grid')}"]
            # Nine printed digits per coefficient move the RMS by ~3e-9 relative.
            return oracle.check_refit_sigma(c, float(values["sigma"]),
                                            oracle.linspace(1.0, 10.0, 13), 1e-6)
        # spectrum
        if "--preset" in command:
            a, depth = oracle.HYDROGEN_HALF_WIDTH, HYDROGEN_DEPTH_J
        else:
            a = float(command[command.index("--width") + 1][:-1])
            depth = float(command[command.index("--depth") + 1][:-2]) * oracle.ELECTRONVOLT
        branch = int(command[command.index("--branch") + 1]) if "--branch" in command else 0
        K = oracle.char_length(depth, ME)
        n = a / K
        xi = float(values["xi"])
        problems = oracle.check_root(xi, n, branch, oracle.PRINTED_9)
        for key, want in (("n", n), ("K_m", K),
                          ("E_over_V0", (oracle.even_root(n, branch) / n) ** 2)):
            if not oracle.close(float(values[key]), want, oracle.PRINTED_9):
                problems.append(f"{key}={values[key]}, expected {want!r}")
        return problems


class LibCalls:
    """Seeded in-process mix of scalar public calls; no CLI, no import in the window."""

    entry = "finwell"
    # Deep wells: fixed inputs (independent of --seed).  solve_even_root
    # raises ConvergenceFailure for most of them; those calls count as failed.
    DEEP_WELLS = 16
    DEEP_SEED = 20131224

    def __init__(self, rng: random.Random, small: bool, tracer) -> None:
        import finwell
        import finwell.cli
        from finwell import fitseries, pressure, probability, spectrum, units

        PAPER_FIT = fitseries.PAPER_FIT
        ops = []  # (kind, call, args, reference data)

        def add(kind, fn, args, ref=None):
            ops.append((kind, fn, args, ref))

        for _ in range(96):
            n = log_uniform(rng, 0.1, 1e4)
            add("root", spectrum.solve_even_root, (n,), (n, 0))
        for _ in range(32):
            # Higher branches with the full half-period of bracket available.
            n = log_uniform(rng, 1.5 * math.pi, 3e3)
            k = rng.randint(1, int((n - 0.5 * math.pi) // math.pi))
            add("root", spectrum.solve_even_root, (n, k), (n, k))
        deep = random.Random(self.DEEP_SEED)
        for _ in range(self.DEEP_WELLS):
            n = log_uniform(deep, 2e4, 1e7)
            add("deep", spectrum.solve_even_root, (n,), (n, 0))
        for _ in range(16):
            depth = log_uniform(rng, 1.0, 100.0) * oracle.ELECTRONVOLT
            mass = rng.uniform(0.5, 2.0) * ME
            n = log_uniform(rng, 0.1, 1e4)
            a = n * oracle.char_length(depth, mass)
            k = rng.randint(1, 3) if n > 3.5 * math.pi and n < 3e3 and rng.random() < 0.25 else 0
            add("energy", spectrum.energy_exact,
                (spectrum.WellConfig(a, depth, mass), k), (a, depth, mass, k))
        for _ in range(4):
            # A fixed point count keeps the cost of a round the same for every seed.
            grid = fitseries.FitGrid(rng.uniform(1.0, 2.0), rng.uniform(8.0, 12.0), 16)
            add("refit", fitseries.refit, (grid,), grid)
        for method in ("paper", "paper", "numeric", "numeric"):
            K = log_uniform(rng, 1e-12, 1e-9)
            add("critical_" + method, pressure.critical_width, (K, PAPER_FIT, method), K)
        for _ in range(16):
            K = log_uniform(rng, 1e-12, 1e-9)
            a = K * log_uniform(rng, 0.1, 100.0)
            add("classify", pressure.classify_response, (a, K, PAPER_FIT), (a, K))
        for _ in range(16):
            K = log_uniform(rng, 1e-12, 1e-9)
            a = K * log_uniform(rng, 0.1, 100.0)
            V0 = log_uniform(rng, 1.0, 100.0) * oracle.ELECTRONVOLT
            add("profile", pressure.pressure_profile, (a, K, PAPER_FIT, V0), (a, K, V0))
        for _ in range(16):
            # 2*a*beta up to 600: above ~710 the closed form overflows.
            a = log_uniform(rng, 1e-11, 1e-9)
            z = log_uniform(rng, 1e-6, 600.0)
            gamma = rng.random()
            add("interval", probability.probability_interval, (a, z / (2 * a), gamma), (z, gamma))
        for _ in range(8):
            depth = log_uniform(rng, 1.0, 100.0) * oracle.ELECTRONVOLT
            K = oracle.char_length(depth, ME)
            a = K * rng.uniform(1.5, 10.0)  # inside the fit range, clear of the pole
            gamma = rng.uniform(0.1, 0.9)
            add("dRdP", probability.probability_pressure_derivative,
                (spectrum.WellConfig(a, depth, ME), PAPER_FIT, gamma), (a, K, depth, gamma))
        add("verify", finwell.cli.build_verify_report, ())
        for _ in range(8):
            unit = rng.choice(sorted(oracle.UNIT_FACTORS))
            text = f"{log_uniform(rng, 1e-3, 1e3):.6g}{unit}"
            add("parse", units.parse_quantity, (text,), text)

        rng.shuffle(ops)
        self.ops = ops
        self.calls = [(fn, args) for _, fn, args, _ in ops]
        self.ops_per_round = len(ops)
        self.samples = Samples()
        self.failed = 0
        self.errors: list[str] = []
        self.rendered_bytes = 0
        self.expected_failures: list[int] | None = None
        self.first: list = []
        self.results: list = [None] * len(ops)
        self._error_type = finwell.FinwellError
        self._convergence_failure = finwell.ConvergenceFailure
        self.run_round(-1)  # warm-up, uncounted
        self.samples = Samples()
        self.failed = 0
        self.expected_failures = None

    def run_round(self, index: int) -> None:
        results = self.results
        failures = []
        error_type = self._error_type
        speed = loop_speed()
        start = time.perf_counter()
        for i, (fn, args) in enumerate(self.calls):
            try:
                results[i] = fn(*args)
            except error_type as exc:
                results[i] = exc
                failures.append(i)
        elapsed = time.perf_counter() - start
        self.samples.add(len(self.calls) / elapsed, speed)
        self.failed += len(failures)
        if self.expected_failures is None:
            self.expected_failures = failures
            self.first = list(results)
        elif failures != self.expected_failures:
            self.errors.append(f"round {index}: failed calls {failures} differ from round 0")

    def ops_per_s(self, scaled: bool = True) -> float:
        return self.samples.rate() if scaled else self.samples.raw()

    def peak_rss_mb(self) -> float:
        return peak_rss_self_mb()

    def check(self, rounds: int) -> None:
        for i, ((kind, _, args, ref), got) in enumerate(zip(self.ops, self.first)):
            last = self.results[i]
            if rounds > 1 and not (last == got or (isinstance(got, Exception) and repr(last) == repr(got))):
                self.errors.append(f"{kind}{args}: last round gave {last!r}, first {got!r}")
            if isinstance(got, Exception):
                if kind == "deep" and isinstance(got, self._convergence_failure):
                    continue  # the named deep-well fault, counted as failed
                problems = [f"raised {type(got).__name__}: {got}"]
            else:
                problems = self._check_result(kind, args, ref, got)
            if problems:
                self.failed += 1
                self.errors += [f"{kind}: {p}" for p in problems]

    def _check_result(self, kind, args, ref, got) -> list[str]:
        if kind in ("root", "deep"):
            return oracle.check_root(got, *ref)
        if kind == "energy":
            a, depth, mass, k = ref
            n = a / oracle.char_length(depth, mass)
            problems = oracle.check_root(got.xi, n, k)
            if not oracle.close(got.energy / depth, (got.xi / n) ** 2, oracle.FULL):
                problems.append(f"E/V0={got.energy / depth!r} != (xi/n)^2")
            return problems
        if kind == "refit":
            points = oracle.linspace(ref.n_start, ref.n_stop, ref.n_count)
            return oracle.check_refit_sigma(got.c, got.sigma, points, 1e-6)
        if kind == "critical_paper":
            want = oracle.critical_width_paper(ref)
            return [] if oracle.close(got.a0_paper, want, oracle.FULL) else [f"a0={got.a0_paper!r}, want {want!r}"]
        if kind == "critical_numeric":
            zero = oracle.smallest_positive_root(oracle.numerator_quartic()) * ref
            pole = oracle.smallest_positive_root(oracle.denominator_quartic()) * ref
            ok = oracle.close(got.a0_numeric, zero, 1e-9) and oracle.close(got.pole_location, pole, 1e-9)
            return [] if ok else [f"a0={got.a0_numeric!r} pole={got.pole_location!r}; numpy.roots {zero!r} {pole!r}"]
        if kind == "classify":
            a, K = ref
            a0 = oracle.critical_width_paper(K)
            want = "Ionizes" if a < a0 else "PushedDeeper"
            ok = got.outcome.value == want and oracle.close(got.critical_half_width, a0, oracle.FULL)
            return [] if ok else [f"{got} at a/K={a / K!r}, want {want}"]
        if kind == "profile":
            a, K, V0 = ref
            problems = []
            for name, value, want, rtol in (
                ("pressure", got.pressure, oracle.pressure(a, K, V0), 1e-9),
                ("dedp", got.dedp, oracle.dedp(a, K), 1e-8),
                ("dedp_printed", got.dedp_printed, oracle.dedp(a, K, printed=True), 1e-8),
            ):
                if not oracle.close(value, want, rtol):
                    problems.append(f"{name}={value!r}, want {want!r} at a/K={a / K!r}")
            return problems
        if kind == "interval":
            z, gamma = ref
            R = got.probability
            want = oracle.interval_probability(z, gamma)
            ok = 0.0 <= R <= gamma * (1 + 4 * 2.0 ** -52) and oracle.close(R, want, 1e-9)
            return [] if ok else [f"R={R!r}, want {want!r} in [0, {gamma}]"]
        if kind == "dRdP":
            a, K, depth, gamma = ref
            want = oracle.probability_pressure_derivative(a, K, ME, depth, gamma)
            return [] if oracle.close(got, want, 1e-4) else [f"dR/dP={got!r}, want {want!r}"]
        if kind == "verify":
            rows = {c.check_id: (c.printed, c.rederived, c.verdict) for c in got}
            return oracle.check_verify(rows, 1e-9)
        if kind == "parse":
            number, unit = oracle.split_quantity(ref)
            want = number * oracle.UNIT_FACTORS[unit]
            return [] if oracle.close(got.value, want, oracle.FULL) else [f"{ref!r} -> {got.value!r}, want {want!r}"]
        return [f"no check for {kind}"]


WORKLOADS = {"sweep-csv": SweepCsv, "cmd-mix": CmdMix, "lib-calls": LibCalls}


# --- one run ---------------------------------------------------------------

def layer_metrics(stats: dict, imports: list[dict], extra: dict) -> dict[str, float]:
    durations, self_time, counters = stats["durations"], stats["self_time"], stats["counters"]
    values = {}
    for name, _ in PER_LAYER:
        span, stat = name.rsplit(".", 1)
        if name in extra:
            values[name] = extra[name]
        elif span == "import":
            values[name] = statistics.median(sample[name] for sample in imports)
        elif name in counters:
            values[name] = counters[name]
        elif stat == "calls":
            values[name] = len(durations.get(span, ()))
        elif stat == "self_ms":
            values[name] = self_time.get(span, 0.0) * 1e3
        elif stat == "p50_us":
            values[name] = statistics.median(durations[span]) * 1e6 if durations.get(span) else 0.0
        else:
            raise KeyError(name)
    return values


def merge_stats(parts: list[dict]) -> dict:
    merged = {"durations": {}, "self_time": {}, "counters": {"cli.sweep.rows": 0}}
    for part in parts:
        for key in ("durations", "self_time", "counters"):
            for name, value in part[key].items():
                if key == "durations":
                    merged[key].setdefault(name, []).extend(value)
                else:
                    merged[key][name] = merged[key].get(name, 0) + value
    return merged


def measure(args: argparse.Namespace) -> dict:
    rng = random.Random(args.seed)
    trace = bool(args.trace)
    tracer = None
    warm_argv = [sys.executable, "-c", f"import {WORKLOADS[args.workload].entry}"]
    run_child(warm_argv, OUT / "probe.out", OUT / "probe.err")  # writes bytecode caches
    import finwell

    if Path(finwell.__file__).resolve().parent != SRC / "finwell":
        raise RuntimeError(f"finwell imported from {finwell.__file__}, not {SRC}")
    if trace:
        tracer = spans.Tracer()
        spans.install(tracer)
    workload = WORKLOADS[args.workload](rng, args.small, tracer)

    setup, imports = Samples(), []
    probe_gap = args.seconds / SETUP_PROBES
    rounds = 0
    if tracer is not None:
        tracer.reset()  # count only the window, not input generation and warm-up
    cpu_start = cpu_seconds()
    start = next_probe = time.perf_counter()
    while True:
        now = time.perf_counter()
        if now >= next_probe:
            setup_probe(workload.entry, trace, imports, setup)
            next_probe = max(next_probe + probe_gap, now)
        workload.run_round(rounds)
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    wall = time.perf_counter() - start
    cpu = cpu_seconds() - cpu_start
    peak_rss = workload.peak_rss_mb()  # before the checks allocate

    workload.check(rounds)
    attempted = rounds * workload.ops_per_round
    ops_per_s, raw_ops_per_s = workload.ops_per_s(), workload.ops_per_s(scaled=False)
    print(f"{args.workload} seed {args.seed}: {rounds} rounds, {attempted} operations, "
          f"{workload.failed} failed, {len(setup.values)} set-up probes, {wall:.2f} s window")
    print(f"  unscaled: ops_per_s {raw_ops_per_s:.6g}, setup_s {setup.raw():.6g}; "
          f"machine speed {raw_ops_per_s / ops_per_s:.3f} of nominal")
    for message in workload.errors[:20]:
        print(f"  check failed: {message}")

    if trace:
        parts = [tracer.stats(), *getattr(workload, "child_stats", [])]
        stats = merge_stats(parts)
        rows = stats["counters"]["cli.sweep.rows"]
        metrics = layer_metrics(stats, imports, {
            "cli.render.bytes_per_row": workload.rendered_bytes / rows if rows else 0.0,
            "run.wall_s": wall,
            "run.cpu_s": cpu,
            "run.ops_per_s": ops_per_s,
            "run.speed": raw_ops_per_s / ops_per_s,
        })
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json", durations=False)
        units = dict(PER_LAYER)
    else:
        metrics = {
            "setup_s": setup.time(),
            "ops_per_s": ops_per_s,
            "peak_rss_mb": peak_rss,
        }
        units = dict(END_TO_END)
    return {
        "correct": not workload.errors,
        "attempted": attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="a tenth of the rows per sweep, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "finwell" / "__init__.py").is_file():
        print(f"bench: no finwell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    result = measure(args)
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


CHILD_ENV = child_env()

if __name__ == "__main__":
    sys.exit(main())
