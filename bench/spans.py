"""Spans around finwell's public functions, recorded from outside the package.

``install`` replaces each public function listed in ``LAYER_FUNCTIONS`` by a
wrapper in every finwell module that binds it, so each caller sees the
wrapper under the name it uses: ``finwell.cli.energy_exact`` for the CLI,
``finwell.spectrum.solve_even_root`` for ``energy_ratio`` and
``energy_exact``, and so on.  A wrapper
records a span (name, start, end, parent) in memory and adds the call to
per-name totals; self time is the span's duration minus its direct
children's.  The span list is capped, the totals are not.

Run as a script, this module executes one finwell command under the tracer
and writes its totals to a file:

    python bench/spans.py STATS.json -- sweep --param depth ...
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (module, attribute, layer): the layer names the metrics.
LAYER_FUNCTIONS = [
    ("finwell.units", "parse_quantity", "units"),
    ("finwell.spectrum", "WellConfig", "spectrum"),
    ("finwell.spectrum", "well_strength", "spectrum"),
    ("finwell.spectrum", "energy_exact", "spectrum"),
    ("finwell.spectrum", "solve_even_root", "spectrum"),
    ("finwell.fitseries", "refit", "fitseries"),
    ("finwell.fitseries", "fit_inverse_poly", "fitseries"),
    ("finwell.fitseries", "eval_fit", "fitseries"),
    ("finwell.pressure", "pressure_1d", "pressure"),
    ("finwell.pressure", "denergy_dpressure", "pressure"),
    ("finwell.pressure", "pressure_profile", "pressure"),
    ("finwell.pressure", "classify_response", "pressure"),
    ("finwell.pressure", "critical_width", "pressure"),
    ("finwell.probability", "beta_from_fit", "probability"),
    ("finwell.probability", "probability_interval", "probability"),
    ("finwell.probability", "probability_pressure_derivative", "probability"),
    ("finwell.cli", "build_verify_report", "cli"),
    ("finwell.cli", "main", "cli"),
]

FINWELL_MODULES = [
    "finwell", "finwell.units", "finwell.spectrum", "finwell.fitseries",
    "finwell.pressure", "finwell.probability", "finwell.cli",
]

SPAN_CAP = 20_000


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []  # (name, start, end, parent)
        self.durations: dict[str, array] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [span id, child time]
        self._next_id = 0

    def wrap(self, name: str, fn):
        durations = self.durations.setdefault(name, array("d"))
        self.self_time.setdefault(name, 0.0)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                durations.append(duration)
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if len(self.spans) < SPAN_CAP:
                    self.spans.append((name, start, end, parent))

        return traced

    def count(self, name: str, fn, measure):
        """Wrap fn without a span; add measure(result) to counter ``name``."""
        self.counters.setdefault(name, 0)

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counters[name] += measure(result)
            return result

        return counted

    def reset(self) -> None:
        for durations in self.durations.values():
            del durations[:]
        for name in self.self_time:
            self.self_time[name] = 0.0
        for name in self.counters:
            self.counters[name] = 0
        self.spans.clear()

    def stats(self) -> dict:
        return {
            "durations": {k: list(v) for k, v in self.durations.items()},
            "self_time": dict(self.self_time),
            "counters": dict(self.counters),
        }

    def write(self, path: str, durations: bool = True) -> None:
        """Spans and totals as JSON; durations are needed only to merge p50s."""
        stats = self.stats()
        if not durations:
            stats["calls"] = {k: len(v) for k, v in stats.pop("durations").items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, **stats}, fh)


def install(tracer: Tracer) -> None:
    """Put traced wrappers in place in every loaded finwell module."""
    modules = [importlib.import_module(name) for name in FINWELL_MODULES]
    for module_name, attr, layer in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = tracer.wrap(f"{layer}.{attr}", original)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    cli = importlib.import_module("finwell.cli")
    cli._sweep_rows = tracer.count("cli.sweep.rows", cli._sweep_rows, len)


def _run_command(stats_path: str, argv: list[str]) -> int:
    import finwell.cli

    tracer = Tracer()
    install(tracer)
    try:
        return finwell.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer.write(stats_path)


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: spans.py STATS.json -- <finwell command>")
    sys.exit(_run_command(sys.argv[1], sys.argv[3:]))
