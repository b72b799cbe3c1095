"""Span tracing from outside the package.

The tracer wraps the public functions of ``centest`` where callers look
them up: a function imported by name into several modules (``mode_test``
lives in ``rationality`` and is called from ``cli`` and ``simulation``) gets
one wrapper installed under every module attribute bound to it. Spans
(name, start, end, parent) are kept in memory; layer self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

# (span name, defining module, function). A function missing from its module
# is skipped, so the table may name functions a later version removes; their
# layer metrics then read zero.
TRACED = (
    ("cli", "centest.cli", "main"),
    ("dataio.load_csv", "centest.dataio", "load_csv"),
    ("dataio.emit", "centest.dataio", "emit_confidence_set"),
    ("dataio.write_json", "centest.dataio", "write_json"),
    ("bandwidth.rule", "centest.bandwidth", "bandwidth_rule_of_thumb"),
    ("identification.stacked_moments", "centest.identification", "stacked_moments"),
    ("identification.weighting_matrices", "centest.identification", "weighting_matrices"),
    ("central_tendency.confidence_set", "centest.central_tendency", "confidence_set"),
    ("central_tendency.objective", "centest.central_tendency",
     "gmm_objective_from_stacked"),
    ("central_tendency.sigma_hat", "centest.central_tendency", "sigma_hat"),
    ("central_tendency.combined_moment", "centest.central_tendency", "combined_moment"),
    ("rationality.mode_test", "centest.rationality", "mode_test"),
    ("rationality.instrument_moment_test", "centest.rationality", "instrument_moment_test"),
    ("simulation.simulate_dgp", "centest.simulation", "simulate_dgp"),
    ("simulation.implied_theta", "centest.simulation", "implied_theta"),
    ("simulation.driver", "centest.simulation", "run_size_experiment"),
    ("simulation.driver", "centest.simulation", "run_coverage_experiment"),
    ("numerics.solve_spd", "centest.numerics", "solve_spd"),
    ("numerics.chi_square_sf", "centest.numerics", "chi_square_sf"),
    ("numerics.inverse_sqrt_spd", "centest.numerics", "inverse_sqrt_spd"),
)


def _grid_counts(args, kwargs, grid) -> dict:
    points = len(grid.points)
    singular = sum(1 for p in grid.points if p.note is not None)
    return {"grid_points": points, "singular_points": singular}


def _report_counts(args, kwargs, report) -> dict:
    return {"replications": report.replications, "successes": report.successes}


def _emit_bytes(args, kwargs, result) -> dict:
    paths = [kwargs.get(k) for k in ("json_path", "csv_path", "svg_path")]
    paths += list(args[1:])
    return {"emit_bytes": sum(os.path.getsize(p) for p in paths if p is not None)}


# Counters read from a traced call's arguments and result, keyed by span name.
OBSERVERS = {
    "central_tendency.confidence_set": _grid_counts,
    "simulation.driver": _report_counts,
    "dataio.emit": _emit_bytes,
}


class Tracer:
    """Records spans while installed; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []       # [name id, start, end, parent index]
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name: str, func):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    counters[key] = counters.get(key, 0) + value
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "centest" or n.startswith("centest."))]
        for name, module_name, attr in TRACED:
            func = getattr(sys.modules.get(module_name), attr, None)
            if not callable(func):
                continue
            wrapper = self._wrap(name, func)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is func:
                        self._patched.append((module, key, func))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, func in reversed(self._patched):
            setattr(module, key, func)
        self._patched.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name_id, start, end, _), covered in zip(self.spans, child):
            row = out.setdefault(self.names[name_id],
                                 {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - covered
        return out

    def write(self, path: Path) -> None:
        """Dump the spans as JSON: span names plus [name, start, end, parent]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}),
                        encoding="utf-8")
