#!/usr/bin/env python3
"""Benchmark of the centest CLI: end-to-end timings and traced layer costs.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from ``src/`` of the checkout and driven in-process
through ``centest.cli.main``, one call after another (a closed loop with one
client). A workload is a fixed cycle of CLI calls; after one warm-up cycle
the cycle is repeated until S seconds have passed. A fixed calibration
kernel is timed between calls and every quarter second during them (see
``hostspeed.py``); each call's wall time is rescaled by the mean kernel time
around and during it, and ``cycle_ref_s`` is the median of the rescaled
cycle times (the sums of their calls). Every call's outputs are checked
(see ``workloads.py``).

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half of
the S seconds untraced and half with the span tracer installed, and prints
the per-layer metrics (per cycle, from the traced half) plus the tracing
overhead, traced minus untraced, of every end-to-end metric. The last line of
standard output is the JSON result; the lines before it are a readable table
and a JSON record of the environment and input hashes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_out"

SETUP_SAMPLES = 3
PROBE_TIMEOUT_S = 60
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)

END_TO_END = {"cycle_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

# "<span>.<field>": per cycle in the traced half, a count for "calls" and
# seconds for "s" (inclusive) and "self_s".
LAYER_SPANS = (
    "cli.self_s",
    "dataio.load_csv.calls", "dataio.load_csv.s", "dataio.emit.s", "dataio.write_json.s",
    "bandwidth.rule.calls", "bandwidth.rule.s",
    "identification.stacked_moments.calls", "identification.stacked_moments.s",
    "identification.weighting_matrices.s",
    "central_tendency.confidence_set.s", "central_tendency.confidence_set.self_s",
    "central_tendency.objective.calls", "central_tendency.objective.s",
    "central_tendency.sigma_hat.s", "central_tendency.combined_moment.s",
    "rationality.mode_test.calls", "rationality.mode_test.s",
    "rationality.instrument_moment_test.s",
    "simulation.simulate_dgp.calls", "simulation.simulate_dgp.s",
    "simulation.implied_theta.s", "simulation.driver.self_s",
    "numerics.solve_spd.calls", "numerics.solve_spd.s",
    "numerics.chi_square_sf.calls", "numerics.inverse_sqrt_spd.calls",
)
IMPORT_MODULES = {"import.scipy_signal_s": "scipy.signal",
                  "import.centest_numerics_s": "centest.numerics"}
OTHER_LAYER_UNITS = {
    "dataio.emit.bytes": "bytes",
    "central_tendency.singular_points": "count",
    "central_tendency.scored_ratio": "ratio",
    "simulation.successes_ratio": "ratio",
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    **{name: "s" for name in IMPORT_MODULES},
    "wall.cycle_s": "s",
    "host.kernel_s": "s",
    **{f"overhead.{name}": unit for name, unit in END_TO_END.items()},
    "trace.self_sum_ratio": "ratio",
}
PER_LAYER = {**{m: "count" if m.endswith(".calls") else "s" for m in LAYER_SPANS},
             **OTHER_LAYER_UNITS}


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed operation)."""


def cap_blas_threads() -> int:
    """Cap the BLAS/OpenMP thread count of this process and its children at
    the number of usable cores; return that number."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else (os.cpu_count() or 1)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            requested = int(os.environ.get(var, nproc))
        except ValueError:
            requested = nproc
        os.environ[var] = str(max(1, min(requested, nproc)))
    return nproc


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and ".so" in line})
    out = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(handle, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                out[Path(lib).name] = func()
                break
    return out


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_thread_cap": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def probe_setup(name: str, seed: int, workdir: Path, tiny: bool, importtime: bool) -> dict:
    """One fresh-interpreter set-up sample (see probe.py)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(HERE / "probe.py"), name, str(seed), str(workdir), "1" if tiny else "0"]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"set-up probe exceeded {PROBE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    try:
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchmarkError(
            f"set-up probe printed no result: {proc.stdout[-200:]!r}") from None
    if importtime:
        # "import time: self [us] | cumulative | imported package"
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 \
                    and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        for metric, module in IMPORT_MODULES.items():
            sample[metric] = cumulative.get(module, 0.0)
    return sample


def run_call(cli, call) -> tuple[float, list[str]]:
    """Time one in-process CLI call; return (seconds, problems)."""
    for _, path in call.outputs:
        path.unlink(missing_ok=True)
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(list(call.argv))
    except Exception as exc:  # a crash is a failed operation, counted below
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, [f"exit code {code}: {sink.getvalue().strip()[-300:]}"]
    return elapsed, []


class Checker:
    """Output check of every call; counts attempted and failed operations."""

    def __init__(self, workloads_module, references):
        self.w = workloads_module
        self.references = references or {}
        self.first: dict = {}       # label -> (files, problems) of its first call
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _check(self, call) -> list[str]:
        try:
            files = self.w.read_outputs(call)
        except OSError as exc:
            return [f"missing output: {exc}"]
        if call.label in self.first:
            first_files, first_problems = self.first[call.label]
            if files == first_files:
                return first_problems
            return ["outputs differ from the first call with the same arguments"]
        try:
            summary = self.w.summarize(call, files)
            bad = self.w.check_invariants(call, summary, files)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad = [f"malformed output: {exc!r}"]
        else:
            ref = self.references.get(call.label)
            if ref is not None:
                bad += [f"reference: {p}" for p in self.w.compare(ref, summary)]
        self.first[call.label] = (files, bad)
        return bad

    def record(self, call, problems: list[str]) -> None:
        problems = problems or self._check(call)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{call.label}: {p}" for p in problems[:3])


class Cycles(NamedTuple):
    wall: list       # wall seconds of each cycle, calibration samples excluded
    ref: list        # the same, calibrated to reference seconds
    sampled: list    # seconds of calibration samples taken inside each cycle's calls
    kernel: list     # every calibration kernel time
    by_label: dict   # label -> [(wall, ref) of each call]


def measure(cli, calls, checker: Checker, seconds: float) -> Cycles:
    """Repeat the call cycle until ``seconds`` have passed, timing the
    calibration kernel between calls and, sampled, during them."""
    import hostspeed  # imports numpy, so only after the thread cap

    out = Cycles([], [], [], [], {})
    before = hostspeed.boundary()
    out.kernel.append(before)
    deadline = time.perf_counter() + seconds
    while not out.wall or time.perf_counter() < deadline:
        wall = ref = inside = 0.0
        for call in calls:
            with hostspeed.sampled([]) as samples:
                elapsed, problems = run_call(cli, call)
            after = hostspeed.boundary()
            checker.record(call, problems)
            own = elapsed - sum(samples)
            scaled = own * hostspeed.REFERENCE_S / statistics.fmean([before, after, *samples])
            out.by_label.setdefault(call.label, []).append((own, scaled))
            out.kernel.extend([*samples, after])
            before = after
            wall += own
            ref += scaled
            inside += sum(samples)
        out.wall.append(wall)
        out.ref.append(ref)
        out.sampled.append(inside)
    return out


def high_percentile(values: list[float]):
    """(p, value) for the highest listed percentile with >= 10 samples above."""
    ordered = sorted(values)
    n = len(ordered)
    for p in PERCENTILES:
        if n * (1.0 - p / 100.0) >= 10.0:
            return p, ordered[max(0, math.ceil(p / 100.0 * n) - 1)]
    return None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(cycles: Cycles, setup, checker) -> dict:
    return {
        "cycle_ref_s": statistics.median(cycles.ref),
        "setup_s": statistics.median(s["import_s"] + s["inputs_s"] for s in setup),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": 1.0 - checker.failed / checker.attempted,
    }


def layer_metrics(trace, cycles: Cycles, traced: Cycles, setup, traced_setup) -> dict:
    n_cycles = len(traced.wall)
    layers = trace.layer_times()
    out = {}
    for metric in LAYER_SPANS:
        span, field = metric.rsplit(".", 1)
        out[metric] = layers.get(span, {}).get(field, 0) / n_cycles
    c = trace.counters
    out["dataio.emit.bytes"] = c.get("emit_bytes", 0) / n_cycles
    out["central_tendency.singular_points"] = c.get("singular_points", 0) / n_cycles
    grid = c.get("grid_points", 0)
    scored = grid - c.get("singular_points", 0)
    out["central_tendency.scored_ratio"] = scored / grid if grid else 0.0
    reps = c.get("replications", 0)
    out["simulation.successes_ratio"] = c.get("successes", 0) / reps if reps else 0.0
    out["setup.import_s"] = statistics.median(s["import_s"] for s in setup)
    out["setup.inputs_s"] = statistics.median(s["inputs_s"] for s in setup)
    for metric in IMPORT_MODULES:
        out[metric] = statistics.median(s[metric] for s in traced_setup)
    out["wall.cycle_s"] = statistics.median(cycles.wall)
    out["host.kernel_s"] = statistics.median(cycles.kernel)
    self_sum = sum(row["self_s"] for row in layers.values())
    out["trace.self_sum_ratio"] = self_sum / (sum(traced.wall) + sum(traced.sampled))
    return out


def _row(label, median, values, unit) -> str:
    high = high_percentile(values)
    high_text = f"p{high[0]:g} {high[1]:.6g}" if high else "-"
    return f"{label:<24}{median:>14.6g}{high_text:>22}{len(values):>6}  {unit}"


def print_table(name, untraced, cycles: Cycles, checker, setup, traced=None) -> None:
    """Readable table: every metric with its median, the highest percentile
    with at least ten samples above it, and the sample count; then the wall
    times, which the calibration has not rescaled."""
    print(f"workload {name}: {checker.attempted} calls, {checker.failed} failed "
          f"(fail_frac {checker.failed / checker.attempted:.6g})")
    print(f"{'metric':<24}{'median':>14}{'high pct':>22}{'n':>6}  unit")
    samples = {"cycle_ref_s": cycles.ref,
               "setup_s": [s["import_s"] + s["inputs_s"] for s in setup]}
    for metric, unit in END_TO_END.items():
        print(_row(metric, untraced[metric], samples.get(metric, [untraced[metric]]), unit))
    print(_row("wall:cycle_s", statistics.median(cycles.wall), cycles.wall, "s"))
    for label, pairs in cycles.by_label.items():
        kind, _, variant = label.partition("-")
        suffix = f"[{variant}]" if variant else ""
        refs, walls = [r for _, r in pairs], [w for w, _ in pairs]
        print(_row(f"{kind}_ref_s{suffix}", statistics.median(refs), refs, "s"))
        print(_row(f"wall:{kind}_s{suffix}", statistics.median(walls), walls, "s"))
    print(_row("wall:kernel_s", statistics.median(cycles.kernel), cycles.kernel, "s"))
    if traced is not None:
        for metric, unit in PER_LAYER.items():
            print(f"{metric:<40}{traced[metric]:>14.6g}  {unit}")


def main(argv=None, tiny: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "centest" / "__init__.py").is_file():
        print(f"perfbench: no centest sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2 ** 63 or args.seconds <= 0:
        print("perfbench: seed must lie in [0, 2**63) and seconds be positive",
              file=sys.stderr)
        return 2

    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import workloads  # numpy is imported only after the thread cap

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    import centest
    import centest.cli as cli

    if SRC.resolve() not in Path(centest.__file__).resolve().parents:
        print(f"perfbench: centest was imported from {centest.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        return _run(args, tiny, nproc, workdir, workloads, cli)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, tiny, nproc, workdir, workloads, cli) -> int:
    import hostspeed

    name, seed = args.workload, args.seed
    repeats = 1 if tiny else SETUP_SAMPLES
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    setup = [probe_setup(name, seed, probe_dir, tiny, False) for _ in range(repeats)]
    traced_setup = [probe_setup(name, seed, probe_dir, tiny, True)
                    for _ in range(repeats if args.trace else 0)]

    digests = workloads.make_inputs(name, workdir, seed, tiny)
    deterministic = all(s["inputs"] == digests for s in setup + traced_setup)
    calls = workloads.make_calls(name, workdir, seed, tiny)
    checker = Checker(workloads, workloads.load_references(name, seed, tiny))
    for call in calls:  # warm-up cycle, checked but not timed
        checker.record(call, run_call(cli, call)[1])
    hostspeed.warm_up()

    phase = args.seconds / 2 if args.trace else args.seconds
    cycles = measure(cli, calls, checker, phase)
    untraced = end_to_end(cycles, setup, checker)
    per_layer = None
    if args.trace:
        import tracer

        trace = tracer.Tracer()
        trace.install()
        try:
            traced_cycles = measure(cli, calls, checker, phase)
        finally:
            trace.uninstall()
        traced = end_to_end(traced_cycles, traced_setup, checker)
        per_layer = layer_metrics(trace, cycles, traced_cycles, setup, traced_setup)
        per_layer.update({f"overhead.{m}": traced[m] - untraced[m] for m in END_TO_END})
        trace.write(TRACE_DIR / f"trace-{name}-seed{seed}.json")

    print_table(name, untraced, cycles, checker, setup, per_layer)
    for problem in checker.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    if not deterministic:
        print("FAILED input generation differs between processes", file=sys.stderr)
    print(json.dumps({"environment": environment(nproc), "inputs_sha256": digests,
                      "workload": name, "seed": seed, "trace": args.trace}))
    values, units = (per_layer, PER_LAYER) if args.trace else (untraced, END_TO_END)
    print(json.dumps({
        "correct": checker.failed == 0 and deterministic,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m: {"value": values[m], "unit": unit} for m, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
