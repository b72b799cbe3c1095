#!/usr/bin/env python3
"""Smoke self-test of the benchmark, at tiny input sizes.

Usage, from the root of a source checkout:

    python3 perfbench/smoke.py

Runs every workload in BENCHMARK.json for one second untraced and traced,
and checks that the result line names exactly the metrics BENCHMARK.json
lists, each with its unit, that the readable table prints them too, and that
every call passed its output check. It also checks that the benchmark exits
non-zero, printing no result, in a copy that holds only BENCHMARK.json and
the benchmark's own files.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "1",
                         "--trace", str(trace)], tiny=True)
    lines = out.getvalue().strip().splitlines()
    if code != 0 or not lines:
        return [f"exit code {code}"]
    result = json.loads(lines[-1])
    bad = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        bad.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 \
            or not result.get("attempted", 0) >= 1:
        bad.append(f"correct/attempted/failed {result.get('correct')}/"
                   f"{result.get('attempted')}/{result.get('failed')}")
    metrics = result.get("metrics", {})
    table_rows = [line.split() for line in lines[:-1]]
    if set(metrics) != set(expected):
        bad.append(f"metrics differ: {sorted(set(metrics) ^ set(expected))}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        if entry.get("unit") != unit or not isinstance(entry.get("value"), (int, float)):
            bad.append(f"{name}: {entry!r}, expected unit {unit!r}")
        if not any(row and row[0] == name and row[-1] == unit for row in table_rows):
            bad.append(f"{name} is not in the table with unit {unit}")
    return bad


def check_bare_directory() -> list[str]:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-smoke-", dir=run.ROOT))
    try:
        shutil.copy2(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "survey-test",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, env=env, capture_output=True, text=True, timeout=180, check=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = check_bare_directory()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in spec[key]}
            found = check_run(workload, trace, expected)
            problems += [f"{workload} --trace {trace}: {p}" for p in found]
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
