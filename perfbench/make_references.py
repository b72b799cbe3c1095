#!/usr/bin/env python3
"""Write references/<workload>.json: the summarized output of every call of
each workload, for the seeds given (default 0 to 4).

Usage, from the root of a source checkout:

    python3 perfbench/make_references.py [SEED ...]

The references pin the program's current results, so regenerate them only
with a change that is meant to alter those results, and say so with it.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv: list[str]) -> int:
    seeds = [int(s) for s in argv] or list(range(5))
    run.cap_blas_threads()
    sys.path.insert(0, str(run.SRC))
    import centest.cli as cli
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        for name in workloads.WORKLOADS:
            stored = {}
            for seed in seeds:
                workloads.make_inputs(name, workdir, seed, False)
                stored[str(seed)] = entry = {}
                for call in workloads.make_calls(name, workdir, seed, False):
                    _, problems = run.run_call(cli, call)
                    files = {} if problems else workloads.read_outputs(call)
                    summary = {} if problems else workloads.summarize(call, files)
                    problems = problems or workloads.check_invariants(call, summary, files)
                    if problems:
                        print(f"{name} seed {seed} {call.label}: {problems}",
                              file=sys.stderr)
                        return 1
                    entry[call.label] = summary
                print(f"{name} seed {seed}: {', '.join(entry)}")
            workloads.REFERENCE_DIR.mkdir(exist_ok=True)
            workloads.reference_path(name).write_text(
                json.dumps(stored, sort_keys=True, separators=(",", ":")) + "\n",
                encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
