"""One set-up sample, taken in a fresh interpreter.

Usage: python3 perfbench/probe.py WORKLOAD SEED WORKDIR TINY

Times ``import centest.cli`` and then the generation of the workload's
inputs, and prints {"import_s", "inputs_s", "inputs"} as one JSON line.
``src`` must be on PYTHONPATH.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
import centest.cli  # noqa: E402,F401  (the timed import)

imported = time.perf_counter()
import workloads  # noqa: E402

name, seed, workdir, tiny = sys.argv[1:5]
digests = workloads.make_inputs(name, Path(workdir), int(seed), tiny == "1")
done = time.perf_counter()
print(json.dumps({"import_s": imported - start, "inputs_s": done - imported,
                  "inputs": digests}))
