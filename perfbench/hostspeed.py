"""Host-speed calibration: a fixed kernel timed around and during each call.

On a shared host the CPU a run gets is not equally fast all the time (see
README.md, "Host-speed calibration"). The kernel below is the benchmark's
own code and never changes, so its time measures only the host. It is timed
before and after every program call and, through SIGALRM, every
``PERIOD_S`` seconds while a call runs; the call's own wall time (the time
the samples took taken out) is then rescaled by the mean kernel time.

A calibrated time is in reference seconds: the wall time the call would
have taken had the kernel run in exactly ``REFERENCE_S`` seconds, about its
time on an idle 2-vCPU reference host. A faster program gives
proportionally fewer reference seconds; a faster or slower host gives the
same number.

The kernel mixes the kinds of work the workloads do: a Python loop over
numpy scalars (as in a GARCH recursion), ``np.add.at`` scatter sums and
array reductions (as in a clustered covariance), and many 3-by-3 solves
(per-point small algebra). It uses no multi-threaded BLAS call.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.003
PERIOD_S = 0.25
BOUNDARY_RUNS = 3
WARMUP = 20

_rng = np.random.Generator(np.random.Philox(key=[0, 0x43414C4942524154]))
_XI = _rng.normal(size=400)
_GROUP = _rng.integers(0, 40, 4000)
_VALUES = _rng.normal(size=(4000, 3))
_OTHER = _rng.normal(size=(4000, 3))
_SYSTEM = np.eye(3) + 0.1


def _kernel() -> float:
    s2, prev = 1.0, 0.0
    path = np.empty(_XI.size)
    for i in range(_XI.size):
        path[i] = 0.5 * prev + np.sqrt(s2) * _XI[i]
        prev = path[i]
        s2 = 0.05 + 0.9 * s2 + 0.05 * s2 * _XI[i] ** 2
    total = float(path.sum())
    for _ in range(3):
        sums = np.zeros((40, 3))
        np.add.at(sums, _GROUP, _VALUES)
        total += float(sums.sum() + (_OTHER * _VALUES).sum(axis=0).sum())
    rhs = np.ones(3)
    for _ in range(160):
        total += float(np.linalg.solve(_SYSTEM, rhs) @ rhs)
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def boundary() -> float:
    """Median kernel time of a few runs, taken between two calls."""
    return statistics.median(kernel_seconds() for _ in range(BOUNDARY_RUNS))


@contextlib.contextmanager
def sampled(samples: list):
    """Append the kernel's time to ``samples`` every ``PERIOD_S`` seconds
    while the block runs. Must be entered from the main thread."""
    def tick(signum, frame):
        samples.append(kernel_seconds())

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    try:
        yield samples
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, previous)


def warm_up() -> None:
    for _ in range(WARMUP):
        _kernel()
