"""Seeded inputs for the benchmark workloads.

The survey CSV is drawn here with the benchmark's own numpy code (a Philox
generator keyed by the workload seed), never through ``centest``, so that
the inputs stay fixed while the program under test changes.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

SURVEY_COLUMNS = ("y", "x", "xinst", "extra", "wave")

# Forecast errors eps = x - y are minus a Gamma(16, 0.25) draw re-centred on
# its mode, so they have unit variance, skewness -0.5 and mode 0, plus a
# wave-level shock that the clustered covariance has to absorb. At T = 20,000
# this usually leaves a small, non-empty confidence set near the mode vertex.
_GAMMA_SHAPE, _GAMMA_SCALE = 16.0, 0.25
_GAMMA_MODE = (_GAMMA_SHAPE - 1.0) * _GAMMA_SCALE
_WAVE_SHOCK_SD = 0.3

# Second Philox key word, so the survey draws share no stream with the
# program's own (seed, stream id) keys.
_SURVEY_KEY = 0x5355525645590000


def survey_rows(seed: int, waves: int, wave_size: int):
    """Columns of the wave-clustered survey: y, x, xinst (= x), extra, wave."""
    rng = np.random.Generator(np.random.Philox(key=[seed, _SURVEY_KEY]))
    n = waves * wave_size
    wave = np.repeat(np.arange(1, waves + 1), wave_size)
    wave_level = rng.normal(0.0, 1.0, waves)
    x = 2.0 + 0.5 * wave_level[wave - 1] + rng.normal(0.0, 1.0, n)
    extra = rng.normal(0.0, 1.0, n)
    shock = rng.normal(0.0, _WAVE_SHOCK_SD, waves)[wave - 1]
    eps = -(rng.gamma(_GAMMA_SHAPE, _GAMMA_SCALE, n) - _GAMMA_MODE) + shock
    y = x - eps
    return y, x, x.copy(), extra, wave


def write_survey_csv(path: Path, seed: int, waves: int, wave_size: int) -> str:
    """Write the survey CSV with 17 significant digits; return its sha256."""
    y, x, xinst, extra, wave = survey_rows(seed, waves, wave_size)
    lines = [",".join(SURVEY_COLUMNS)]
    lines.extend(
        f"{a:.17g},{b:.17g},{c:.17g},{d:.17g},{w:d}"
        for a, b, c, d, w in zip(y.tolist(), x.tolist(), xinst.tolist(),
                                 extra.tolist(), wave.tolist())
    )
    data = ("\n".join(lines) + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()
