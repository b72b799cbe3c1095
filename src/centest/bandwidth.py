"""Rule-of-thumb bandwidth for the smoothed mode identification function:

    delta = k1 * k2 * T**(-0.143)

with k1 = 2.4 * MAD(errors) and k2 = exp(-3 * |pearson second skewness|).
The exponent is deliberately the literal 0.143 (almost 1/7, the rate that
maximizes the convergence speed of the mode test with a first-order kernel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateErrors

BANDWIDTH_EXPONENT = 0.143
MAD_SCALE = 2.4
SKEW_DAMPING = 3.0


@dataclass(frozen=True)
class BandwidthReport:
    """Bandwidth with all intermediates of the rule that produced it."""

    delta: float
    k1: float
    k2: float
    skewness_hat: float
    mad: float
    n_obs: int


def median_abs_deviation(errors) -> float:
    """Median absolute deviation around the median.

    The median of an even-length vector is the average of the two middle
    order statistics (numpy's convention).
    """
    e = np.asarray(errors, dtype=float)
    if e.size == 0:
        raise ValueError("median_abs_deviation needs a nonempty vector")
    return _mad_about(e, np.median(e))


def _mad_about(e: np.ndarray, median) -> float:
    return float(np.median(np.abs(e - median)))


def pearson_second_skewness(errors) -> float:
    """3 * (mean - median) / sd, with the population (1/T) sd divisor.

    Raises DegenerateErrors when the standard deviation is zero.
    """
    e = np.asarray(errors, dtype=float)
    return _skewness_about(e, np.median(e))


def _skewness_about(e: np.ndarray, median) -> float:
    sd = float(e.std())
    if sd == 0.0:
        raise DegenerateErrors("errors have zero standard deviation")
    return float(3.0 * (e.mean() - median) / sd)


def bandwidth_rule_of_thumb(errors, n_obs: int | None = None) -> BandwidthReport:
    """Bandwidth report for the given forecast errors.

    Parameters
    ----------
    errors : array-like
        Forecast errors (forecast minus realization).
    n_obs : int, optional
        Sample size entering the T**(-0.143) factor. Defaults to len(errors);
        passing it separately lets a pooled sample stand in for the error
        population at a different evaluation sample size.

    Raises DegenerateErrors when the MAD is zero: a degenerate error
    distribution admits no meaningful test, so there is no silent floor.
    """
    e = np.asarray(errors, dtype=float)
    if e.size < 2:
        raise ValueError("bandwidth rule needs at least 2 observations")
    n = int(n_obs) if n_obs is not None else int(e.size)
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    median = np.median(e)  # shared by the MAD and the skewness
    mad = _mad_about(e, median)
    if mad == 0.0:
        raise DegenerateErrors("forecast errors have zero median absolute deviation")
    skew = _skewness_about(e, median)
    k1 = MAD_SCALE * mad
    k2 = float(np.exp(-SKEW_DAMPING * abs(skew)))
    delta = k1 * k2 * n ** (-BANDWIDTH_EXPONENT)
    return BandwidthReport(delta=delta, k1=k1, k2=k2, skewness_hat=skew, mad=mad, n_obs=n)
