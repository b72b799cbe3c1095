"""Rule-of-thumb bandwidth for the smoothed mode identification function:

    delta = k1 * k2 * T**(-0.143)

with k1 = 2.4 * MAD(errors) and k2 = exp(-3 * |pearson second skewness|).
The exponent is deliberately the literal 0.143 (almost 1/7, the rate that
maximizes the convergence speed of the mode test with a first-order kernel).

Every median here is numpy's (the mean of the two middle order statistics
for an even length), found by one single-rank selection (``_row_median``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateErrors, raise_row_failure

BANDWIDTH_EXPONENT = 0.143
MAD_SCALE = 2.4
SKEW_DAMPING = 3.0

_ZERO_MAD = "forecast errors have zero median absolute deviation"
_ZERO_SD = "errors have zero standard deviation"


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

    The median is numpy's: the average of the two middle order statistics
    of an even-length vector, found by one single-rank selection. Raises
    ValueError on an empty vector or a non-finite error.
    """
    e = _finite_errors(errors)
    if e.size == 0:
        raise ValueError("median_abs_deviation needs a nonempty vector")
    return float(_mad_about(e, _row_median(e.copy())))


def _finite_errors(errors) -> np.ndarray:
    """The errors as a float vector; ValueError if one is NaN or infinite."""
    e = np.asarray(errors, dtype=float).ravel()
    if not np.isfinite(e).all():
        raise ValueError("errors contain non-finite values")
    return e


def _row_median(part: np.ndarray) -> np.ndarray:
    """numpy's median of each row of a finite (..., T) array, T >= 1, whose
    rows it reorders in place: one single-kth partition, which numpy's fast
    selection serves (its own median asks for two or three ranks), gives
    the middle order statistic for odd T; for even T the lower middle one
    is the largest of the lower half, and the median their mean. Only the
    sign of a zero median can differ from numpy's."""
    half = part.shape[-1] // 2
    part.partition(half, axis=-1)
    if part.shape[-1] % 2:
        return part[..., half].copy()
    return (part[..., :half].max(axis=-1) + part[..., half]) / 2


def _mad_about(e: np.ndarray, median) -> np.ndarray:
    """MAD of each row of ``e`` (..., T) about its median (...)."""
    deviations = e - np.expand_dims(median, -1)
    return _row_median(np.abs(deviations, out=deviations))


def pearson_second_skewness(errors) -> float:
    """3 * (mean - median) / sd, with the population (1/T) sd divisor.

    Raises ValueError on an empty vector or a non-finite error, and
    DegenerateErrors when the standard deviation is zero.
    """
    e = _finite_errors(errors)
    if e.size == 0:
        raise ValueError("pearson_second_skewness needs a nonempty vector")
    skew, zero_sd = _skewness_about(e, _row_median(e.copy()))
    if zero_sd:
        raise DegenerateErrors(_ZERO_SD)
    return float(skew)


def _skewness_about(e: np.ndarray, median) -> tuple[np.ndarray, np.ndarray]:
    """Skewness of each row of ``e`` (..., T) about its median (...), and
    where the sd is zero; there the skewness is a finite placeholder."""
    sd = e.std(axis=-1)
    zero_sd = sd == 0.0
    return 3.0 * (e.mean(axis=-1) - median) / np.where(zero_sd, 1.0, sd), zero_sd


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
    distribution admits no meaningful test, so there is no silent floor,
    and ValueError on a non-finite error. This is the one-row case of
    ``_bandwidth_block``.
    """
    e = _finite_errors(errors)
    if e.size < 2:
        raise ValueError("bandwidth rule needs at least 2 observations")
    n = int(n_obs) if n_obs is not None else int(e.size)
    if n < 2:
        raise ValueError(f"sample size must be >= 2, got {n}")
    block, failures = _bandwidth_block(e[None], n)
    raise_row_failure(failures)
    return BandwidthReport(
        delta=float(block.delta[0]),
        k1=float(block.k1[0]),
        k2=float(block.k2[0]),
        skewness_hat=float(block.skewness_hat[0]),
        mad=float(block.mad[0]),
        n_obs=n,
    )


def _bandwidth_block(errors: np.ndarray, n: int) -> tuple[BandwidthReport, list]:
    """The rule applied to every row of a (B, T) error block at sample size n.

    Returns a report whose fields (n_obs aside) are (B,) arrays and, per row,
    None or the DegenerateErrors the one-row rule raises: zero MAD first,
    then zero sd. A failed row gets the placeholder bandwidth 1. The errors
    must be finite.
    """
    median = _row_median(errors.copy())  # shared by the MAD and the skewness
    mad = _mad_about(errors, median)
    skew, zero_sd = _skewness_about(errors, median)
    failures = [
        DegenerateErrors(_ZERO_MAD) if m == 0.0
        else DegenerateErrors(_ZERO_SD) if z else None
        for m, z in zip(mad.tolist(), zero_sd.tolist())
    ]
    k1 = MAD_SCALE * mad
    k2 = np.exp(-SKEW_DAMPING * np.abs(skew))
    delta = k1 * k2 * n ** (-BANDWIDTH_EXPONENT)
    delta[(mad == 0.0) | zero_sd] = 1.0
    report = BandwidthReport(delta=delta, k1=k1, k2=k2, skewness_hat=skew, mad=mad,
                             n_obs=n)
    return report, failures


def _block_bandwidths(errors: np.ndarray, delta=None) -> tuple[np.ndarray, list]:
    """Bandwidths (B,) of a (B, T) error block and its per-row failures:
    each row's rule-of-thumb bandwidth at sample size T when ``delta`` is
    None, else ``delta`` for every row (which then cannot fail)."""
    if delta is None:
        report, failures = _bandwidth_block(errors, errors.shape[1])
        return report.delta, failures
    return np.full(errors.shape[0], float(delta)), [None] * errors.shape[0]
