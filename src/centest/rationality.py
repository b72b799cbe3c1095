"""Single-functional rationality tests: one Wald statistic for the mean,
median and mode,

    J = (1/T) (sum_t v_t h_t)' Omega^{-1} (sum_t v_t h_t),
    Omega = (1/T) sum_t v_t^2 h_t h_t',

asymptotically chi-square with k = dim(h) degrees of freedom under the null,
with v the functional's identification value (see identification_values):
the forecast error, its sign, or the kernel-smoothed mode value with a
shrinking bandwidth. One-step forecast errors form an (approximate)
martingale difference sequence, so the uncentered outer product is the right
covariance estimator and no HAC correction is applied.

J is the GMM objective S_T at a vertex of the simplex that confidence_set
scans, where the row scale c_r cancels, so a test scores the whitened moment
sums and Gram of its own row (identification._moment_gram) as S_T does, and
Omega = G^{-1} Gram G^{-1} in the caller's coordinates. The block kernel
_tests_block scores one functional on many datasets of equal length at once
(the Monte Carlo harness passes a block of replications and reads the
p-values alone); instrument_moment_test and mode_test are its one-row case,
and only they form a TestResult and its covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import _block_bandwidths
from .central_tendency import _objectives_block
from .errors import SingularMatrixError, first_failures, raise_row_failure
from .identification import (
    ForecastDataset,
    Functional,
    _check_bandwidth,
    _check_instrument_count,
    _moment_gram,
    _one_block,
    _values,
    _whiten,
)
from .numerics import Kernel, chi_square_sf


@dataclass(frozen=True)
class TestResult:
    """Outcome of one rationality test."""

    statistic: float
    df: int
    p_value: float
    functional: Functional
    bandwidth: float | None
    covariance: np.ndarray

    def reject_at(self, alpha: float) -> bool:
        return self.p_value < alpha


def instrument_moment_test(
    kind: Functional | str, dataset: ForecastDataset
) -> TestResult:
    """Wald test of mean or median forecast rationality.

    Raises ValueError unless k < n_obs, and SingularMatrixError when the
    instruments are collinear or the moment covariance fails the eigenvalue
    floor (for example, identically zero errors).
    """
    kind = Functional(kind)
    if kind is Functional.MODE:
        raise ValueError("use mode_test for the mode; it needs a bandwidth")
    return _one_row(kind, dataset, None)


def mode_test(
    dataset: ForecastDataset,
    delta: float | None = None,
    kernel: Kernel | None = None,
) -> TestResult:
    """Nonparametric test of mode forecast rationality.

    ``delta`` defaults to the rule-of-thumb bandwidth computed from the
    forecast errors. Raises ValueError unless k < n_obs, DegenerateErrors if
    the errors carry no dispersion and SingularMatrixError if the
    instruments are collinear or the covariance is singular.
    """
    if delta is not None:
        _check_bandwidth(delta)
    return _one_row(Functional.MODE, dataset, kernel, delta)


def _one_row(kind: Functional, dataset: ForecastDataset, kernel,
             delta=None) -> TestResult:
    _check_instrument_count(dataset.n_instruments, dataset.n_obs, "a test")
    statistics, p_values, bandwidths, failures, (lam, q), grams = _tests_block(
        kind, *_one_block(dataset), kernel, delta)
    raise_row_failure(failures)
    # Omega = G^{-1} Gram G^{-1}, with G^{-1} = q lam^{1/2} q'
    root = (q * np.sqrt(lam)[:, None, :]) @ np.swapaxes(q, 1, 2)
    return TestResult(
        statistic=float(statistics[0]), df=dataset.n_instruments,
        p_value=float(p_values[0]), functional=kind,
        bandwidth=None if bandwidths is None else float(bandwidths[0]),
        covariance=(root @ grams @ root)[0])


def _tests_block(
    kind: Functional,
    errors: np.ndarray,
    instruments: np.ndarray,
    kernel: Kernel | None,
    delta: float | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, list, tuple, np.ndarray]:
    """Tests of one functional on a block of datasets: errors (B, T),
    instruments (B, k, T).

    For the mode, each dataset gets its own rule-of-thumb bandwidth unless
    ``delta`` is given; mean and median use neither ``delta`` nor
    ``kernel``. Returns the (B,) statistics and p-values; the (B,) mode
    bandwidths (None for the mean and median); per dataset None or the
    exception the one-row test raises on it, in that test's order: the mode
    bandwidth's DegenerateErrors (zero MAD, then zero sd), then the
    SingularMatrixError of the instrument whitener, then of the covariance's
    eigenvalue floor in the whitened basis; and the whitener's eigenpairs
    (lam, q) with the (B, k, k) Grams of the whitened rows, from which
    _one_row forms a test's covariance. A failed dataset's statistic and
    p-value are placeholders (NaN at a floored covariance) and leave the
    others unchanged.
    """
    b, k, _ = instruments.shape
    bandwidths, failures = None, [None] * b
    if kind is Functional.MODE:
        bandwidths, failures = _block_bandwidths(errors, delta)
        delta = bandwidths[:, None]
    whitened, eigenpairs, singular = _whiten(instruments)
    g, gram = _moment_gram(_values(kind, errors, delta, kernel)[:, None], whitened)
    statistics, notes = _objectives_block(np.ones((1, 1)), g, gram)
    floored = [None if note is None else SingularMatrixError(note) for (note,) in notes]
    failures = first_failures(failures, singular, floored)
    return (statistics[:, 0], chi_square_sf(k, statistics[:, 0]), bandwidths, failures,
            eigenpairs, gram[:, 0, :, 0, :])
