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

J is the GMM objective S_T at the functional's vertex of the simplex that
confidence_set scans, where the row scale c_r cancels, so a test is the
one-row call of S_T's block kernel (central_tendency._objective_rows) on its
own functional's row, at theta = [[1]]. The size and power experiments call
the same kernel on blocks of replications and read the p-values alone;
instrument_moment_test and mode_test also form a TestResult, whose
covariance Omega is taken from the definition above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .central_tendency import _objective_rows
from .errors import SingularMatrixError, raise_row_failure
from .identification import (
    ForecastDataset,
    Functional,
    _check_bandwidth,
    _check_instrument_count,
    _one_block,
    _values,
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
    errors, instruments = _one_block(dataset)
    ((statistic,),), ((note,),), bandwidths, failures = _objective_rows(
        np.ones((1, 1)), errors, instruments, kernel, delta, functionals=(kind,))
    raise_row_failure(failures)
    if note is not None:
        raise SingularMatrixError(note)
    bandwidth = None if bandwidths is None else float(bandwidths[0])
    v2h = dataset.instruments * _values(kind, errors[0], bandwidth, kernel)[:, None] ** 2
    return TestResult(
        statistic=float(statistic), df=dataset.n_instruments,
        p_value=chi_square_sf(dataset.n_instruments, float(statistic)), functional=kind,
        bandwidth=bandwidth, covariance=v2h.T @ dataset.instruments / dataset.n_obs)
