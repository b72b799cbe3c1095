"""Single-functional rationality tests.

Mean and median use the classical instrument-moment Wald form

    J = (1/T) (sum_t v_t h_t)' Omega^{-1} (sum_t v_t h_t),
    Omega = (1/T) sum_t v_t^2 h_t h_t',

with v the identification value. One-step forecast errors form an
(approximate) martingale difference sequence, so the uncentered outer
product is the right covariance estimator and no HAC correction is applied.

The mode test replaces v by the smoothed identification function with a
shrinking bandwidth:

    psi_t  = -delta**(-2) K'(eps_t / delta) h_t
    m      = delta**(3/2) T**(-1/2) sum_t psi_t
    Omega  = (1/T) sum_t delta**(-1) K'(eps_t / delta)^2 h_t h_t'
    J      = m' Omega^{-1} m

Both statistics are asymptotically chi-square with k = dim(h) degrees of
freedom under their null.

The mode test is computed by a block kernel, _mode_tests, that scores many
datasets of equal length at once (the Monte Carlo harness passes a block of
replications); mode_test is its one-row case. Like every block kernel it
returns its per-dataset results and a failures list holding, per dataset,
None or the exception mode_test would raise: DegenerateErrors from the
bandwidth (zero MAD, then zero sd), then SingularMatrixError from the
covariance floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import _block_bandwidths
from .errors import SingularMatrixError, first_failures, raise_row_failure
from .identification import (
    ForecastDataset,
    Functional,
    forecast_errors,
    identification_values,
)
from .numerics import Kernel, chi_square_sf, floored_eigh, gaussian_kernel, solve_spd


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

    Raises SingularMatrixError when the moment covariance fails the
    eigenvalue floor (for example, identically zero errors).
    """
    kind = Functional(kind)
    if kind is Functional.MODE:
        raise ValueError("use mode_test for the mode; it needs a bandwidth")
    errors = forecast_errors(dataset)
    values = identification_values(kind, errors)
    h = dataset.instruments
    t = dataset.n_obs
    vh = values[:, None] * h
    omega = vh.T @ vh / t
    total = vh.sum(axis=0)
    statistic = float(total @ solve_spd(omega, total)) / t
    k = dataset.n_instruments
    return TestResult(
        statistic=statistic,
        df=k,
        p_value=chi_square_sf(k, statistic),
        functional=kind,
        bandwidth=None,
        covariance=omega,
    )


def mode_test(
    dataset: ForecastDataset,
    delta: float | None = None,
    kernel: Kernel | None = None,
) -> TestResult:
    """Nonparametric test of mode forecast rationality.

    ``delta`` defaults to the rule-of-thumb bandwidth computed from the
    forecast errors. Raises DegenerateErrors if the errors carry no
    dispersion and SingularMatrixError if the covariance is singular. This
    is the one-row case of _mode_tests.
    """
    if delta is not None and delta <= 0:
        raise ValueError(f"bandwidth must be positive, got {delta}")
    (result,), failures = _mode_tests(
        forecast_errors(dataset)[None], dataset.instruments[None],
        kernel or gaussian_kernel(), delta,
    )
    raise_row_failure(failures)
    return result


def _mode_tests(
    errors: np.ndarray,
    instruments: np.ndarray,
    kernel: Kernel,
    delta: float | None = None,
) -> tuple[list[TestResult | None], list]:
    """Mode tests of a block of datasets: errors (B, T), instruments (B, T, k).

    Without ``delta`` each dataset gets its own rule-of-thumb bandwidth.
    Returns the TestResults and, per dataset, None or the exception
    mode_test raises on it, checked in mode_test's order: the bandwidth's
    DegenerateErrors (zero MAD, then zero sd), then the covariance's
    eigenvalue floor (SingularMatrixError). A failed dataset's result is
    None and its values are finite placeholders, so it raises no warning and
    leaves the others unchanged.
    """
    b, t, k = instruments.shape
    delta, failures = _block_bandwidths(errors, delta)
    d = delta[:, None]
    kp = kernel.deriv_at(errors / d)
    psi = (-(d ** -2.0) * kp)[:, :, None] * instruments
    moment = (delta ** 1.5 * t ** -0.5)[:, None] * psi.sum(axis=1)
    weighted = instruments * (d ** -1.0 * kp ** 2)[:, :, None]
    omega = np.swapaxes(weighted, 1, 2) @ instruments / t
    lam, q, notes = floored_eigh(omega)
    failures = first_failures(
        failures, [None if note is None else SingularMatrixError(note) for note in notes])
    ok = np.array([failure is None for failure in failures])
    proj = (moment[:, None, :] @ q)[:, 0, :]
    statistics = np.where(
        ok, np.sum(proj ** 2 / np.where(ok[:, None], lam, 1.0), axis=1), 0.0)
    tests = [
        TestResult(
            statistic=s,
            df=k,
            p_value=chi_square_sf(k, s),
            functional=Functional.MODE,
            bandwidth=bw,
            covariance=omega[i],
        ) if failures[i] is None else None
        for i, (s, bw) in enumerate(zip(statistics.tolist(), delta.tolist()))
    ]
    return tests, failures
