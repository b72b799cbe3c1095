"""Per-observation identification values for mean, median and mode, and the
stacked, weight-normalized 3 x k moment rows they form.

The error convention is eps = forecast - realization throughout. All three
identification values are odd in eps (the smoothed mode value via the odd
symmetry of K'), so the moment rows flip sign with the errors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bandwidth import _block_bandwidths
from .errors import SingularMatrixError, first_failures
from .numerics import KERNELS, RELATIVE_EIG_FLOOR, Kernel, floored_eigh


class Functional(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    MODE = "mode"


FUNCTIONALS = (Functional.MEAN, Functional.MEDIAN, Functional.MODE)


@dataclass(frozen=True, eq=False)
class ForecastDataset:
    """Aligned forecasts, realizations and instruments; the unit every test
    consumes.

    Frozen, and its arrays are read-only views of the inputs, so a dataset
    cannot be edited past the checks made when it is built. Two datasets are
    equal when they hold the same fields with equal arrays; a dataset is not
    hashable.

    Attributes
    ----------
    realizations : (T,) array
        Outcomes Y observed one step after the matching forecast.
    forecasts : (T,) array
        Point forecasts X issued one step earlier.
    instruments : (T, k) array
        Variables known at forecast time; a (T,) vector is one column. Full
        column rank is required but checked lazily, when a covariance is
        formed.
    cluster_labels : (T,) int array, optional
        Wave labels for the clustered covariance estimator.
    """

    realizations: np.ndarray
    forecasts: np.ndarray
    instruments: np.ndarray
    cluster_labels: np.ndarray | None = None

    def __post_init__(self):
        realizations = np.atleast_1d(np.asarray(self.realizations, dtype=float))
        forecasts = np.atleast_1d(np.asarray(self.forecasts, dtype=float))
        instruments = np.asarray(self.instruments, dtype=float)
        arrays = {"realizations": realizations, "forecasts": forecasts}
        if self.cluster_labels is not None:
            arrays["cluster_labels"] = np.asarray(self.cluster_labels)
        for name, values in arrays.items():
            if values.ndim != 1:
                raise ValueError(f"{name.replace('_', ' ')} must be one-dimensional, "
                                 f"got shape {values.shape}")
        if instruments.ndim == 1:
            instruments = instruments[:, None]
        elif instruments.ndim != 2 or instruments.shape[0] != realizations.size:
            raise ValueError(f"instruments must have shape (T, k) with T = "
                             f"{realizations.size}, got shape {instruments.shape}")
        _check_aligned(realizations, forecasts, instruments)
        arrays["instruments"] = instruments
        labels = arrays.get("cluster_labels")
        if labels is not None and labels.size != realizations.size:
            raise ValueError("cluster labels must cover every observation")
        for name, values in arrays.items():
            view = values.view()  # not a copy; the caller's array stays writable
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def __eq__(self, other):
        if not isinstance(other, ForecastDataset):
            return NotImplemented
        return all(
            a is b if a is None or b is None else np.array_equal(a, b)
            for a, b in (
                (self.realizations, other.realizations),
                (self.forecasts, other.forecasts),
                (self.instruments, other.instruments),
                (self.cluster_labels, other.cluster_labels),
            )
        )

    __hash__ = None

    @property
    def n_obs(self) -> int:
        return self.realizations.size

    @property
    def n_instruments(self) -> int:
        return self.instruments.shape[1]


def _check_aligned(realizations, forecasts, instruments) -> None:
    """The length and finiteness checks every dataset passes, for one
    dataset ((T,) outcomes and forecasts, (T, k) instruments) or for every
    row of a block ((B, T) and (B, T, k))."""
    t = realizations.shape[-1]
    if t < 2:
        raise ValueError(f"need at least 2 observations, got {t}")
    if forecasts.shape[-1] != t or instruments.shape[-2] != t:
        raise ValueError(
            "realizations, forecasts and instruments must share length "
            f"(got {t}, {forecasts.shape[-1]}, {instruments.shape[-2]})"
        )
    if instruments.shape[-1] < 1:
        raise ValueError("need at least one instrument column")
    for name, values in (
        ("realizations", realizations),
        ("forecasts", forecasts),
        ("instruments", instruments),
    ):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} contain non-finite values")


def forecast_errors(dataset: ForecastDataset) -> np.ndarray:
    """eps_t = X_t - Y_{t+1}, the mean identification value itself."""
    return dataset.forecasts - dataset.realizations


def identification_values(
    kind: Functional | str,
    errors,
    delta: float | None = None,
    kernel: Kernel | None = None,
) -> np.ndarray:
    """Identification value per observation for one functional.

    mean   -> eps
    median -> 1{eps > 0} - 1{eps < 0}, exactly 0 at eps = 0 (no tie policy)
    mode   -> delta**(-1/2) * K'(-eps / delta), the stacked-row orientation;
              for the Gaussian kernel this is (eps/delta) K(eps/delta) times
              delta**(-1/2), sign-aligned with eps.

    ``delta`` and ``kernel`` belong to the mode; giving either for the mean
    or the median raises ValueError.
    """
    kind = Functional(kind)
    if kind is Functional.MODE:
        _check_bandwidth(delta)
    elif delta is not None or kernel is not None:
        raise ValueError(
            f"delta and kernel apply to the mode only, not the {kind.value}")
    return _values(kind, np.asarray(errors, dtype=float), delta, kernel)


def _check_bandwidth(delta) -> None:
    """The check of every caller-supplied mode bandwidth: a positive, finite
    number."""
    if delta is None or not 0.0 < delta < np.inf:
        note = "" if delta is None or delta <= 0.0 else " (not finite)"
        raise ValueError(f"mode values need a positive bandwidth, got {delta}{note}")


def _values(kind: Functional, e: np.ndarray, delta, kernel: Kernel | None) -> np.ndarray:
    """One functional's values; here alone the mode kernel defaults to the Gaussian."""
    if kind is Functional.MEAN:
        return e.copy()
    if kind is Functional.MEDIAN:
        return np.sign(e)
    return delta ** -0.5 * (kernel or KERNELS["gaussian"]).deriv_at(-e / delta)


def _identification_matrix(errors, delta, kernel) -> np.ndarray:
    """Identification values with rows ordered mean/median/mode: (3, T) for
    errors (T,) and one bandwidth, (B, 3, T) for a block (B, T) and one
    bandwidth per row."""
    e = np.asarray(errors, dtype=float)
    d = np.expand_dims(np.asarray(delta, dtype=float), -1)
    return np.stack([_values(f, e, d, kernel) for f in FUNCTIONALS], axis=-2)


def _weight_matrices_from_arrays(
    values: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, list]:
    """Weight matrices for a block of identification values (B, 3, T) and
    instruments (B, T, k).

    Every row shares the whitener G = [(1/T) sum h h']^{-1/2} and gets its own
    scalar c_r = sqrt(k / tr(G M_r G)), M_r the row's uncentered second-moment
    matrix, so each whitened row has average second moment one. A common
    whitener keeps every quadratic form downstream exactly invariant under
    invertible remaps of the instruments (a per-row whitener would rotate
    each row differently and break that); when a row's values are
    uncorrelated with the instruments, c_r G is the row's exact inverse
    square root, so the two constructions agree there and for k = 1 always.

    Returns the (B, 3, k, k) weights and, per dataset, None or the
    SingularMatrixError that makes it unusable: a whitener below the
    eigenvalue floor first, then the mean, median and mode row scales in
    that order. A failed dataset gets finite placeholder weights.
    """
    b, t, k = h.shape
    lam, q, notes = floored_eigh(np.swapaxes(h, 1, 2) @ h / t)
    failures = [
        None if note is None else SingularMatrixError(
            f"instrument second-moment matrix is singular "
            f"(collinear instruments?): {note}"
        )
        for note in notes
    ]
    lam[[failure is not None for failure in failures]] = 1.0
    whitener = (q * lam[:, None, :] ** -0.5) @ np.swapaxes(q, 1, 2)
    scales = np.empty((b, 3))
    floors = np.empty((b, 3))
    for r in range(3):
        vh = values[:, r, :, None] * h
        moment = np.swapaxes(vh, 1, 2) @ vh / t
        scales[:, r] = np.trace(whitener @ moment @ whitener, axis1=1, axis2=2) / k
        floors[:, r] = RELATIVE_EIG_FLOOR * np.maximum(
            1.0, np.trace(moment, axis1=1, axis2=2))
    bad = ~(scales > floors)
    row_failures = [None] * b
    for i in np.flatnonzero(bad.any(axis=1)).tolist():
        r = int(np.argmax(bad[i]))
        row_failures[i] = SingularMatrixError(
            f"second-moment matrix for the {FUNCTIONALS[r].value} row is "
            f"singular (whitened trace {scales[i, r]:.6e})"
        )
    scales[bad] = 1.0
    weights = whitener[:, None] / np.sqrt(scales)[:, :, None, None]
    return weights, first_failures(failures, row_failures)


def _weighted_block(
    errors: np.ndarray,
    instruments: np.ndarray,
    kernel: Kernel | None,
    delta=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """Identification values and weight matrices of a block of datasets:
    errors (B, T), instruments (B, T, k).

    Without ``delta`` each dataset gets its own rule-of-thumb bandwidth.
    Returns the (B, 3, T) values, the (B, 3, k, k) weights, the (B,)
    bandwidths and, per dataset, None or the exception scoring it alone
    raises, in that path's order: the bandwidth's DegenerateErrors (zero
    MAD, then zero sd), then the weights' SingularMatrixError (instrument
    whitener, then row scale).
    """
    delta, failures = _block_bandwidths(errors, delta)
    values = _identification_matrix(errors, delta, kernel)
    weights, weight_failures = _weight_matrices_from_arrays(values, instruments)
    return values, weights, delta, first_failures(failures, weight_failures)


def _assemble_stacked(values, instruments, weights) -> np.ndarray:
    """per_obs[t, r, :] = values[r, t] * (weights[r] @ instruments[t]), for
    one dataset or for each of a block with a leading axis on every array."""
    *lead, n_rows, k, _ = weights.shape
    # column r k + i of this (k, 3k) matrix is row i of weights[r]
    columns = np.ascontiguousarray(np.moveaxis(weights, -1, -3))
    weighted_h = instruments @ columns.reshape(*lead, k, n_rows * k)
    shape = weighted_h.shape[:-1] + (n_rows, k)
    return np.swapaxes(values, -1, -2)[..., None] * weighted_h.reshape(shape)
