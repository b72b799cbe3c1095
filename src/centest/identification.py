"""Per-observation identification values for mean, median and mode, and the
stacked, weight-normalized 3 x k moment rows they form.

The error convention is eps = forecast - realization throughout. All three
identification values are odd in eps (the smoothed mode value via the odd
symmetry of K'), so the moment rows flip sign with the errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import SingularMatrixError
from .numerics import RELATIVE_EIG_FLOOR, Kernel, gaussian_kernel, inverse_sqrt_spd


class Functional(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    MODE = "mode"


FUNCTIONALS = (Functional.MEAN, Functional.MEDIAN, Functional.MODE)


@dataclass(frozen=True)
class ForecastDataset:
    """Aligned forecasts, realizations and instruments; the unit every test
    consumes.

    Frozen, and its arrays are read-only views of the inputs, so a dataset
    cannot be edited past the checks made when it is built.

    Attributes
    ----------
    realizations : (T,) array
        Outcomes Y observed one step after the matching forecast.
    forecasts : (T,) array
        Point forecasts X issued one step earlier.
    instruments : (T, k) array
        Variables known at forecast time. Full column rank is required but
        checked lazily, when a covariance is formed.
    cluster_labels : (T,) int array, optional
        Wave labels for the clustered covariance estimator.
    """

    realizations: np.ndarray
    forecasts: np.ndarray
    instruments: np.ndarray
    cluster_labels: np.ndarray | None = None

    def __post_init__(self):
        realizations = np.asarray(self.realizations, dtype=float)
        forecasts = np.asarray(self.forecasts, dtype=float)
        instruments = np.atleast_2d(np.asarray(self.instruments, dtype=float))
        if instruments.shape[0] == 1 and realizations.size > 1:
            instruments = instruments.T
        t = realizations.size
        if t < 2:
            raise ValueError(f"need at least 2 observations, got {t}")
        if forecasts.size != t or instruments.shape[0] != t:
            raise ValueError(
                "realizations, forecasts and instruments must share length "
                f"(got {t}, {forecasts.size}, {instruments.shape[0]})"
            )
        if instruments.shape[1] < 1:
            raise ValueError("need at least one instrument column")
        arrays = {
            "realizations": realizations,
            "forecasts": forecasts,
            "instruments": instruments,
        }
        for name, values in arrays.items():
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} contain non-finite values")
        if self.cluster_labels is not None:
            arrays["cluster_labels"] = np.asarray(self.cluster_labels)
            if arrays["cluster_labels"].size != t:
                raise ValueError("cluster labels must cover every observation")
        for name, values in arrays.items():
            view = values.view()  # not a copy; the caller's array stays writable
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_obs(self) -> int:
        return self.realizations.size

    @property
    def n_instruments(self) -> int:
        return self.instruments.shape[1]


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
    """
    kind = Functional(kind)
    e = np.asarray(errors, dtype=float)
    if kind is Functional.MEAN:
        return e.copy()
    if kind is Functional.MEDIAN:
        return np.sign(e)
    if delta is None or delta <= 0:
        raise ValueError(f"mode values need a positive bandwidth, got {delta}")
    kernel = kernel or gaussian_kernel()
    return delta ** -0.5 * kernel.deriv_at(-e / delta)


def _identification_matrix(errors, delta, kernel) -> np.ndarray:
    """(3, T) matrix of identification values, rows ordered mean/median/mode."""
    return np.stack(
        [identification_values(f, errors, delta, kernel) for f in FUNCTIONALS]
    )


def _weight_matrices_from_arrays(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Weight matrices for given identification values (3, T) and instruments.

    Every row shares the whitener G = [(1/T) sum h h']^{-1/2} and gets its own
    scalar c_r = sqrt(k / tr(G M_r G)), M_r the row's uncentered second-moment
    matrix, so each whitened row has average second moment one. A common
    whitener keeps every quadratic form downstream exactly invariant under
    invertible remaps of the instruments (a per-row whitener would rotate
    each row differently and break that); when a row's values are
    uncorrelated with the instruments, c_r G is the row's exact inverse
    square root, so the two constructions agree there and for k = 1 always.
    """
    t, k = h.shape
    try:
        whitener = inverse_sqrt_spd(h.T @ h / t)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"instrument second-moment matrix is singular "
            f"(collinear instruments?): {exc}"
        ) from exc
    out = np.empty((3, k, k))
    for r, functional in enumerate(FUNCTIONALS):
        vh = values[r][:, None] * h
        moment = vh.T @ vh / t
        scale = float(np.trace(whitener @ moment @ whitener)) / k
        if not scale > RELATIVE_EIG_FLOOR * max(1.0, float(np.trace(moment))):
            raise SingularMatrixError(
                f"second-moment matrix for the {functional.value} row is "
                f"singular (whitened trace {scale:.6e})"
            )
        out[r] = whitener / np.sqrt(scale)
    return out


def weighting_matrices(
    dataset: ForecastDataset,
    delta: float,
    kernel: Kernel | None = None,
) -> np.ndarray:
    """Row-normalizing weight matrices W_r, stacked as a (3, k, k) array.

    Built from the uncentered second-moment matrices of the weighted
    identification values (uncentered to match the outer-product covariance
    estimator used downstream); see _weight_matrices_from_arrays for the
    exact construction and the invariance rationale.
    """
    kernel = kernel or gaussian_kernel()
    errors = forecast_errors(dataset)
    values = _identification_matrix(errors, delta, kernel)
    return _weight_matrices_from_arrays(values, dataset.instruments)


def _assemble_stacked(values, instruments, weights) -> np.ndarray:
    """per_obs[t, r, :] = values[r, t] * (weights[r] @ instruments[t])."""
    weighted_h = np.einsum("rij,tj->tri", weights, instruments)
    return values.T[:, :, None] * weighted_h


@dataclass
class StackedMoments:
    """Per-observation 3 x k weighted moment rows plus the inputs that fix
    them (bandwidth and weight matrices)."""

    per_obs: np.ndarray            # (T, 3, k)
    bandwidth: float
    weight_matrices: np.ndarray    # (3, k, k), ordered mean/median/mode
    functionals: tuple = field(default=FUNCTIONALS, repr=False)

    @property
    def n_obs(self) -> int:
        return self.per_obs.shape[0]

    @property
    def n_instruments(self) -> int:
        return self.per_obs.shape[2]

    def row(self, kind: Functional | str) -> np.ndarray:
        """(T, k) weighted moment rows of one functional."""
        return self.per_obs[:, FUNCTIONALS.index(Functional(kind)), :]


def stacked_moments(
    dataset: ForecastDataset,
    delta: float,
    kernel: Kernel | None = None,
    weight_matrices: np.ndarray | None = None,
) -> StackedMoments:
    """Assemble the stacked per-observation moment rows.

    Row r of observation t is h_t' W_r times the identification value of
    functional r at t. ``weight_matrices`` can be supplied to bypass the
    sample normalization (e.g. identity weights in fixtures).

    Note the mode row uses the delta**(-1/2) K'(-eps/delta) orientation; the
    standalone mode test scales its moments differently, but the two differ
    only by a positive scalar and a sign flip, both of which cancel in every
    quadratic form.
    """
    kernel = kernel or gaussian_kernel()
    if delta <= 0:
        raise ValueError(f"bandwidth must be positive, got {delta}")
    if weight_matrices is None:
        weight_matrices = weighting_matrices(dataset, delta, kernel)
    else:
        weight_matrices = np.asarray(weight_matrices, dtype=float)
    values = _identification_matrix(forecast_errors(dataset), delta, kernel)
    per_obs = _assemble_stacked(values, dataset.instruments, weight_matrices)
    return StackedMoments(per_obs=per_obs, bandwidth=delta, weight_matrices=weight_matrices)
