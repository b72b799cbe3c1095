"""Per-observation identification values for mean, median and mode, and the
one Gram per dataset that every statistic reads.

The error convention is eps = forecast - realization throughout. All three
identification values are odd in eps (the smoothed mode value via the odd
symmetry of K'), so the moment rows flip sign with the errors.

A dataset's instruments are whitened once, by G = [(1/T) sum h h']^{-1/2}.
Its rows R = [v_r h G] give the moment sums g and one Gram R'R/T, and row r
gets the scale c_r = (k / tr_r)^{1/2}, tr_r the unclustered trace of its
second moment. S_T(theta) is the quadratic form of (g, Gram) at theta * c; a
single-functional test is its value at a vertex, where c_r cancels, so it
reads the functional's own row, unscaled. G cancels from every such form and
sets the basis of the eigenvalue floors.

Two floors guard G and c: _whitener fails a second-moment matrix whose
eigenvalues fail the relative floor, and _scales a row whose tr_r / k is at
or below RELATIVE_EIG_FLOOR times its mean square (1/T) sum v_r^2, so that
neither depends on the units of the errors or the instruments. S_T's block
kernel and implied theta's pooled sums go through the same two helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import SingularMatrixError
from .numerics import KERNELS, RELATIVE_EIG_FLOOR, Kernel, floored_eigh


class Functional(str, Enum):
    MEAN = "mean"
    MEDIAN = "median"
    MODE = "mode"


FUNCTIONALS = (Functional.MEAN, Functional.MEDIAN, Functional.MODE)

# The most datasets whose moment rows _moment_gram forms at once: 0.77 MB of
# rows at T = 500 and k = 2, a quarter of a 128-row Monte Carlo block's.
_GRAM_ROWS = 32


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
        _check_aligned(realizations, forecasts, instruments.T)
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
    dataset ((T,) outcomes and forecasts, (k, T) instruments, a row per
    instrument) or for every row of a block ((B, T) and (B, k, T))."""
    t = realizations.shape[-1]
    if t < 2:
        raise ValueError(f"need at least 2 observations, got {t}")
    if forecasts.shape[-1] != t or instruments.shape[-1] != t:
        raise ValueError(
            "realizations, forecasts and instruments must share length "
            f"(got {t}, {forecasts.shape[-1]}, {instruments.shape[-1]})"
        )
    if instruments.shape[-2] < 1:
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


def _one_block(dataset: ForecastDataset) -> tuple[np.ndarray, np.ndarray]:
    """A dataset as the block kernels take a block of one: its forecast
    errors (1, T) and its instruments as rows (1, k, T), a transposed view
    that _whiten copies into the Monte Carlo blocks' contiguous layout."""
    return forecast_errors(dataset)[None], dataset.instruments.T[None]


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


def _check_instrument_count(k: int, n_obs: int, what: str) -> None:
    """ValueError unless k < n_obs: at k = n_obs a statistic equals k wherever
    its covariance is nonsingular, and above it the covariance is singular."""
    if k >= n_obs:
        raise ValueError(f"{what} needs fewer instruments than observations, got "
                         f"k = {k} and n_obs = {n_obs}")


def _values(kind: Functional, e: np.ndarray, delta, kernel: Kernel | None) -> np.ndarray:
    """One functional's values; here alone the mode kernel defaults to the Gaussian."""
    if kind is Functional.MEAN:
        return e.copy()
    if kind is Functional.MEDIAN:
        return np.sign(e)
    return delta ** -0.5 * (kernel or KERNELS["gaussian"]).deriv_at(-e / delta)


def _identification_matrix(errors, delta, kernel, functionals=FUNCTIONALS) -> np.ndarray:
    """Identification values with a row per functional, in the order given
    (mean/median/mode by default): (n, T) for errors (T,) and one bandwidth,
    (B, n, T) for a block (B, T) and one bandwidth per row. The bandwidth is
    read only for the mode."""
    e = np.asarray(errors, dtype=float)
    d = np.expand_dims(np.asarray(delta, dtype=float), -1)
    values = np.empty(e.shape[:-1] + (len(functionals), e.shape[-1]))
    for r, kind in enumerate(functionals):
        values[..., r, :] = _values(kind, e, d, kernel)
    return values


def _whiten(instruments: np.ndarray) -> tuple[np.ndarray, list]:
    """G h_t for instruments h_t, both the columns of (B, k, T) arrays,
    G = [(1/T) sum h h']^{-1/2}, and per dataset None or the
    SingularMatrixError of one below the floor (see _whitener)."""
    # the Monte Carlo blocks' rows are contiguous already; a dataset's are a
    # transposed view, copied here once, so the sums below run in one layout
    h = np.ascontiguousarray(instruments)
    # einsum, not matmul: threaded OpenBLAS products here slow the Monte Carlo threads
    moments = np.einsum("bkt,blt->bkl", h, h) / h.shape[2]
    whitener, failures = _whitener(moments)
    return np.einsum("bkl,blt->bkt", whitener, h), failures


def _whitener(moments: np.ndarray) -> tuple[np.ndarray, list]:
    """G = M^{-1/2} for each second-moment matrix M of a stack (B, k, k), and
    per matrix None or the SingularMatrixError of one below the eigenvalue
    floor, whose eigenvalues are taken as one."""
    lam, q, notes = floored_eigh(moments)
    failures = [
        None if note is None else SingularMatrixError(
            f"instrument second-moment matrix is singular "
            f"(collinear instruments?): {note}"
        )
        for note in notes
    ]
    lam[[failure is not None for failure in failures]] = 1.0
    return (q * lam[:, None, :] ** -0.5) @ np.swapaxes(q, 1, 2), failures


def _row_scales(values, whitened) -> tuple[np.ndarray, list]:
    """The (B, 3) scales c_r = (k / tr_r)^{1/2} of a block's values (B, 3, T)
    and whitened instruments (B, k, T), tr_r = (1/T) sum_t v_rt^2 |G h_t|^2,
    so each rescaled row has average second moment one; the floor and the
    failures are _scales'."""
    t = values.shape[-1]
    k = whitened.shape[1]
    scales = np.einsum("bnt,bnt,bt->bn", values, values,
                       np.einsum("bkt,bkt->bt", whitened, whitened)) / (t * k)
    return _scales(scales, np.einsum("bnt,bnt->bn", values, values) / t, k)


def _scales(scales: np.ndarray, squares: np.ndarray, k: int) -> tuple[np.ndarray, list]:
    """c_r = scales^{-1/2} from the (B, 3) average whitened second moments
    tr_r / k and the rows' mean squares (1/T) sum_t v_rt^2; and per dataset
    None or the SingularMatrixError of its first row with tr_r / k <=
    RELATIVE_EIG_FLOOR * (1/T) sum_t v_rt^2 (zero and non-finite rows
    included), whose scale is one. The floor is relative in both the values'
    and the instruments' units."""
    bad = ~(scales > RELATIVE_EIG_FLOOR * squares)
    failures = [None] * scales.shape[0]
    for i in np.flatnonzero(bad.any(axis=1)).tolist():
        r = int(np.argmax(bad[i]))
        failures[i] = SingularMatrixError(
            f"second-moment matrix for the {FUNCTIONALS[r].value} row is "
            f"singular (whitened trace {k * scales[i, r]:.6e})"
        )
    scales = np.where(bad, 1.0, scales)
    return scales ** -0.5, failures


def _moment_gram(values, whitened, cluster_labels=None) -> tuple[np.ndarray, np.ndarray]:
    """R's column sums over sqrt(T), g (B, n, k), and its Gram R'R/T (B, n, k,
    n, k), for the rows R = [v_r (G h)'] of a block's identification values
    (B, n, T) and whitened instruments (B, k, T); under cluster labels (a
    one-dataset block) the Gram sums R's rows within each wave first. Given
    raw instruments h (B, k, T) it forms the same sums of R = [v_r h'], as
    implied theta's per-replication pass does.

    R is formed for at most _GRAM_ROWS datasets at a time, so its (B, nk, T)
    product never exists whole; each dataset's sums are its own matrix
    products, the same bit for bit whatever the slice."""
    b, n, t = values.shape
    k = whitened.shape[1]
    g = np.empty((b, n * k))
    gram = np.empty((b, n * k, n * k))
    for start in range(0, b, _GRAM_ROWS):
        rows = slice(start, start + _GRAM_ROWS)
        columns = (values[rows, :, None, :] * whitened[rows, None]).reshape(-1, n * k, t)
        g[rows] = columns @ np.ones(t)
        if cluster_labels is not None:
            columns = _wave_sums(columns[0].T, cluster_labels).T[None]
        gram[rows] = columns @ np.swapaxes(columns, 1, 2)
    return (g / np.sqrt(t)).reshape(b, n, k), (gram / t).reshape(b, n, k, n, k)


def _wave_sums(rows: np.ndarray, cluster_labels) -> np.ndarray:
    """Sum ``rows`` over observations (the leading axis) within each wave, in
    order of first appearance, so the reduction order ignores label encoding.
    Each wave's sum adds its rows in observation order from 0.0."""
    labels = np.asarray(cluster_labels)
    if labels.size != rows.shape[0]:
        raise ValueError("cluster labels must cover every observation")
    _, first_pos, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    waves = rank[inverse]
    columns = rows.reshape(rows.shape[0], -1)
    sums = np.empty((order.size, columns.shape[1]))
    for j in range(columns.shape[1]):
        sums[:, j] = np.bincount(waves, weights=columns[:, j], minlength=order.size)
    return sums.reshape(order.size, *rows.shape[1:])
