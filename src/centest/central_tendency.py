"""Convex-combination rationality machinery: the combined moment, its GMM
objective, plain and clustered covariance estimators, and grid-based
confidence sets over the unit simplex of (mean, median, mode) weights.

The weight vector may be strongly, weakly, partially or completely
unidentified, which rules out point estimation; the confidence set inverts
the objective against chi-square critical values instead, which stays valid
in all four identification regimes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import bandwidth_rule_of_thumb
from .errors import SingularMatrixError
from .identification import ForecastDataset, StackedMoments, stacked_moments
from .numerics import (
    Kernel,
    chi_square_quantile,
    chi_square_sf,
    floored_eigh,
    gaussian_kernel,
)

DEFAULT_ALPHA_LEVELS = (0.05, 0.10)
DEFAULT_GRID_RESOLUTION = 50


@dataclass(frozen=True)
class SimplexWeights:
    """A point on the unit simplex of identification-function weights."""

    mean: float
    median: float
    mode: float

    def __post_init__(self):
        arr = self.as_array()
        if np.any(arr < -1e-12):
            raise ValueError(f"weights must be nonnegative, got {arr}")
        if abs(arr.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got sum {float(arr.sum())!r}")

    def as_array(self) -> np.ndarray:
        return np.array([self.mean, self.median, self.mode], dtype=float)

    @classmethod
    def from_array(cls, theta) -> "SimplexWeights":
        a = np.asarray(theta, dtype=float)
        if a.shape != (3,):
            raise ValueError(f"expected 3 weights, got shape {a.shape}")
        return cls(mean=float(a[0]), median=float(a[1]), mode=float(a[2]))


MEAN_VERTEX = SimplexWeights(1.0, 0.0, 0.0)
MEDIAN_VERTEX = SimplexWeights(0.0, 1.0, 0.0)
MODE_VERTEX = SimplexWeights(0.0, 0.0, 1.0)


def _theta_array(theta) -> np.ndarray:
    if isinstance(theta, SimplexWeights):
        return theta.as_array()
    return SimplexWeights.from_array(theta).as_array()


def simplex_grid(m: int) -> list[SimplexWeights]:
    """Lattice (i/m, j/m, (m-i-j)/m), i, j >= 0, i+j <= m, in lexicographic
    (i, j) order; (m+1)(m+2)/2 points."""
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    points = []
    for i in range(m + 1):
        for j in range(m - i + 1):
            points.append(SimplexWeights(i / m, j / m, (m - i - j) / m))
    return points


def combined_moment(theta, stacked: StackedMoments) -> np.ndarray:
    """phi_t(theta) = theta' psi_t for every observation; (T, k) array."""
    th = _theta_array(theta)
    return np.einsum("r,trk->tk", th, stacked.per_obs)


def _wave_sums(rows: np.ndarray, cluster_labels) -> np.ndarray:
    """Sum ``rows`` over observations (the leading axis) within each wave.

    Waves are processed in order of first appearance, keeping the reduction
    order fixed regardless of label encoding.
    """
    labels = np.asarray(cluster_labels)
    if labels.size != rows.shape[0]:
        raise ValueError("cluster labels must cover every observation")
    _, first_pos, inverse = np.unique(labels, return_index=True, return_inverse=True)
    order = np.argsort(first_pos, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    sums = np.zeros((order.size, *rows.shape[1:]))
    np.add.at(sums, rank[inverse], rows)
    return sums


def sigma_hat(phi: np.ndarray, cluster_labels=None) -> np.ndarray:
    """Uncentered covariance of the combined moment.

    Without clusters: (1/T) sum_t phi_t phi_t'. With clusters, observations
    are summed within each wave before the outer product, which collapses to
    the plain estimator when every observation is its own wave.
    """
    phi = np.asarray(phi, dtype=float)
    rows = phi if cluster_labels is None else _wave_sums(phi, cluster_labels)
    return rows.T @ rows / phi.shape[0]


def gmm_objectives_from_stacked(
    thetas, stacked: StackedMoments, cluster_labels=None
) -> tuple[np.ndarray, list[str | None]]:
    """S_T at every row of ``thetas`` (n, 3) in one batched pass: the
    one-dataset case of _objectives_block. Returns the objectives and, per
    point, None or the eigenvalue-floor note of a singular Sigma(theta),
    whose objective is NaN."""
    th = np.atleast_2d(np.asarray(thetas, dtype=float))
    objectives, (notes,) = _objectives_block(th, stacked.per_obs[None], cluster_labels)
    return objectives[0], notes


def _objectives_block(
    thetas: np.ndarray, per_obs: np.ndarray, cluster_labels=None
) -> tuple[np.ndarray, list[list[str | None]]]:
    """S_T at every theta (P, 3) for every dataset of a block of stacked rows
    (B, T, 3, k); cluster labels apply to a one-dataset block.

    The combined moment is linear in theta, so with g_r = T^{-1/2} sum_t
    psi_{t,r} and the k x k blocks M_rs of (1/T) R'R, where R holds a
    dataset's stacked rows (wave sums under clusters) flattened to 3k
    columns,

        g(theta) = sum_r theta_r g_r,  Sigma(theta) = sum_{r,s} theta_r theta_s M_rs.

    The blocks are built once per dataset; every Sigma(theta) then goes
    through one batched eigendecomposition and S = sum_i (q_i' g)^2 /
    lambda_i. Returns the (B, P) objectives and, per dataset, the P notes:
    None or the eigenvalue-floor note of a singular Sigma(theta), whose
    objective is NaN.
    """
    b, t, n_rows, k = per_obs.shape
    p = thetas.shape[0]
    rows = per_obs.reshape(b, t, n_rows * k)
    g = (np.ones(t) @ rows).reshape(b, n_rows, k) / np.sqrt(t)
    if cluster_labels is not None:
        rows = _wave_sums(rows[0], cluster_labels)[None]
    blocks = (np.swapaxes(rows, 1, 2) @ rows / t).reshape(b, n_rows, k, n_rows, k)
    blocks = blocks.transpose(0, 1, 3, 2, 4).reshape(b, n_rows * n_rows, k * k)

    pairs = (thetas[:, :, None] * thetas[:, None, :]).reshape(p, n_rows * n_rows)
    lam, q, notes = floored_eigh((pairs @ blocks).reshape(b, p, k, k))
    ok = np.array([note is None for note in notes]).reshape(b, p)
    proj = ((thetas @ g)[:, :, None, :] @ q)[:, :, 0, :]
    safe_lam = np.where(ok[:, :, None], lam, 1.0)
    objectives = np.where(ok, np.sum(proj ** 2 / safe_lam, axis=2), np.nan)
    return objectives, [notes[i * p:(i + 1) * p] for i in range(b)]


def gmm_objective_from_stacked(
    theta, stacked: StackedMoments, cluster_labels=None
) -> float:
    """S_T(theta) from precomputed stacked rows: the one-theta case of
    gmm_objectives_from_stacked. A singular Sigma(theta) raises
    SingularMatrixError."""
    (s,), (note,) = gmm_objectives_from_stacked(
        _theta_array(theta), stacked, cluster_labels
    )
    if note is not None:
        raise SingularMatrixError(note)
    return float(s)


def gmm_objective(
    theta,
    dataset: ForecastDataset,
    delta: float | None = None,
    kernel: Kernel | None = None,
    cluster_labels=None,
) -> float:
    """Continuous-updating GMM objective

        S_T(theta) = [T^{-1/2} sum phi_t(theta)]' Sigma(theta)^{-1}
                     [T^{-1/2} sum phi_t(theta)],

    nonnegative by construction. Sigma depends on theta and is recomputed at
    every point. ``cluster_labels`` defaults to the dataset's own labels.
    """
    kernel = kernel or gaussian_kernel()
    if delta is None:
        delta = bandwidth_rule_of_thumb(
            dataset.forecasts - dataset.realizations, dataset.n_obs
        ).delta
    if cluster_labels is None:
        cluster_labels = dataset.cluster_labels
    stacked = stacked_moments(dataset, delta, kernel)
    return gmm_objective_from_stacked(theta, stacked, cluster_labels)


@dataclass(frozen=True)
class GridPoint:
    """One evaluated grid point. ``note`` records a per-point singularity;
    such points are non-members at every level and never abort the scan."""

    index: tuple[int, int]
    weights: SimplexWeights
    objective: float
    p_value: float
    memberships: dict[float, bool]
    note: str | None = None

    def member_at(self, alpha: float) -> bool:
        return self.memberships[alpha]


@dataclass(frozen=True)
class ConfidenceSetGrid:
    """Simplex scan of the GMM objective with membership flags per level."""

    resolution: int
    points: list[GridPoint]
    alpha_levels: tuple[float, ...]
    bandwidth: float
    df: int
    n_obs: int

    def members(self, alpha: float) -> list[GridPoint]:
        return [p for p in self.points if p.memberships[alpha]]

    def is_empty(self, alpha: float) -> bool:
        """Empty membership rejects rationality for the entire class of
        centrality measures at that level."""
        return not any(p.memberships[alpha] for p in self.points)


def confidence_set(
    dataset: ForecastDataset,
    m: int = DEFAULT_GRID_RESOLUTION,
    alpha_levels: tuple[float, ...] = DEFAULT_ALPHA_LEVELS,
    delta: float | None = None,
    kernel: Kernel | None = None,
    cluster_labels=None,
) -> ConfidenceSetGrid:
    """Evaluate S_T on the simplex lattice and flag membership per level.

    A point belongs to the 1-alpha confidence set iff S_T <= Q_k(1-alpha).
    The bandwidth is computed once from the forecast errors and shared by
    every theta, and all points are scored in one batched pass (see
    gmm_objectives_from_stacked). Per-point singular covariances are recorded
    as NaN, non-member points with a note.
    """
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    alpha_levels = tuple(alpha_levels)
    if not alpha_levels or not all(0.0 < a < 1.0 for a in alpha_levels):
        raise ValueError(f"alpha levels must lie in (0, 1), got {alpha_levels}")
    kernel = kernel or gaussian_kernel()
    if delta is None:
        delta = bandwidth_rule_of_thumb(
            dataset.forecasts - dataset.realizations, dataset.n_obs
        ).delta
    if cluster_labels is None:
        cluster_labels = dataset.cluster_labels
    stacked = stacked_moments(dataset, delta, kernel)
    k = dataset.n_instruments
    thresholds = {a: chi_square_quantile(k, 1.0 - a) for a in alpha_levels}

    weights = simplex_grid(m)
    objectives, notes = gmm_objectives_from_stacked(
        [w.as_array() for w in weights], stacked, cluster_labels
    )
    indices = [(i, j) for i in range(m + 1) for j in range(m - i + 1)]
    # a singular point has a NaN objective, which fails every threshold
    points = [
        GridPoint(
            index=index,
            weights=w,
            objective=s,
            p_value=float("nan") if note is not None else chi_square_sf(k, s),
            memberships={a: s <= thresholds[a] for a in alpha_levels},
            note=note,
        )
        for index, w, s, note in zip(indices, weights, objectives.tolist(), notes)
    ]
    return ConfidenceSetGrid(
        resolution=m,
        points=points,
        alpha_levels=alpha_levels,
        bandwidth=float(delta),
        df=k,
        n_obs=dataset.n_obs,
    )
