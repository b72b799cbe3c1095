"""Convex-combination rationality machinery: the GMM objective of the
combined moment, plain and clustered covariance estimators, and grid-based
confidence sets over the unit simplex of (mean, median, mode) weights.

The weight vector may be strongly, weakly, partially or completely
unidentified, which rules out point estimation; the confidence set inverts
the objective against chi-square critical values instead, which stays valid
in all four identification regimes.

S_T has one block kernel, _objective_rows, which is also the tests' kernel:
it scores every theta from the one Gram of a dataset's whitened mean,
median and mode rows and their row scales c, as the quadratic form of
(g c, Gram c c') (see identification). gmm_objective and confidence_set
are its one-row call, simulation's coverage experiments score blocks of
replications with it (the grid coverage experiment at every grid point, the
coverage experiment at its one theta), and a single-functional test
(rationality, and the size and power experiments) is its call on that
functional's row alone, S_T at the functional's vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bandwidth import _block_bandwidths
from .errors import SingularMatrixError, check_integer, first_failures, raise_row_failure
from .identification import (
    FUNCTIONALS,
    ForecastDataset,
    Functional,
    _check_bandwidth,
    _check_instrument_count,
    _identification_matrix,
    _moment_gram,
    _one_block,
    _row_scales,
    _wave_sums,
    _whiten,
)
from .numerics import (
    Kernel,
    chi_square_quantile,
    chi_square_sf,
    floored_eigh,
)

DEFAULT_ALPHA_LEVELS = (0.05, 0.10)
DEFAULT_GRID_RESOLUTION = 50


# The simplex vertices, the weights of the mean, median and mode functionals.
MEAN_VERTEX = (1.0, 0.0, 0.0)
MEDIAN_VERTEX = (0.0, 1.0, 0.0)
MODE_VERTEX = (0.0, 0.0, 1.0)


def _theta_array(theta) -> np.ndarray:
    """A point of the unit simplex of (mean, median, mode) weights as a new
    float array of shape (3,): ValueError unless every weight is >= -1e-12
    and their sum lies within 1e-12 of 1 (NaN fails)."""
    a = np.array(theta, dtype=float)
    if a.shape != (3,):
        raise ValueError(f"expected 3 weights, got shape {a.shape}")
    mean, median, mode = a.tolist()
    if mean < -1e-12 or median < -1e-12 or mode < -1e-12:
        raise ValueError(f"weights must be nonnegative, got {a}")
    if not abs(mean + median + mode - 1.0) <= 1e-12:
        raise ValueError(f"weights must sum to 1, got sum {mean + median + mode!r}")
    return a


def _member_header(alpha: float) -> str:
    """The CSV column of one level's member flags: member_ and the
    confidence percent, rounded."""
    return f"member_{round((1.0 - alpha) * 100):d}"


def _check_alpha_levels(alpha_levels) -> tuple[float, ...]:
    """The levels as a tuple. ValueError unless each lies in (0, 1) and no two
    share a name in the output files: the f"{a:g}" key of the JSON member
    flags and of a test's reject_at, or the CSV column (_member_header)."""
    alpha_levels = tuple(alpha_levels)
    if not alpha_levels or not all(0.0 < a < 1.0 for a in alpha_levels):
        raise ValueError(f"alpha levels must lie in (0, 1), got {alpha_levels}")
    for label in ("{:g}".format, _member_header):
        seen: dict[str, float] = {}
        for a in alpha_levels:
            name = label(a)
            if name in seen:
                raise ValueError(f"alpha levels {seen[name]!r} and {a!r} share "
                                 f"the output label {name!r}")
            seen[name] = a
    return alpha_levels


def _check_resolution(m: int) -> int:
    """The grid resolution as a Python int, once it is checked to be an
    integer >= 1."""
    m = check_integer(m, "grid resolution")
    if m < 1:
        raise ValueError(f"grid resolution must be >= 1, got {m}")
    return m


def _lattice(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lattice's index arrays i, j >= 0, i + j <= m, in lexicographic
    (i, j) order, and its (P, 3) weight rows (i/m, j/m, (m-i-j)/m);
    P = (m+1)(m+2)/2. m is a checked resolution (see _check_resolution)."""
    i, i_plus_j = np.triu_indices(m + 1)
    j = i_plus_j - i
    return i, j, np.column_stack([i / m, j / m, (m - i_plus_j) / m])


def simplex_grid(m: int) -> np.ndarray:
    """Lattice rows (i/m, j/m, (m-i-j)/m), i, j >= 0, i+j <= m, in
    lexicographic (i, j) order: a ((m+1)(m+2)/2, 3) array."""
    return _lattice(_check_resolution(m))[2]


def sigma_hat(phi: np.ndarray, cluster_labels=None) -> np.ndarray:
    """Uncentered covariance of the combined moment.

    Without clusters: (1/T) sum_t phi_t phi_t'. With clusters, observations
    are summed within each wave before the outer product, which collapses to
    the plain estimator when every observation is its own wave.
    """
    phi = np.asarray(phi, dtype=float)
    rows = phi if cluster_labels is None else _wave_sums(phi, cluster_labels)
    return rows.T @ rows / phi.shape[0]


def _objectives_block(thetas, g, gram) -> tuple[np.ndarray, list[list[str | None]]]:
    """S_T at every theta (P, n) for every dataset of a block, from its moment
    sums g (B, n, k) and Gram (B, n, k, n, k) (see _moment_gram).

    The combined moment is linear in theta; with M_rs the Gram's k x k blocks,

        g(theta) = sum_r theta_r g_r,  Sigma(theta) = sum_{r,s} theta_r theta_s M_rs.

    Every Sigma(theta) goes through one batched eigendecomposition and
    S = sum_i (q_i' g)^2 / lambda_i. Returns the (B, P) objectives and, per
    dataset, the P notes: None or the eigenvalue-floor note of a singular
    Sigma(theta), whose objective is NaN.
    """
    b, n, k = g.shape
    p = thetas.shape[0]
    blocks = gram.transpose(0, 1, 3, 2, 4).reshape(b, n * n, k * k)
    pairs = (thetas[:, :, None] * thetas[:, None, :]).reshape(p, n * n)
    lam, q, notes = floored_eigh((pairs @ blocks).reshape(b, p, k, k))
    ok = np.array([note is None for note in notes]).reshape(b, p)
    proj = ((thetas @ g)[:, :, None, :] @ q)[:, :, 0, :]
    safe_lam = np.where(ok[:, :, None], lam, 1.0)
    objectives = np.where(ok, np.sum(proj ** 2 / safe_lam, axis=2), np.nan)
    return objectives, [notes[i * p:(i + 1) * p] for i in range(b)]


def _objective_rows(
    thetas: np.ndarray,
    errors: np.ndarray,
    instruments: np.ndarray,
    kernel: Kernel | None,
    delta=None,
    cluster_labels=None,
    functionals=FUNCTIONALS,
) -> tuple[np.ndarray, list[list[str | None]], np.ndarray | None, list]:
    """S_T at every theta (P, n) for each dataset of a block: errors (B, T),
    instruments (B, k, T); cluster labels apply to a one-dataset block. The
    moment rows are those of ``functionals``: all three (the default), or
    one, whose test is the call at theta = [[1]].

    With the mode among them, each dataset gets its own rule-of-thumb
    bandwidth unless ``delta`` is given; without it the bandwidths are None,
    and ``delta`` and ``kernel`` are not read. With more than one row, the
    row scales c enter as (g c, Gram c c'); a single row's scale cancels and
    is not formed. Returns the (B, P) objectives and their notes (see
    _objectives_block), the (B,) bandwidths and, per dataset, None or the
    exception scoring it alone raises, in that order: the bandwidth's
    DegenerateErrors (zero MAD, then zero sd), then the SingularMatrixError
    of the instrument whitener, then of a row scale.
    """
    bandwidths = None
    failures = unscaled = [None] * errors.shape[0]
    if Functional.MODE in functionals:
        bandwidths, failures = _block_bandwidths(errors, delta)
    values = _identification_matrix(errors, bandwidths, kernel, functionals)
    whitened, singular = _whiten(instruments)
    g, gram = _moment_gram(values, whitened, cluster_labels)
    if len(functionals) > 1:
        scales, unscaled = _row_scales(values, whitened)
        g = g * scales[..., None]
        gram = gram * (scales[:, :, None, None, None] * scales[:, None, None, :, None])
    objectives, notes = _objectives_block(thetas, g, gram)
    return objectives, notes, bandwidths, first_failures(failures, singular, unscaled)


def gmm_objective(
    theta,
    dataset: ForecastDataset,
    delta: float | None = None,
    kernel: Kernel | None = None,
) -> float:
    """Continuous-updating GMM objective

        S_T(theta) = [T^{-1/2} sum phi_t(theta)]' Sigma(theta)^{-1}
                     [T^{-1/2} sum phi_t(theta)],

    nonnegative by construction, with phi_t(theta) = theta' psi_t the
    combined moment. Sigma depends on theta and is recomputed at every
    point; it is wave-clustered when the dataset carries cluster labels.
    ``delta`` defaults to the rule-of-thumb bandwidth of the forecast errors.
    A singular Sigma(theta) raises SingularMatrixError. The instrument count
    k must be below n_obs.
    """
    thetas = _theta_array(theta)[None]
    if delta is not None:
        _check_bandwidth(delta)
    _check_instrument_count(dataset.n_instruments, dataset.n_obs, "an objective")
    ((s,),), ((note,),), _, failures = _objective_rows(
        thetas, *_one_block(dataset), kernel, delta, dataset.cluster_labels)
    raise_row_failure(failures)
    if note is not None:
        raise SingularMatrixError(note)
    return float(s)


@dataclass(frozen=True)
class GridPoint:
    """One evaluated grid point. ``note`` records a per-point singularity;
    such points are non-members at every level and never abort the scan."""

    index: tuple[int, int]
    theta: tuple[float, float, float]
    objective: float
    p_value: float
    memberships: dict[float, bool]
    note: str | None = None


@dataclass(frozen=True, eq=False)
class ConfidenceSetGrid:
    """Simplex scan of the GMM objective with membership flags per level,
    held as columns over its P points: the lattice ``index`` (P, 2) and
    ``theta`` (P, 3), the ``objective`` and ``p_value`` (P,), NaN at a
    singular point, the ``member`` flags (levels, P), one row per alpha
    level in ``alpha_levels`` order, and the ``notes`` of the singular
    points, keyed by point number. Equality is NaN-aware."""

    resolution: int
    alpha_levels: tuple[float, ...]
    bandwidth: float
    df: int
    n_obs: int
    index: np.ndarray
    theta: np.ndarray
    objective: np.ndarray
    p_value: np.ndarray
    member: np.ndarray
    notes: dict[int, str]

    def __eq__(self, other):
        if not isinstance(other, ConfidenceSetGrid):
            return NotImplemented
        return (
            (self.resolution, self.alpha_levels, self.bandwidth, self.df, self.n_obs,
             self.notes)
            == (other.resolution, other.alpha_levels, other.bandwidth, other.df,
                other.n_obs, other.notes)
            and np.array_equal(self.index, other.index)
            and np.array_equal(self.member, other.member)
            and all(np.array_equal(a, b, equal_nan=True) for a, b in (
                (self.theta, other.theta), (self.objective, other.objective),
                (self.p_value, other.p_value)))
        )

    @cached_property
    def points(self) -> tuple[GridPoint, ...]:
        """The scan point by point, as GridPoints: a read-only view of the
        columns, built on first access."""
        return tuple(
            GridPoint(index=tuple(index), theta=tuple(theta), objective=s, p_value=p,
                      memberships=dict(zip(self.alpha_levels, flags)),
                      note=self.notes.get(n))
            for n, (index, theta, s, p, flags) in enumerate(zip(
                self.index.tolist(), self.theta.tolist(), self.objective.tolist(),
                self.p_value.tolist(), self.member.T.tolist()))
        )

    def members(self, alpha: float) -> np.ndarray:
        """The (n, 3) weights of the points inside the 1 - alpha set."""
        return self.theta[self.member[self.alpha_levels.index(alpha)]]

    def is_empty(self, alpha: float) -> bool:
        """Whether no lattice point lies inside the 1 - alpha set. An empty
        set rejects rationality for the entire class of centrality measures
        at that level. Emptiness is read on the lattice: a set thinner than
        its spacing 1/m can hold no lattice point and read empty."""
        return not self.member[self.alpha_levels.index(alpha)].any()


def confidence_set(
    dataset: ForecastDataset,
    m: int = DEFAULT_GRID_RESOLUTION,
    alpha_levels: tuple[float, ...] = DEFAULT_ALPHA_LEVELS,
    delta: float | None = None,
    kernel: Kernel | None = None,
) -> ConfidenceSetGrid:
    """Evaluate S_T on the simplex lattice and flag membership per level.

    A point belongs to the 1-alpha confidence set iff S_T <= Q_k(1-alpha).
    The bandwidth is computed once from the forecast errors and shared by
    every theta, and all points are scored in one batched pass (the one-row
    call of _objective_rows), under the dataset's cluster labels if it has
    any.
    Per-point singular covariances are recorded as NaN, non-member points
    with a note. The instrument count k must be below n_obs.
    """
    m = _check_resolution(m)
    i, j, thetas = _lattice(m)
    alpha_levels = _check_alpha_levels(alpha_levels)
    if delta is not None:
        _check_bandwidth(delta)
    _check_instrument_count(dataset.n_instruments, dataset.n_obs, "a confidence set")
    k = dataset.n_instruments
    (objectives,), (notes,), (bandwidth,), failures = _objective_rows(
        thetas, *_one_block(dataset), kernel, delta, dataset.cluster_labels)
    raise_row_failure(failures)
    thresholds = np.array([chi_square_quantile(k, 1.0 - a) for a in alpha_levels])
    # a singular point has a NaN objective, so a NaN p-value, and fails
    # every threshold
    p_values = chi_square_sf(k, objectives)
    return ConfidenceSetGrid(
        resolution=m,
        alpha_levels=alpha_levels,
        bandwidth=float(bandwidth),
        df=k,
        n_obs=dataset.n_obs,
        index=np.column_stack([i, j]),
        theta=thetas,
        objective=objectives,
        p_value=p_values,
        member=objectives <= thresholds[:, None],
        notes={n: note for n, note in enumerate(notes) if note is not None},
    )
