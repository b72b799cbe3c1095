"""Monte Carlo study: skewed-normal innovations, four data generating
processes, optimal and distorted forecasts, implied identification weights,
and the size/coverage experiment drivers.

All DGPs share the form

    Y_{t+1} = zeta' Z_t + sigma_{t+1} xi_{t+1},   xi ~ standardized skew normal,

with four cases: homoskedastic iid covariates, the same with a deterministic
variance ramp, an AR(1), and an AR(1)-GARCH(1,1). Optimal forecasts add the
relevant centrality of xi, scaled by sigma_{t+1}, to the conditional
location. Replications are keyed by (seed, replication index) substreams, so
any scheduling across workers reproduces the same aggregate report.

Paths are simulated in blocks of up to ``_CHUNK`` replications: each path
still draws its innovations from its own stream, and the time-series
recursions then take one vector step per time step across the block.
Blocking never changes the draws, and a single path is the one-row case of
the same kernel, so a path is bitwise the same however it was made.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import lru_cache
from itertools import islice

import numpy as np
from scipy import optimize, special
from scipy.signal import lfilter

from .bandwidth import bandwidth_rule_of_thumb
from .central_tendency import (
    SimplexWeights,
    gmm_objective_from_stacked,
    gmm_objectives_from_stacked,
    simplex_grid,
)
from .errors import DegenerateErrors, SingularMatrixError
from .identification import (
    ForecastDataset,
    _identification_matrix,
    _weight_matrices_from_arrays,
    forecast_errors,
    stacked_moments,
)
from .numerics import (
    Kernel,
    RandomStream,
    chi_square_quantile,
    gaussian_kernel,
)
from .rationality import mode_test

_B = np.sqrt(2.0 / np.pi)

# Largest Pearson moment skewness attainable by the skew-normal family
# (shape -> infinity limit).
MAX_MOMENT_SKEWNESS = float(
    0.5 * (4.0 - np.pi) * _B ** 3 / (1.0 - _B ** 2) ** 1.5
)

# Substream layout: replication r draws its path from stream 2r and any
# distortion noise from 2r + 1; the implied-theta pooling uses a disjoint
# block so that it never shares draws with the evaluation replications.
_IMPLIED_THETA_BASE = 1 << 40

# Paths simulated together. A block's arrays hold _CHUNK * (burn_in + T + 2)
# values each, so memory does not grow with the replication count.
_CHUNK = 128


def _path_stream(r: int) -> int:
    return 2 * r


def _noise_stream(r: int) -> int:
    return 2 * r + 1


class Dgp(str, Enum):
    HOMOSKEDASTIC_IID = "homoskedastic-iid"
    HETEROSKEDASTIC = "heteroskedastic"
    AR1 = "ar1"
    AR_GARCH = "ar-garch"


_TIME_SERIES = (Dgp.AR1, Dgp.AR_GARCH)

_CROSS_SECTION_MEANS = np.array([1.0, 1.0, -1.0, 2.0])
_CROSS_SECTION_SDS = np.array([0.0, 1.0, 1.0, np.sqrt(0.1)])
_CROSS_SECTION_ZETA = np.array([1.0, 1.0, 1.0, 1.0])
_AR_COEF = 0.5
_GARCH_CONST, _GARCH_PERSIST, _GARCH_ARCH = 0.1, 0.8, 0.1


class InstrumentSet(IntEnum):
    """Instrument choices: a constant, (1, X), and (1, X, extra) where the
    extra column is the first stochastic covariate for cross-sectional DGPs
    and the lagged realization Y_{t-1} for time-series DGPs."""

    SET1 = 1
    SET2 = 2
    SET3 = 3


class Distortion(str, Enum):
    BIAS = "bias"
    NOISE = "noise"


@dataclass(frozen=True)
class DgpConfig:
    """One Monte Carlo design point."""

    dgp: Dgp
    skewness: float
    n_obs: int
    seed: int
    burn_in: int = 1000

    def __post_init__(self):
        object.__setattr__(self, "dgp", Dgp(self.dgp))
        if abs(self.skewness) >= MAX_MOMENT_SKEWNESS:
            raise ValueError(
                f"|skewness| must be below the skew-normal bound "
                f"{MAX_MOMENT_SKEWNESS:.4f}, got {self.skewness}"
            )
        if self.n_obs < 2:
            raise ValueError(f"sample size must be >= 2, got {self.n_obs}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.dgp in _TIME_SERIES and self.burn_in < 1:
            raise ValueError("time-series DGPs need burn_in >= 1")


@dataclass(frozen=True)
class SkewNormalSpec:
    """Standardized skew-normal innovation law.

    ``shape`` is the family's shape parameter; ``center``/``spread`` shift
    and scale the raw variate to mean 0, variance 1. The three centrality
    values refer to the standardized variable, so mean_xi is 0 by
    construction and, for positive skewness, mode_xi < median_xi < mean_xi.
    """

    shape: float
    center: float
    spread: float
    mean_xi: float
    median_xi: float
    mode_xi: float
    moment_skewness: float

    @property
    def centralities(self) -> np.ndarray:
        return np.array([self.mean_xi, self.median_xi, self.mode_xi])

    def pdf(self, x):
        z = self.center + self.spread * np.asarray(x, dtype=float)
        base = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
        return self.spread * 2.0 * base * special.ndtr(self.shape * z)

    def cdf(self, x):
        z = self.center + self.spread * np.asarray(x, dtype=float)
        return special.ndtr(z) - 2.0 * special.owens_t(z, self.shape)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw n standardized variates: delta |U1| + sqrt(1-delta^2) U2,
        shifted and scaled."""
        if self.shape == 0.0:
            return rng.standard_normal(n)
        d = self.shape / np.sqrt(1.0 + self.shape ** 2)
        u1 = rng.standard_normal(n)
        u2 = rng.standard_normal(n)
        raw = d * np.abs(u1) + np.sqrt(1.0 - d * d) * u2
        return (raw - self.center) / self.spread


@lru_cache(maxsize=64)
def skew_normal_params(gamma: float) -> SkewNormalSpec:
    """Solve for the skew normal whose standardized form has Pearson moment
    skewness ``gamma``.

    The shape parameter comes from inverting the family's closed-form
    skewness; the median from root-finding on the CDF and the mode from
    golden-section maximization of the density.
    """
    gamma = float(gamma)
    if abs(gamma) >= MAX_MOMENT_SKEWNESS:
        raise ValueError(
            f"|gamma| must be below {MAX_MOMENT_SKEWNESS:.4f}, got {gamma}"
        )
    if gamma == 0.0:
        return SkewNormalSpec(0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    # moment inversion: gamma = (4-pi)/2 * m1^3 / (1-m1^2)^(3/2), m1 = b*delta
    c = np.cbrt(2.0 * gamma / (4.0 - np.pi))
    m1 = c / np.sqrt(1.0 + c * c)
    delta = m1 / _B
    shape = float(delta / np.sqrt(1.0 - delta * delta))
    spread = float(np.sqrt(1.0 - m1 * m1))

    def raw_pdf(x):
        return 2.0 * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi) * special.ndtr(shape * x)

    def raw_cdf(x):
        return special.ndtr(x) - 2.0 * special.owens_t(x, shape)

    median_raw = optimize.brentq(lambda x: raw_cdf(x) - 0.5, -8.0, 8.0, xtol=1e-14)
    grid = np.linspace(-4.0, 4.0, 161)
    dens = raw_pdf(grid)
    i = int(np.argmax(dens))
    res = optimize.minimize_scalar(
        lambda x: -raw_pdf(x),
        bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="golden",
        options={"xtol": 1e-12},
    )
    mode_raw = float(res.x)
    return SkewNormalSpec(
        shape=shape,
        center=float(m1),
        spread=spread,
        mean_xi=0.0,
        median_xi=float((median_raw - m1) / spread),
        mode_xi=float((mode_raw - m1) / spread),
        moment_skewness=gamma,
    )


@dataclass(frozen=True)
class SimulatedPath:
    """One simulated sample of aligned forecast-time information.

    Entry t pairs the information known at forecast time (cond_loc,
    sigma_next, covariates, extra_instrument) with the next-period outcome
    realizations[t] and its innovation.
    """

    realizations: np.ndarray
    cond_loc: np.ndarray
    sigma_next: np.ndarray
    innovations: np.ndarray
    covariates: np.ndarray
    extra_instrument: np.ndarray


def simulate_paths(
    config: DgpConfig, stream_ids: Iterable[int]
) -> Iterator[SimulatedPath]:
    """Yield one path per ``RandomStream(config.seed, id)``, in order.

    Time-series paths are simulated ``_CHUNK`` at a time; each draws from its
    own stream, so a path does not depend on the block it was made in.
    """
    return _simulate_streams(
        config, (RandomStream(config.seed, i) for i in stream_ids)
    )


def simulate_dgp(config: DgpConfig, stream: RandomStream | None = None) -> SimulatedPath:
    """Simulate a path; identical (config, stream) reproduce it bitwise.

    Time-series cases discard ``burn_in`` observations; the GARCH recursion
    starts from its unconditional variance of 1.
    """
    stream = stream or RandomStream(config.seed, 0)
    return next(_simulate_streams(config, iter([stream])))


def _simulate_streams(
    config: DgpConfig, streams: Iterator[RandomStream]
) -> Iterator[SimulatedPath]:
    spec = skew_normal_params(config.skewness)
    if config.dgp not in _TIME_SERIES:
        for stream in streams:
            yield _cross_section_path(config, spec, stream.generator())
        return
    while block := list(islice(streams, _CHUNK)):
        yield from _time_series_block(config, spec, block)


def _cross_section_path(
    config: DgpConfig, spec: SkewNormalSpec, rng: np.random.Generator
) -> SimulatedPath:
    t = config.n_obs
    z = np.empty((t, 4))
    z[:, 0] = 1.0
    z[:, 1:] = rng.normal(
        loc=_CROSS_SECTION_MEANS[1:], scale=_CROSS_SECTION_SDS[1:], size=(t, 3)
    )
    cond_loc = z @ _CROSS_SECTION_ZETA
    if config.dgp is Dgp.HOMOSKEDASTIC_IID:
        sigma_next = np.ones(t)
    else:
        # sigma_{t+1} = 0.5 + 1.5 (t+1)/T with t = 1..T
        sigma_next = 0.5 + 1.5 * (np.arange(1, t + 1) + 1.0) / t
    xi = spec.sample(rng, t)
    return SimulatedPath(
        realizations=cond_loc + sigma_next * xi,
        cond_loc=cond_loc,
        sigma_next=sigma_next,
        innovations=xi,
        covariates=z,
        extra_instrument=z[:, 1].copy(),
    )


def _time_series_block(
    config: DgpConfig, spec: SkewNormalSpec, streams: list[RandomStream]
) -> list[SimulatedPath]:
    """AR(1) or AR(1)-GARCH(1,1) paths, one row per stream."""
    t, b = config.n_obs, config.burn_in
    n = b + t + 2
    xi = np.stack([spec.sample(stream.generator(), n) for stream in streams])
    if config.dgp is Dgp.AR1:
        sig, shocks = np.ones_like(xi), xi
    else:
        sig = _garch_sigma(xi)
        shocks = sig * xi
    y = lfilter([1.0], [1.0, -_AR_COEF], shocks, axis=1)
    return [
        SimulatedPath(
            realizations=y[j, b + 2: b + t + 2].copy(),
            cond_loc=_AR_COEF * y[j, b + 1: b + t + 1],
            sigma_next=sig[j, b + 2: b + t + 2].copy(),
            innovations=xi[j, b + 2: b + t + 2].copy(),
            covariates=y[j, b + 1: b + t + 1, None].copy(),
            extra_instrument=y[j, b: b + t].copy(),
        )
        for j in range(len(streams))
    ]


def _garch_sigma(xi: np.ndarray) -> np.ndarray:
    """Conditional standard deviations of the GARCH(1,1) recursion for each
    row of innovations, starting from the unconditional variance of 1: one
    vector step per time step across the rows."""
    rows, n = xi.shape
    squares = np.ascontiguousarray((xi * xi).T)
    s2 = np.empty((n, rows))
    s2[0] = 1.0
    for i in range(n - 1):
        s2[i + 1] = (_GARCH_CONST + _GARCH_PERSIST * s2[i]
                     + _GARCH_ARCH * s2[i] * squares[i])
    return np.sqrt(s2).T


def _beta_array(beta) -> np.ndarray:
    if isinstance(beta, SimplexWeights):
        return beta.as_array()
    return SimplexWeights.from_array(beta).as_array()


def optimal_forecasts(path: SimulatedPath, config: DgpConfig, beta) -> np.ndarray:
    """Convex combination of the optimal mean/median/mode forecast series:

        X_t = zeta' Z_t + sigma_{t+1} * beta' (Mean(xi), Median(xi), Mode(xi)).
    """
    b = _beta_array(beta)
    spec = skew_normal_params(config.skewness)
    return path.cond_loc + path.sigma_next * float(b @ spec.centralities)


def distort_forecasts(
    forecasts, kind: Distortion | str, kappa: float, stream: RandomStream
) -> np.ndarray:
    """Deliberately sub-optimal forecasts for the power designs.

    bias  -> X + kappa * sd(X), kappa in (-1, 1)
    noise -> X + N(0, kappa * var(X)) draws, kappa in [0, 1); kappa = 0 is an
             exact identity (no draws consumed)
    """
    kind = Distortion(kind)
    x = np.asarray(forecasts, dtype=float)
    sd = float(x.std())
    if kind is Distortion.BIAS:
        if not -1.0 < kappa < 1.0:
            raise ValueError(f"bias kappa must lie in (-1, 1), got {kappa}")
        return x + kappa * sd
    if not 0.0 <= kappa < 1.0:
        raise ValueError(f"noise kappa must lie in [0, 1), got {kappa}")
    if kappa == 0.0:
        return x.copy()
    rng = stream.generator()
    return x + rng.normal(0.0, np.sqrt(kappa) * sd, size=x.size)


def build_instruments(
    path: SimulatedPath, forecasts, instrument_set: InstrumentSet | int
) -> np.ndarray:
    instrument_set = InstrumentSet(instrument_set)
    x = np.asarray(forecasts, dtype=float)
    ones = np.ones(x.size)
    if instrument_set is InstrumentSet.SET1:
        return ones[:, None]
    if instrument_set is InstrumentSet.SET2:
        return np.column_stack([ones, x])
    return np.column_stack([ones, x, path.extra_instrument])


class ThetaSetKind(str, Enum):
    SINGLETON = "singleton"
    SEGMENT = "segment"
    SIMPLEX = "simplex"


@dataclass(frozen=True)
class ImpliedThetaSet:
    """Identification-function weights consistent with a forecast weight
    vector: a single point, a line segment across the simplex, or (under
    symmetry) the whole simplex."""

    kind: ThetaSetKind
    points: np.ndarray
    evaluation_point: SimplexWeights
    note: str | None = None

    @property
    def midpoint(self) -> SimplexWeights:
        return SimplexWeights.from_array(self.points.mean(axis=0))


def _simplex_quadratic_argmin(a: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact minimizer of theta' a theta over the unit simplex by facet
    enumeration (vertices, edges, interior)."""
    candidates: list[np.ndarray] = [np.eye(3)[i] for i in range(3)]
    for i in range(3):
        for j in range(i + 1, 3):
            denom = a[i, i] - 2.0 * a[i, j] + a[j, j]
            if denom > 0:
                t = float(np.clip((a[j, j] - a[i, j]) / denom, 0.0, 1.0))
                th = np.zeros(3)
                th[i], th[j] = t, 1.0 - t
                candidates.append(th)
    theta0 = np.full(3, 1.0 / 3.0)
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
    reduced = basis.T @ a @ basis
    rhs = -basis.T @ a @ theta0
    u, *_ = np.linalg.lstsq(reduced, rhs, rcond=None)
    interior = theta0 + basis @ u
    if np.all(interior >= -1e-12):
        candidates.append(np.clip(interior, 0.0, None) / np.clip(interior, 0.0, None).sum())
    values = [float(th @ a @ th) for th in candidates]
    best = int(np.argmin(values))
    return candidates[best], values[best]


def _plane_simplex_intersection(normal: np.ndarray) -> list[np.ndarray]:
    """Corners of {theta >= 0, sum theta = 1, normal . theta = 0}."""
    pts: list[np.ndarray] = []
    for i in range(3):
        for j in range(i + 1, 3):
            if normal[i] == normal[j]:
                if normal[i] == 0.0:
                    for t in (0.0, 1.0):
                        th = np.zeros(3)
                        th[i], th[j] = t, 1.0 - t
                        pts.append(th)
                continue
            t = normal[j] / (normal[j] - normal[i])
            if -1e-12 <= t <= 1.0 + 1e-12:
                th = np.zeros(3)
                th[i] = np.clip(t, 0.0, 1.0)
                th[j] = 1.0 - th[i]
                pts.append(th)
    unique: list[np.ndarray] = []
    for p in pts:
        if not any(np.allclose(p, q, atol=1e-9) for q in unique):
            unique.append(p)
    unique.sort(key=lambda p: tuple(np.round(p, 12)))
    return unique


def implied_theta(
    config: DgpConfig,
    beta,
    draws: int = 1000,
    instrument_set: InstrumentSet | int = InstrumentSet.SET2,
    kernel: Kernel | None = None,
) -> ImpliedThetaSet:
    """Identification-function weights theta whose combined moment has zero
    expectation when the forecast is the beta combination.

    Mean and mode forecasts map to their own vertices; under zero skewness
    every theta satisfies the moment condition and the whole simplex is
    returned (with beta as the representative evaluation point). Any other
    case is resolved numerically: ``draws`` replications of size
    config.n_obs are pooled, the expected stacked moment matrix is estimated
    (bandwidth evaluated at the config sample size), and its null space is
    intersected with the simplex. A segment's evaluation point is its
    midpoint.
    """
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    b = _beta_array(beta)
    instrument_set = InstrumentSet(instrument_set)
    kernel = kernel or gaussian_kernel()

    if np.array_equal(b, [1.0, 0.0, 0.0]):
        return ImpliedThetaSet(
            ThetaSetKind.SINGLETON, np.array([[1.0, 0.0, 0.0]]),
            SimplexWeights(1.0, 0.0, 0.0),
        )
    if np.array_equal(b, [0.0, 0.0, 1.0]):
        return ImpliedThetaSet(
            ThetaSetKind.SINGLETON, np.array([[0.0, 0.0, 1.0]]),
            SimplexWeights(0.0, 0.0, 1.0),
        )
    if config.skewness == 0.0:
        return ImpliedThetaSet(
            ThetaSetKind.SIMPLEX, np.eye(3), SimplexWeights.from_array(b),
            note="unidentified: all centrality measures coincide",
        )

    errors_parts, instruments_parts = [], []
    streams = range(_IMPLIED_THETA_BASE, _IMPLIED_THETA_BASE + draws)
    for path in simulate_paths(config, streams):
        x = optimal_forecasts(path, config, b)
        errors_parts.append(x - path.realizations)
        instruments_parts.append(build_instruments(path, x, instrument_set))
    errors = np.concatenate(errors_parts)
    instruments = np.vstack(instruments_parts)
    n = errors.size
    k = instruments.shape[1]

    delta = bandwidth_rule_of_thumb(errors, n_obs=config.n_obs).delta
    values = _identification_matrix(errors, delta, kernel)
    weights = _weight_matrices_from_arrays(values, instruments)
    moment_rows = np.empty((3, k))
    for r in range(3):
        moment_rows[r] = ((values[r][:, None] * instruments) @ weights[r]).mean(axis=0)

    quad = moment_rows @ moment_rows.T
    lam, vecs = np.linalg.eigh(quad)
    # null-space tolerance: pooled means carry variance ~ 1/n per coordinate
    tau2 = 9.0 * k / n
    n_null = int(np.sum(lam < tau2))

    if n_null >= 3:
        return ImpliedThetaSet(
            ThetaSetKind.SIMPLEX, np.eye(3), SimplexWeights.from_array(b),
            note="moment condition holds on the whole simplex",
        )
    if n_null == 2:
        corners = _plane_simplex_intersection(vecs[:, 2])
        if len(corners) == 2:
            pts = np.vstack(corners)
            return ImpliedThetaSet(
                ThetaSetKind.SEGMENT, pts,
                SimplexWeights.from_array(pts.mean(axis=0)),
            )
        if len(corners) == 1:
            return ImpliedThetaSet(
                ThetaSetKind.SINGLETON, corners[0][None, :],
                SimplexWeights.from_array(corners[0]),
            )
    theta, value = _simplex_quadratic_argmin(quad)
    note = None
    if value > tau2:
        note = (
            f"no exact zero of the expected moment on the simplex "
            f"(min quadratic {value:.3e} above tolerance {tau2:.3e})"
        )
    return ImpliedThetaSet(
        ThetaSetKind.SINGLETON, theta[None, :],
        SimplexWeights.from_array(theta), note=note,
    )


@dataclass(frozen=True)
class SimulationReport:
    """Aggregate of one Monte Carlo experiment."""

    kind: str
    config: DgpConfig
    instrument_set: InstrumentSet
    replications: int
    successes: int
    rate: float
    mc_standard_error: float
    nominal_level: float
    failures: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)


def _mc_se(rate: float, n: int) -> float:
    return float(np.sqrt(rate * (1.0 - rate) / n)) if n > 0 else float("nan")


def _check_replications(replications: int) -> None:
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")


def _run_replications(
    config: DgpConfig,
    replications: int,
    beta,
    instrument_set: InstrumentSet,
    score: Callable[[ForecastDataset], object],
    distortion: Distortion | str | None = None,
    kappa: float = 0.0,
) -> tuple[list, dict[str, int]]:
    """The one replication loop behind every experiment.

    Replication r simulates its path from stream 2r, forms the beta
    forecasts, distorts them with noise from stream 2r + 1 when
    ``distortion`` is set, builds the instruments and dataset, and scores
    it. A replication whose scoring raises DegenerateErrors or
    SingularMatrixError is counted by exception name and skipped. Returns
    the scores of the successful replications, in order, and the counts.
    """
    scores = []
    failures: dict[str, int] = {}
    paths = simulate_paths(config, (_path_stream(r) for r in range(replications)))
    for r, path in enumerate(paths):
        x = optimal_forecasts(path, config, beta)
        if distortion is not None:
            x = distort_forecasts(
                x, distortion, kappa, RandomStream(config.seed, _noise_stream(r))
            )
        dataset = ForecastDataset(
            path.realizations, x, build_instruments(path, x, instrument_set)
        )
        try:
            scores.append(score(dataset))
        except (DegenerateErrors, SingularMatrixError) as exc:
            name = type(exc).__name__
            failures[name] = failures.get(name, 0) + 1
    return scores, failures


def run_size_experiment(
    config: DgpConfig,
    instrument_set: InstrumentSet | int,
    replications: int,
    nominal_alpha: float = 0.05,
    distortion: Distortion | str | None = None,
    kappa: float = 0.0,
    kernel: Kernel | None = None,
) -> SimulationReport:
    """Rejection frequency of the mode test under optimal (or distorted)
    mode forecasts.

    With ``distortion`` set this is a power experiment; kappa = 0 recovers
    the size design. Per-replication failures (degenerate errors, singular
    covariances) are counted, not fatal.
    """
    _check_replications(replications)
    if not 0.0 <= nominal_alpha < 1.0:
        raise ValueError(f"nominal level must lie in [0, 1), got {nominal_alpha}")
    instrument_set = InstrumentSet(instrument_set)
    kernel = kernel or gaussian_kernel()

    def rejects(dataset: ForecastDataset) -> bool:
        return mode_test(dataset, kernel=kernel).p_value < nominal_alpha

    outcomes, failures = _run_replications(
        config, replications, [0.0, 0.0, 1.0], instrument_set, rejects,
        distortion, kappa,
    )
    successes = len(outcomes)
    rate = sum(outcomes) / successes if successes else float("nan")
    return SimulationReport(
        kind="size" if distortion is None else "power",
        config=config,
        instrument_set=instrument_set,
        replications=replications,
        successes=successes,
        rate=rate,
        mc_standard_error=_mc_se(rate, successes),
        nominal_level=nominal_alpha,
        failures=failures,
        details={"distortion": None if distortion is None else Distortion(distortion).value,
                 "kappa": kappa},
    )


def _stacked_for(dataset: ForecastDataset, kernel: Kernel):
    delta = bandwidth_rule_of_thumb(forecast_errors(dataset), dataset.n_obs).delta
    return stacked_moments(dataset, delta, kernel)


def run_coverage_experiment(
    config: DgpConfig,
    beta,
    instrument_set: InstrumentSet | int,
    replications: int,
    level: float = 0.90,
    draws: int = 1000,
    kernel: Kernel | None = None,
) -> SimulationReport:
    """Frequency with which the implied theta falls inside the level-%
    confidence set, i.e. S_T(theta*) <= Q_k(level).

    theta* is the implied singleton, the midpoint of an implied segment, or
    the beta representative under symmetry.
    """
    _check_replications(replications)
    if not 0.0 < level < 1.0:
        raise ValueError(f"coverage level must lie in (0, 1), got {level}")
    instrument_set = InstrumentSet(instrument_set)
    kernel = kernel or gaussian_kernel()
    theta_set = implied_theta(config, beta, draws, instrument_set, kernel)
    theta = theta_set.evaluation_point
    # the instrument set's value is its column count k
    quantile = chi_square_quantile(int(instrument_set), level)

    def covers(dataset: ForecastDataset) -> bool:
        s = gmm_objective_from_stacked(theta, _stacked_for(dataset, kernel))
        return s <= quantile

    outcomes, failures = _run_replications(
        config, replications, beta, instrument_set, covers
    )
    successes = len(outcomes)
    rate = sum(outcomes) / successes if successes else float("nan")
    return SimulationReport(
        kind="coverage",
        config=config,
        instrument_set=instrument_set,
        replications=replications,
        successes=successes,
        rate=rate,
        mc_standard_error=_mc_se(rate, successes),
        nominal_level=level,
        failures=failures,
        details={
            "beta": [float(v) for v in _beta_array(beta)],
            "theta": [float(v) for v in theta.as_array()],
            "theta_set_kind": theta_set.kind.value,
        },
    )


@dataclass(frozen=True)
class GridCoverageReport:
    """Per-grid-point coverage rates (the triangle-figure experiment)."""

    resolution: int
    thetas: list[SimplexWeights]
    rates: np.ndarray
    replications: int
    successes: int
    nominal_level: float
    failures: dict[str, int] = field(default_factory=dict)


def run_grid_coverage_experiment(
    config: DgpConfig,
    beta,
    instrument_set: InstrumentSet | int,
    replications: int,
    m: int = 10,
    level: float = 0.90,
    kernel: Kernel | None = None,
) -> GridCoverageReport:
    """Coverage of every simplex grid point across replications: the
    per-point average membership of the level-% confidence set.

    All grid points of a replication are scored in one batched pass. A
    replication with degenerate errors or with any singular grid point is a
    failure, counted by exception name, and left out of the rates.
    """
    _check_replications(replications)
    instrument_set = InstrumentSet(instrument_set)
    kernel = kernel or gaussian_kernel()
    thetas = simplex_grid(m)
    theta_rows = [th.as_array() for th in thetas]
    quantile = chi_square_quantile(int(instrument_set), level)

    def memberships(dataset: ForecastDataset) -> np.ndarray:
        s_values, notes = gmm_objectives_from_stacked(
            theta_rows, _stacked_for(dataset, kernel)
        )
        singular = next((note for note in notes if note is not None), None)
        if singular is not None:
            raise SingularMatrixError(singular)
        return s_values <= quantile

    outcomes, failures = _run_replications(
        config, replications, beta, instrument_set, memberships
    )
    rates = np.mean(outcomes, axis=0) if outcomes else np.full(len(thetas), np.nan)
    return GridCoverageReport(
        resolution=m,
        thetas=thetas,
        rates=rates,
        replications=replications,
        successes=len(outcomes),
        nominal_level=level,
        failures=failures,
    )
