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

Paths are simulated in blocks of up to ``_CHUNK`` replications, for all
four DGPs. A block is a SimulatedPath whose arrays carry a leading block
axis (a cross-section block shares one sigma_next row). Each stream keys
its own draws and takes all of them in one draw call: the covariates'
normals, then the innovations' (one standard normal per innovation, or two
under skewness). One call gives the same numbers as consecutive calls, so
a path is bitwise the same whatever block it was made in, and a single
path is the one-row case of the same kernel. The time-series recursions
take one vector step per time step across the block. Forecasts and
instruments are formed for the whole block from its arrays. A block holds
two or three (B, burn_in + T + 2) arrays for the time-series DGPs and
about seven (B, T) arrays' worth for the cross-section ones (four
covariate columns among them), and its draws while it is made: at B = 128,
T = 500 and burn_in = 1000 that is 3.6 to 5.1 MB, peaking below 8 MB.

The experiments and the implied-theta pooling run their blocks on two
threads when the process may use two or more cores: the caller and one
helper thread take alternate blocks (see _map_blocks), so two blocks are
live at once and memory is two blocks' worth, whatever the replication
count. The results are consumed in block order, and each block knows the
index of its first replication, so the reports do not depend on which
thread made which block. On one core the caller runs every block.

Each block is also scored in one pass. The bandwidth rule, the weight
matrices, the stacked moments, the mode test and the GMM objective all have
block kernels with a leading replication axis, and the single-dataset
functions are their one-row case. A block kernel returns its results and,
per replication, None or the exception the single-dataset function would
raise on it, found by the same checks in the same order; a failed
replication gets finite placeholder values, so it neither warns nor changes
the others, and the replication loop counts it by exception name.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import lru_cache
from itertools import islice
from typing import TypeVar

import numpy as np
from scipy import special

from .bandwidth import bandwidth_rule_of_thumb
from .central_tendency import SimplexWeights, _lattice, _objectives_block, _theta_array
from .errors import SingularMatrixError, first_failures, raise_row_failure
from .identification import Functional, _assemble_stacked, _check_aligned, _weighted_block
from .numerics import (
    Kernel,
    RandomStream,
    chi_square_quantile,
    gaussian_kernel,
    standard_normal_rows,
)
from .rationality import _tests_block

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
# values each; the caller and one helper thread each hold one block, so memory
# is two blocks' worth and does not grow with the replication count.
_CHUNK = 128

_T = TypeVar("_T")


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
# Blocks with fewer rows run the GARCH recursion on Python floats, row by row:
# numpy's dispatch at every time step makes the vector loop slower below this.
_GARCH_ROW_LOOP_BELOW = 24


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
        shifted and scaled, with U1 and then U2 from one draw call (U2
        alone when unskewed)."""
        return _skew_normal_variates(self, rng.standard_normal(_normal_count(self, n)))


def _normal_count(spec: SkewNormalSpec, n: int) -> int:
    """Standard normals needed for n variates: U2 alone when unskewed."""
    return n if spec.shape == 0.0 else 2 * n


def _skew_normal_variates(spec: SkewNormalSpec, u: np.ndarray) -> np.ndarray:
    """Standardized variates from standard normals u (..., _normal_count):
    under skewness the first half of each row is U1 and the second U2."""
    if spec.shape == 0.0:
        return u
    n = u.shape[-1] // 2
    d = spec.shape / np.sqrt(1.0 + spec.shape ** 2)
    raw = d * np.abs(u[..., :n]) + np.sqrt(1.0 - d * d) * u[..., n:]
    return (raw - spec.center) / spec.spread


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
    # deferred to the first call (then cached), so `test` and `cset` never load it
    from scipy import optimize

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
    realizations[t] and its innovation. Inside this module a block of paths
    is one SimulatedPath whose arrays carry a leading block axis.
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

    Paths are simulated ``_CHUNK`` at a time; each draws from its own
    stream, so a path does not depend on the block it was made in.
    """
    simulate = _simulator(config)
    for _, streams in _cut_blocks(RandomStream(config.seed, i) for i in stream_ids):
        block = simulate(streams)
        for j in range(len(streams)):
            yield _path_row(block, j)


def simulate_dgp(config: DgpConfig, stream: RandomStream | None = None) -> SimulatedPath:
    """Simulate a path; identical (config, stream) reproduce it bitwise.

    Time-series cases discard ``burn_in`` observations; the GARCH recursion
    starts from its unconditional variance of 1.
    """
    stream = stream or RandomStream(config.seed, 0)
    return _path_row(_simulator(config)([stream]), 0)


def _path_row(block: SimulatedPath, j: int) -> SimulatedPath:
    return SimulatedPath(*(getattr(block, f.name)[j].copy()
                           for f in fields(SimulatedPath)))


def _simulator(config: DgpConfig) -> Callable[[list[RandomStream]], SimulatedPath]:
    """The block kernel of the config's DGP: one path per stream."""
    spec = skew_normal_params(config.skewness)
    simulate = _time_series_block if config.dgp in _TIME_SERIES else _cross_section_block
    return lambda streams: simulate(config, spec, streams)


def _cut_blocks(
    streams: Iterator[RandomStream],
) -> Iterator[tuple[int, list[RandomStream]]]:
    """Consecutive blocks of up to ``_CHUNK`` streams, each with the index of
    its first stream."""
    first = 0
    while block := list(islice(streams, _CHUNK)):
        yield first, block
        first += len(block)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _map_blocks(
    fn: Callable[[int, list[RandomStream]], _T], streams: Iterator[RandomStream]
) -> Iterator[_T]:
    """``fn(first, block)`` for each block of ``_cut_blocks(streams)``,
    yielded in block order.

    With two or more cores the caller and one helper thread take alternate
    blocks, the caller the even ones and the helper the odd ones. The blocks
    are cut on the caller. The helper's next block is queued behind the one
    it is working on, so it need not wait while the caller finishes its own
    block or the consumer takes results; each thread works on one block at
    a time. An exception from either thread reaches the consumer in block
    order; on any exit, early close included, a queued block is dropped and
    the helper is joined. With one core the caller runs every block. ``fn``
    must not depend on which thread runs it.
    """
    blocks = _cut_blocks(streams)
    if _cores() < 2:
        for first, block in blocks:
            yield fn(first, block)
        return
    from concurrent.futures import ThreadPoolExecutor

    helper = ThreadPoolExecutor(max_workers=1)
    pending = []

    def hand_over():
        theirs = next(blocks, None)
        if theirs is not None:
            pending.append(helper.submit(fn, *theirs))

    try:
        mine = next(blocks, None)
        hand_over()
        while mine is not None:
            result = fn(*mine)
            mine = next(blocks, None)
            hand_over()
            yield result
            if pending:
                yield pending.pop(0).result()
    finally:
        helper.shutdown(wait=True, cancel_futures=True)


def _cross_section_block(
    config: DgpConfig, spec: SkewNormalSpec, streams: list[RandomStream]
) -> SimulatedPath:
    """iid-covariate paths; the block shares one sigma_next row."""
    t = config.n_obs
    draws = standard_normal_rows(streams, 3 * t + _normal_count(spec, t))
    z = np.empty((len(streams), t, 4))
    z[..., 0] = 1.0
    # bitwise what rng.normal(loc, scale, size=(t, 3)) returns
    z[..., 1:] = (_CROSS_SECTION_MEANS[1:]
                  + _CROSS_SECTION_SDS[1:] * draws[:, :3 * t].reshape(-1, t, 3))
    xi = _skew_normal_variates(spec, draws[:, 3 * t:])
    cond_loc = z @ _CROSS_SECTION_ZETA
    if config.dgp is Dgp.HOMOSKEDASTIC_IID:
        ramp = np.ones(t)
    else:
        # sigma_{t+1} = 0.5 + 1.5 (t+1)/T with t = 1..T
        ramp = 0.5 + 1.5 * (np.arange(1, t + 1) + 1.0) / t
    sigma_next = np.broadcast_to(ramp, xi.shape)
    return SimulatedPath(
        realizations=cond_loc + sigma_next * xi,
        cond_loc=cond_loc,
        sigma_next=sigma_next,
        innovations=xi,
        covariates=z,
        extra_instrument=z[..., 1],
    )


def _time_series_block(
    config: DgpConfig, spec: SkewNormalSpec, streams: list[RandomStream]
) -> SimulatedPath:
    """AR(1) or AR(1)-GARCH(1,1) paths, one row per stream."""
    # deferred: only the AR DGPs use scipy.signal, and it is slow to import
    from scipy.signal import lfilter

    t, b = config.n_obs, config.burn_in
    n = b + t + 2
    xi = _skew_normal_variates(spec, standard_normal_rows(streams, _normal_count(spec, n)))
    if config.dgp is Dgp.AR1:
        sig, shocks = np.broadcast_to(1.0, xi.shape), xi
    else:
        sig = _garch_sigma(xi)
        shocks = sig * xi
    y = lfilter([1.0], [1.0, -_AR_COEF], shocks, axis=1)
    return SimulatedPath(
        realizations=y[:, b + 2:],
        cond_loc=_AR_COEF * y[:, b + 1: b + t + 1],
        sigma_next=sig[:, b + 2:],
        innovations=xi[:, b + 2:],
        covariates=y[:, b + 1: b + t + 1, None],
        extra_instrument=y[:, b: b + t],
    )


def _garch_sigma(xi: np.ndarray) -> np.ndarray:
    """Conditional standard deviations of the GARCH(1,1) recursion for each
    row of innovations, starting from the unconditional variance of 1: one
    vector step per time step across the rows, or for a short block the same
    operations in the same order on Python floats, one row at a time."""
    rows, n = xi.shape
    squares = xi * xi
    if rows < _GARCH_ROW_LOOP_BELOW:
        c, p, a = _GARCH_CONST, _GARCH_PERSIST, _GARCH_ARCH
        s2 = np.empty((rows, n))
        for j, row in enumerate(squares[:, :-1].tolist()):
            prev = 1.0
            out = [prev]
            for sq in row:
                prev = c + p * prev + a * prev * sq
                out.append(prev)
            s2[j] = out
        return np.sqrt(s2)
    squares = np.ascontiguousarray(squares.T)
    s2 = np.empty((n, rows))
    s2[0] = 1.0
    for i in range(n - 1):
        s2[i + 1] = (_GARCH_CONST + _GARCH_PERSIST * s2[i]
                     + _GARCH_ARCH * s2[i] * squares[i])
    return np.sqrt(s2).T


def _forecast_shift(config: DgpConfig, beta) -> float:
    """beta' (Mean(xi), Median(xi), Mode(xi)), validating beta."""
    spec = skew_normal_params(config.skewness)
    return float(_theta_array(beta) @ spec.centralities)


def _block_forecasts(paths: SimulatedPath, shift: float) -> np.ndarray:
    return paths.cond_loc + paths.sigma_next * shift


def _block_instruments(
    paths: SimulatedPath, forecasts: np.ndarray, instrument_set: InstrumentSet,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The first k of (1, X, extra) for each observation, written into
    ``out`` of shape forecasts.shape + (k,)."""
    k = int(instrument_set)
    if out is None:
        out = np.empty(forecasts.shape + (k,))
    out[..., 0] = 1.0
    if k > 1:
        out[..., 1] = forecasts
    if k > 2:
        out[..., 2] = paths.extra_instrument
    return out


def optimal_forecasts(path: SimulatedPath, config: DgpConfig, beta) -> np.ndarray:
    """Convex combination of the optimal mean/median/mode forecast series:

        X_t = zeta' Z_t + sigma_{t+1} * beta' (Mean(xi), Median(xi), Mode(xi)).
    """
    return _block_forecasts(path, _forecast_shift(config, beta))


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
    return _block_instruments(
        path, np.asarray(forecasts, dtype=float), InstrumentSet(instrument_set))


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
    b = _theta_array(beta)
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

    shift = _forecast_shift(config, b)
    k = int(instrument_set)
    errors = np.empty((draws, config.n_obs))
    instruments = np.empty((draws, config.n_obs, k))
    simulate = _simulator(config)

    def pool(first: int, streams: list[RandomStream]) -> None:
        block = simulate(streams)
        rows = slice(first, first + len(streams))
        x = _block_forecasts(block, shift)
        np.subtract(x, block.realizations, out=errors[rows])
        _block_instruments(block, x, instrument_set, out=instruments[rows])

    ids = range(_IMPLIED_THETA_BASE, _IMPLIED_THETA_BASE + draws)
    for _ in _map_blocks(pool, (RandomStream(config.seed, i) for i in ids)):
        pass
    errors = errors.reshape(-1)
    instruments = instruments.reshape(-1, k)
    n = errors.size

    delta = bandwidth_rule_of_thumb(errors, n_obs=config.n_obs).delta
    (values,), (weights,), failures = _weighted_block(
        errors[None], instruments[None], kernel, delta)
    raise_row_failure(failures)
    # row r: the mean over observations of v_r h' W_r
    moment_rows = ((values @ instruments / n)[:, None, :] @ weights)[:, 0, :]

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
    score: Callable[[np.ndarray, np.ndarray], tuple[list, list]],
    distortion: Distortion | str | None = None,
    kappa: float = 0.0,
) -> tuple[list, dict[str, int]]:
    """The one replication loop behind every experiment.

    Replications are scored a block of up to ``_CHUNK`` at a time, the
    caller and one helper thread taking alternate blocks (_map_blocks), and
    the scores are collected in block order. Replication r simulates its
    path from stream 2r, forms the beta forecasts, distorts them with noise
    from stream 2r + 1 when ``distortion`` is set, and builds its
    instruments. The block's arrays
    pass the checks every ForecastDataset passes, and ``score`` gets its
    forecast errors (B, T) and instruments (B, T, k) in one call. Like the
    block kernels it returns the per-replication scores and failures: None
    or the DegenerateErrors or SingularMatrixError that scoring that
    replication alone would raise; such a replication is counted by
    exception name and skipped. Returns the scores of the successful
    replications, in order, and the counts.
    """
    shift = _forecast_shift(config, beta)
    simulate = _simulator(config)

    def score_block(first: int, streams: list[RandomStream]) -> tuple[list, list]:
        block = simulate(streams)
        x = _block_forecasts(block, shift)
        if distortion is not None:
            x = np.stack([
                distort_forecasts(xj, distortion, kappa,
                                  RandomStream(config.seed, _noise_stream(first + j)))
                for j, xj in enumerate(x)
            ])
        instruments = _block_instruments(block, x, instrument_set)
        _check_aligned(block.realizations, x, instruments)
        errors = x - block.realizations
        # the paths, burn-in included, are not kept while the block is scored
        del block, x
        return score(errors, instruments)

    scores = []
    failures: dict[str, int] = {}
    streams = (RandomStream(config.seed, _path_stream(r)) for r in range(replications))
    for results, block_failures in _map_blocks(score_block, streams):
        for result, failure in zip(results, block_failures):
            if failure is None:
                scores.append(result)
            else:
                name = type(failure).__name__
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

    def rejects(errors: np.ndarray, instruments: np.ndarray) -> tuple[list, list]:
        tests, failures = _tests_block(Functional.MODE, errors, instruments, kernel)
        return [None if test is None else test.p_value < nominal_alpha
                for test in tests], failures

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


def _objective_rows(
    errors: np.ndarray, instruments: np.ndarray, thetas: np.ndarray, kernel: Kernel
) -> tuple[np.ndarray, list]:
    """S_T at every theta (P, 3) for each dataset of a block, at its own
    rule-of-thumb bandwidth. Returns the (B, P) objectives and, per dataset,
    None or the exception scoring it alone raises, in that path's order:
    the bandwidth's and the weights' failures (see _weighted_block), then a
    SingularMatrixError for the first singular Sigma(theta)."""
    values, weights, failures = _weighted_block(errors, instruments, kernel)
    objectives, notes = _objectives_block(
        thetas, _assemble_stacked(values, instruments, weights)
    )
    singular = [
        next((SingularMatrixError(note) for note in row_notes if note is not None),
             None)
        for row_notes in notes
    ]
    return objectives, first_failures(failures, singular)


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

    theta_row = theta.as_array()[None]

    def covers(errors: np.ndarray, instruments: np.ndarray) -> tuple[list, list]:
        objectives, failures = _objective_rows(errors, instruments, theta_row, kernel)
        return (objectives[:, 0] <= quantile).tolist(), failures

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
            "beta": [float(v) for v in _theta_array(beta)],
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
    theta_rows = _lattice(m)[2]
    thetas = [SimplexWeights(*row) for row in theta_rows.tolist()]
    quantile = chi_square_quantile(int(instrument_set), level)

    def memberships(errors: np.ndarray, instruments: np.ndarray) -> tuple[list, list]:
        objectives, failures = _objective_rows(errors, instruments, theta_rows, kernel)
        return list(objectives <= quantile), failures

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
