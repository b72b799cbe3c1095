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
path is the one-row case of the same kernel. The cross-section covariates
are filled a column at a time from every third normal of a row. The
time-series recursions run in pieces of 128 steps on span-sized buffers
(see _recursions): the GARCH variances in closed form per span of 128
steps, from cumulative products and sums across the block, and the AR
levels by one scaled cumulative sum per span of 512 steps; neither takes a
Python step per time step. The burn-in lives only in those buffers, and the
skew variates the experiments read are written over the draws they spent.
Forecasts and instruments are formed for the whole block from its arrays.
At B = 128, T = 500 and burn_in = 1000 a time-series block holds its draws
and its windows, 2.6 to 4.6 MB, and peaks below 5 MB; a cross-section block
holds about seven (B, T) arrays' worth (four covariate columns among them),
3.6 to 5.1 MB with its draws, and peaks below 6.3 MB while it is made.

With two or more usable cores the experiments and both passes of implied
theta run their blocks on two threads (see _map_blocks): the caller takes
the even blocks, the helper the odd ones, each straight through, joined
once; either exception stops the other after its current block. Two blocks
are live at once, whatever the replication count; implied theta also keeps
its pooled errors and the instruments beside the constant, k draws T
floats, and a few small sums per replication. Results come back in block
order and a block is the range of its replication indices, so the reports
do not depend on the threads. On one core the caller runs every block.

Each block's instruments are built as rows, (B, k, T), the layout the
whitener reads. The block is scored in one pass by S_T's block kernel,
central_tendency._objective_rows, whose one-row case are the single-dataset
functions: the size and power experiments call it on the mode row alone at
the mode vertex, as mode_test does, and read the p-values; the coverage
experiments on all three rows, over the grid or at their one theta. It
reads one Gram of each replication's whitened rows
(identification._moment_gram, which forms the rows of at most 32
replications at a time), and returns its results and, per replication,
None or the exception the single-dataset function would raise on it, found
by the same checks in the same order; a failed replication gets
placeholder values (NaN at a singular Sigma(theta)), so it neither warns
nor changes the others, and the replication loop counts it by exception
name, a singular Sigma(theta) (the first, over a grid) as a
SingularMatrixError.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field, fields
from enum import Enum, IntEnum
from functools import lru_cache
from typing import TypeVar

import numpy as np

from .bandwidth import bandwidth_rule_of_thumb
from .central_tendency import (
    MEAN_VERTEX,
    MODE_VERTEX,
    _check_resolution,
    _objective_rows,
    _theta_array,
    simplex_grid,
)
from .errors import SingularMatrixError, check_integer, first_failures, raise_row_failure
from .identification import (
    Functional,
    _check_aligned,
    _check_instrument_count,
    _identification_matrix,
    _moment_gram,
    _scales,
    _whitener,
)
from .numerics import (
    Kernel,
    RandomStream,
    _brentq,
    _golden,
    _map_floats,
    _ndtr,
    _owens_t,
    chi_square_quantile,
    chi_square_sf,
    standard_normal_rows,
)

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

# Paths simulated together. A block's arrays hold at most _CHUNK * (T + 2)
# values each beside its draws, its span buffers _CHUNK * 129. The caller takes
# the even blocks, the helper the odd ones, each straight through, joined
# once; either exception stops the other after its current block. Memory is
# two blocks' worth, whatever the replication count.
_CHUNK = 128

_T = TypeVar("_T")


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
# _recursions scales an AR span of at most _AR_SPAN steps up by 2**j and back
# by 2**-j: the largest factor, 2**511, leaves room below overflow for any
# innovation path the DGPs draw. Its pieces of _GARCH_SPAN steps never cross
# an AR span's edge, since _GARCH_SPAN divides _AR_SPAN.
_AR_SPAN = 512
_AR_UP = np.ldexp(1.0, np.arange(_AR_SPAN))
_AR_DOWN = np.ldexp(1.0, -np.arange(_AR_SPAN))
# _garch_span solves at most _GARCH_SPAN variance steps per span: the span's
# cumulative products of q stay finite for any draws (see there).
_GARCH_SPAN = 128


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
        if not abs(self.skewness) < MAX_MOMENT_SKEWNESS:  # NaN fails too
            raise ValueError(
                f"|skewness| must be below the skew-normal bound "
                f"{MAX_MOMENT_SKEWNESS:.4f}, got {self.skewness}"
            )
        for name, label in (("n_obs", "sample size"), ("seed", "seed"),
                            ("burn_in", "burn_in")):
            object.__setattr__(self, name, check_integer(getattr(self, name), label))
        if self.n_obs < 2:
            raise ValueError(f"sample size must be >= 2, got {self.n_obs}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2**64), got {self.seed}")
        if self.burn_in < 1:
            raise ValueError(f"burn_in must be >= 1, got {self.burn_in}")


@dataclass(frozen=True)
class SkewNormalSpec:
    """Standardized skew-normal innovation law.

    ``shape`` is the family's shape parameter; ``center``/``spread`` shift
    and scale the raw variate to mean 0, variance 1. The three centrality
    values refer to the standardized variable, so mean_xi is 0 by
    construction and, for positive skewness, mode_xi < median_xi < mean_xi.

    ``pdf`` is 2 phi(z) Phi(shape z) at z = center + spread x, times spread,
    with Phi from numerics._ndtr (scipy's ndtr to the last bit); ``cdf`` is
    Phi(z) - 2 T(z, shape), with Owen's T from numerics._owens_t. Both take
    a float or an array.
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
        return self.spread * 2.0 * base * _map_floats(_ndtr, self.shape * z)

    def cdf(self, x):
        z = self.center + self.spread * np.asarray(x, dtype=float)
        return _map_floats(lambda v: _ndtr(v) - 2.0 * _owens_t(v, self.shape), z)


def _normal_count(spec: SkewNormalSpec, n: int) -> int:
    """Standard normals needed for n variates: U2 alone when unskewed."""
    return n if spec.shape == 0.0 else 2 * n


def _skew_normal_variates(spec: SkewNormalSpec, u: np.ndarray) -> np.ndarray:
    """Standardized variates from standard normals u (..., _normal_count):
    under skewness the first half of each row is U1 and the second U2."""
    if spec.shape == 0.0:
        return u
    n = u.shape[-1] // 2
    shape = u.shape[:-1] + (n,)
    return _skew_into(spec, u[..., :n], u[..., n:], np.empty(shape), np.empty(shape))


def _skew_into(spec: SkewNormalSpec, u1: np.ndarray, u2: np.ndarray, out: np.ndarray,
               scratch: np.ndarray) -> np.ndarray:
    """``out`` = delta |U1| + sqrt(1 - delta^2) U2, shifted and scaled to
    the standardized variates, of the normals U1 (u1) and U2 (u2), with
    ``scratch`` of their shape as work space."""
    d = spec.shape / np.sqrt(1.0 + spec.shape ** 2)
    np.abs(u1, out=out)
    out *= d
    np.multiply(u2, np.sqrt(1.0 - d * d), out=scratch)
    out += scratch
    out -= spec.center
    out /= spec.spread
    return out


@lru_cache(maxsize=64)
def skew_normal_params(gamma: float) -> SkewNormalSpec:
    """Solve for the skew normal whose standardized form has Pearson moment
    skewness ``gamma``.

    The shape parameter comes from inverting the family's closed-form
    skewness; the median from Brent's root search on the CDF and the mode
    from golden-section maximization of the density (numerics._brentq and
    numerics._golden, ports of scipy.optimize's that take its steps to the
    last bit). The median is accurate to about 1e-14. The mode is accurate
    to about 1e-8 only, whatever the search's xtol of 1e-12: within about
    sqrt(eps) of its maximum the density changes by less than its own
    rounding, so the search cannot order points closer than that. Hence
    mode_xi at -gamma is not exactly minus mode_xi at gamma (4.6e-8
    relative apart at gamma = 0.5).
    """
    gamma = float(gamma)
    if not abs(gamma) < MAX_MOMENT_SKEWNESS:  # NaN fails too
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

    # the raw law is the spec at center 0 and spread 1 (its centralities unused)
    raw = SkewNormalSpec(shape, 0.0, 1.0, 0.0, 0.0, 0.0, gamma)
    median_raw = _brentq(lambda x: raw.cdf(x) - 0.5, -8.0, 8.0, 1e-14)
    grid = np.linspace(-4.0, 4.0, 161)
    i = int(np.argmax(raw.pdf(grid)))
    mode_raw = _golden(lambda x: -raw.pdf(x), grid[i - 1], grid[i], grid[i + 1], 1e-12)
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


def simulate_dgp(config: DgpConfig, stream: RandomStream | None = None) -> SimulatedPath:
    """Simulate a path; identical (config, stream) reproduce it bitwise.

    Time-series cases discard ``burn_in`` observations; the GARCH recursion
    starts from its unconditional variance of 1.
    """
    block = _simulator(config)([stream or RandomStream(config.seed, 0)])
    return SimulatedPath(*(getattr(block, f.name)[0].copy()
                           for f in fields(SimulatedPath)))


def _simulator(config: DgpConfig) -> Callable[[list[RandomStream]], SimulatedPath]:
    """The block kernel of the config's DGP: one path per stream."""
    spec = skew_normal_params(config.skewness)
    simulate = _time_series_block if config.dgp in _TIME_SERIES else _cross_section_block
    return lambda streams: simulate(config, spec, streams)


def _cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call outside Linux
        return os.cpu_count() or 1


def _map_blocks(fn: Callable[[range], _T], n: int) -> list[_T]:
    """``[fn(rows) for rows in blocks]``, where the blocks are the ranges of
    up to ``_CHUNK`` consecutive replication indices below ``n``.

    With two or more cores and two or more blocks the caller takes the even
    blocks, one helper thread the odd ones, each straight through, joined
    once; either exception stops the other after its current block, and the
    caller's wins. With one core the caller runs every block. ``fn`` must
    not depend on which thread runs it.
    """
    blocks = [range(i, min(i + _CHUNK, n)) for i in range(0, n, _CHUNK)]
    if _cores() < 2 or len(blocks) < 2:
        return [fn(rows) for rows in blocks]
    from concurrent.futures import ThreadPoolExecutor

    results: list = [None] * len(blocks)
    stop = False

    def run(share: range) -> None:
        nonlocal stop
        try:
            for i in share:
                if stop:
                    return
                results[i] = fn(blocks[i])
        except BaseException:
            stop = True
            raise

    with ThreadPoolExecutor(max_workers=1) as helper:
        theirs = helper.submit(run, range(1, len(blocks), 2))
        run(range(0, len(blocks), 2))
    theirs.result()
    return results


def _cross_section_block(
    config: DgpConfig, spec: SkewNormalSpec, streams: list[RandomStream]
) -> SimulatedPath:
    """iid-covariate paths; the block shares one sigma_next row."""
    t = config.n_obs
    draws = standard_normal_rows(streams, 3 * t + _normal_count(spec, t))
    z = np.empty((len(streams), t, 4))
    z[..., 0] = 1.0
    # column by column, bitwise what rng.normal(loc, scale, size=(t, 3))
    # returns: loc + scale * z, from every third normal of the row
    for c in (1, 2, 3):
        column = z[..., c]
        np.multiply(draws[:, c - 1:3 * t:3], _CROSS_SECTION_SDS[c], out=column)
        np.add(column, _CROSS_SECTION_MEANS[c], out=column)
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
    """AR(1) or AR(1)-GARCH(1,1) paths, one row per stream.

    Of the n = burn_in + T + 2 steps the experiments read the last T + 2
    levels y and the last T variances and innovations; the burn-in steps
    live only in the span buffers of _recursions. The innovations are left
    in the draws they consumed.
    """
    t, b = config.n_obs, config.burn_in
    draws = standard_normal_rows(streams, _normal_count(spec, b + t + 2))
    y, sig = _recursions(draws, spec, config.dgp is Dgp.AR_GARCH, b)
    return SimulatedPath(
        realizations=y[:, 2:],
        cond_loc=_AR_COEF * y[:, 1:t + 1],
        sigma_next=np.broadcast_to(1.0, (len(streams), t)) if sig is None else sig,
        innovations=draws[:, b + 2:b + t + 2],
        covariates=y[:, 1:t + 1, None],
        extra_instrument=y[:, :t],
    )


def _recursions(
    draws: np.ndarray, spec: SkewNormalSpec, garch: bool, first: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """The levels y_i = sigma_i xi_i + 0.5 y_{i-1}, y_{-1} = 0, of the n
    innovations a block's draws (B, _normal_count(spec, n)) make, with
    sigma_i = 1 for AR(1) and from the GARCH(1,1) recursion s2' = c + q s2,
    q = p + a xi^2, from s2_0 = 1 otherwise. Returns y from step ``first``
    on and, under GARCH, sigma from step first + 2 on (else None); under
    skewness xi from step first + 2 on is written over the spent U1 draws.

    The steps run in pieces of _GARCH_SPAN, each in whole-block calls on
    span-sized buffers, with the carries between pieces:

    - the skew variates of a piece, from its U1 and U2 (_skew_into);
    - the GARCH variances, solved in closed form per span (_garch_span);
    - the AR levels, by a scaled cumulative sum per span of _AR_SPAN steps.
      From a span start s, y_{s+j} 2**j is the cumulative sum of
      x_{s+j} 2**j (x = sigma xi) with its first term fl(x_s + 0.5
      y_{s-1}); the coefficient 0.5 makes every scale a power of two, and
      scaling by a power of two commutes with rounding, so each partial sum
      is the recursion's rounded value times 2**j and scaling back is
      exact: bitwise what scipy's ``lfilter([1], [1, -0.5], x, axis=1)``
      returns, unless a value overflows or becomes subnormal. A span's
      pieces continue one cumulative sum, and the first term of the first
      span gets ``+ 0.0``, so a -0.0 shock gives +0.0, as lfilter's.

    Cumulative products and sums run along each row on their own, so a
    row's values do not depend on the other rows and a single path is the
    one-row case.
    """
    rows = draws.shape[0]
    skewed = spec.shape != 0.0
    n = draws.shape[1] // 2 if skewed else draws.shape[1]
    y = np.empty((rows, n - first))
    sig = np.empty((rows, n - first - 2)) if garch else None
    # work: the skew scratch, the GARCH sums, then the scaled shocks' sums
    work, xi = np.empty((rows, _GARCH_SPAN)), np.empty((rows, _GARCH_SPAN))
    if garch:
        s2, prod = np.empty((rows, _GARCH_SPAN + 1)), np.empty((rows, _GARCH_SPAN))
        s2[:, 0] = 1.0
    total = None  # the AR span's cumulative sum so far, at the last scale
    for s in range(0, n, _GARCH_SPAN):
        w = min(_GARCH_SPAN, n - s)
        lo = max(s, first + 2)  # the piece's first step in the xi and sigma windows
        shocks = work[:, :w]
        if skewed:
            x = _skew_into(spec, draws[:, s:s + w], draws[:, n + s:n + s + w],
                           xi[:, :w], shocks)
            if lo < s + w:
                draws[:, lo:s + w] = x[:, lo - s:]
        else:
            x = draws[:, s:s + w]
        if garch:
            steps = min(w, n - 1 - s)
            _garch_span(x[:, :steps], s2[:, :steps + 1], prod[:, :steps],
                        shocks[:, :steps])
            sigma = np.sqrt(s2[:, :w], out=s2[:, :w])
            if lo < s + w:
                sig[:, lo - first - 2:s + w - first - 2] = sigma[:, lo - s:]
            np.multiply(sigma, x, out=shocks)
            s2[:, 0] = s2[:, w]  # the next piece's first variance (unused after the last)
        j = s % _AR_SPAN
        np.multiply(shocks if garch else x, _AR_UP[j:j + w], out=shocks)
        if j:
            shocks[:, 0] += total
        elif s:
            shocks[:, 0] += _AR_COEF * (total * _AR_DOWN[_AR_SPAN - 1])
        else:
            shocks[:, 0] += 0.0
        np.cumsum(shocks, axis=1, out=shocks)
        total = shocks[:, w - 1].copy()
        lo = max(s, first)  # and in the y window
        if lo < s + w:
            np.multiply(shocks[:, lo - s:], _AR_DOWN[j + lo - s:j + w],
                        out=y[:, lo - first:s + w - first])
    return y, sig


def _garch_span(x: np.ndarray, s2: np.ndarray, prod: np.ndarray,
                total: np.ndarray) -> None:
    """The GARCH(1,1) variances s2[:, 1:] of one span of innovations x (B,
    w), w <= _GARCH_SPAN, from the variances s2[:, 0] before it; ``prod``
    and ``total`` (B, w) are work space. With P_j the cumulative product of
    q over the span's first j + 1 steps,

        s2_{j+1} = P_j (s2_0 + c sum_{m<=j} 1 / P_m).

    Every q lies in [0.8, 113] for any draw numpy can make (the ziggurat's
    normals stay within 13.7, so |xi| <= 33.5), so a span's products stay
    between 0.8**128 > 1e-12 and 113**128 < 1.8e308, and every term is
    finite and normal. The values agree with the step-by-step recursion to
    rounding (1e-14 relative); beyond that they can differ only where a
    variance comes within a factor of 10 of overflow.
    """
    following = s2[:, 1:]
    np.multiply(x, x, out=total)
    total *= _GARCH_ARCH
    total += _GARCH_PERSIST
    np.cumprod(total, axis=1, out=prod)
    # the span's next variances serve as scratch for 1 / P until the end
    np.reciprocal(prod, out=following)
    np.cumsum(following, axis=1, out=total)
    total *= _GARCH_CONST
    total += s2[:, :1]
    np.multiply(prod, total, out=following)


def optimal_forecasts(path: SimulatedPath, config: DgpConfig, beta) -> np.ndarray:
    """Convex combination of the optimal mean/median/mode forecast series,
    for one path or a block of them:

        X_t = zeta' Z_t + sigma_{t+1} * beta' (Mean(xi), Median(xi), Mode(xi)).
    """
    spec = skew_normal_params(config.skewness)
    return path.cond_loc + path.sigma_next * float(_theta_array(beta) @ spec.centralities)


def _check_kappa(kind: Distortion | str, kappa: float) -> Distortion:
    """The distortion, once ``kappa`` is checked against its range."""
    kind = Distortion(kind)
    if kind is Distortion.BIAS and not -1.0 < kappa < 1.0:
        raise ValueError(f"bias kappa must lie in (-1, 1), got {kappa}")
    if kind is Distortion.NOISE and not 0.0 <= kappa < 1.0:
        raise ValueError(f"noise kappa must lie in [0, 1), got {kappa}")
    return kind


def distort_forecasts(
    forecasts, kind: Distortion | str, kappa: float, stream: RandomStream
) -> np.ndarray:
    """Deliberately sub-optimal forecasts for the power designs.

    bias  -> X + kappa * sd(X), kappa in (-1, 1)
    noise -> X + N(0, kappa * var(X)) draws, kappa in [0, 1); kappa = 0 is an
             exact identity (no draws consumed)
    """
    kind = _check_kappa(kind, kappa)
    x = np.asarray(forecasts, dtype=float)
    sd = float(x.std())
    if kind is Distortion.BIAS:
        return x + kappa * sd
    if kappa == 0.0:
        return x.copy()
    rng = stream.generator()
    return x + rng.normal(0.0, np.sqrt(kappa) * sd, size=x.size)


def build_instruments(
    path: SimulatedPath, forecasts, instrument_set: InstrumentSet | int
) -> np.ndarray:
    """The first k of (1, X, extra) for each observation of a path or a
    block, of shape forecasts.shape + (k,)."""
    rows = _instrument_rows(path, np.asarray(forecasts, dtype=float),
                            int(InstrumentSet(instrument_set)))
    return np.ascontiguousarray(np.moveaxis(rows, -2, -1))


def _instrument_rows(path: SimulatedPath, forecasts: np.ndarray, k: int) -> np.ndarray:
    """build_instruments' values as rows, (..., k, T) for forecasts (..., T):
    the layout the block kernels whiten."""
    out = np.empty(forecasts.shape[:-1] + (k, forecasts.shape[-1]))
    out[..., 0, :] = 1.0
    if k > 1:
        out[..., 1, :] = forecasts
    if k > 2:
        out[..., 2, :] = path.extra_instrument
    return out


def _replication_maker(
    config: DgpConfig, beta, instrument_set: InstrumentSet,
    distortion: Distortion | str | None = None, kappa: float = 0.0,
    path_stream: Callable[[int], int] = lambda r: 2 * r,
) -> Callable[[range], tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """``rows -> (realizations, forecasts, instruments)`` for a block of
    replications, of shapes (B, T), (B, T) and (B, k, T).

    Replication r simulates its path from stream ``path_stream(r)``, forms
    the beta forecasts, distorts them with noise from stream 2r + 1 when
    ``distortion`` is set, and builds its instruments. The arrays pass the
    checks every ForecastDataset passes; the paths, burn-in included, are
    not kept.
    """
    simulate = _simulator(config)

    def make(rows: range) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        block = simulate([RandomStream(config.seed, path_stream(r)) for r in rows])
        x = optimal_forecasts(block, config, beta)
        if distortion is not None:
            x = np.stack([
                distort_forecasts(xj, distortion, kappa,
                                  RandomStream(config.seed, 2 * r + 1))
                for r, xj in zip(rows, x)
            ])
        instruments = _instrument_rows(block, x, int(instrument_set))
        _check_aligned(block.realizations, x, instruments)
        return block.realizations, x, instruments

    return make


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
    evaluation_point: np.ndarray
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


def _check_draws(draws: int) -> int:
    draws = check_integer(draws, "draws")
    if draws < 1:
        raise ValueError(f"draws must be >= 1, got {draws}")
    return draws


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
    case is resolved numerically from ``draws`` replications of size
    config.n_obs, in two passes over blocks of them (_map_blocks):

    - the first simulates each block and keeps its forecast errors (draws,
      T) and its instruments beside the constant row (draws, k - 1, T), the
      only pooled arrays: k draws T floats, 8 MB at draws = 1000, T = 500
      and k = 2. The rule-of-thumb bandwidth of the pooled errors,
      evaluated at the config sample size, then fixes delta;
    - the second rebuilds each block's instruments (B, k, T), takes its
      identification values at delta and keeps per replication sum v_r h
      and the means of v_r^2 h h', h h' and v_r^2. The instruments, values
      and their products exist one block at a time.

    The per-replication sums, reduced once in replication order, give the
    pooled whitener G = M^{-1/2}, the row scales c_r (with tr_r = <M^{-1},
    (1/n) sum v_r^2 h h'>) and the expected stacked moment rows c_r (1/n)
    sum v_r h' G, whose null space is intersected with the simplex; so theta
    does not depend on the block size or the threads. A segment's
    evaluation point is its midpoint. Pooled instruments or rows that fail
    the floors of identification._whitener or ._scales raise
    SingularMatrixError.
    """
    draws = _check_draws(draws)
    b = _theta_array(beta)
    instrument_set = InstrumentSet(instrument_set)

    for vertex in (MEAN_VERTEX, MODE_VERTEX):
        if np.array_equal(b, vertex):
            return ImpliedThetaSet(ThetaSetKind.SINGLETON, np.array([vertex]),
                                   _theta_array(vertex))
    if config.skewness == 0.0:
        return ImpliedThetaSet(
            ThetaSetKind.SIMPLEX, np.eye(3), b,
            note="unidentified: all centrality measures coincide",
        )

    make = _replication_maker(config, b, instrument_set,
                              path_stream=lambda r: _IMPLIED_THETA_BASE + r)
    k, t = int(instrument_set), config.n_obs
    errors = np.empty((draws, t))
    # row 0 of every replication's instruments is the constant, so the pool
    # keeps the other k - 1
    instruments = np.empty((draws, k - 1, t))

    def pool(rows: range) -> None:
        block = slice(rows.start, rows.stop)
        y, x, h = make(rows)
        np.subtract(x, y, out=errors[block])
        instruments[block] = h[:, 1:]

    _map_blocks(pool, draws)
    delta = bandwidth_rule_of_thumb(errors.reshape(-1), n_obs=t).delta

    def sums(rows: range) -> tuple[np.ndarray, ...]:
        """Per replication, over its T observations: sum v_r h / sqrt(T), and
        the means of v_r^2 h h', h h' and v_r^2."""
        block = slice(rows.start, rows.stop)
        values = _identification_matrix(errors[block], delta, kernel)
        h = np.empty((len(rows), k, t))
        h[:, 0] = 1.0
        h[:, 1:] = instruments[block]
        g, gram = _moment_gram(values, h)
        return (g, np.einsum("brkrl->brkl", gram),
                np.einsum("bkt,blt->bkl", h, h) / t,
                np.einsum("bnt,bnt->bn", values, values) / t)

    # reduced once, in replication order, whatever the blocks and threads
    g, second, moments, squares = (np.concatenate(parts).mean(axis=0)
                                   for parts in zip(*_map_blocks(sums, draws)))
    (whitener,), singular = _whitener(moments[None])
    # tr_r = (1/n) sum v_r^2 |G h|^2 = <M^{-1}, (1/n) sum v_r^2 h h'>
    traces = np.einsum("kl,rkl->r", whitener @ whitener, second)
    scales, unscaled = _scales(traces[None] / k, squares[None], k)
    raise_row_failure(first_failures(singular, unscaled))
    # row r: the pooled mean c_r (1/n) sum v_r h' G
    return _implied_set(scales[0][:, None] * (g @ whitener) / np.sqrt(t), b,
                        9.0 * k / (draws * t))


def _implied_set(moment_rows: np.ndarray, beta: np.ndarray, tau2: float) -> ImpliedThetaSet:
    """The simplex points where the (3, k) pooled moment rows combine to zero:
    the null space of their Gram, up to ``tau2``, intersected with the
    simplex. Pooled means carry variance about 1/n per coordinate, hence the
    caller's tau2 = 9 k / n."""
    quad = moment_rows @ moment_rows.T
    lam, vecs = np.linalg.eigh(quad)
    n_null = int(np.sum(lam < tau2))

    if n_null >= 3:
        return ImpliedThetaSet(
            ThetaSetKind.SIMPLEX, np.eye(3), beta,
            note="moment condition holds on the whole simplex",
        )
    if n_null == 2:
        corners = _plane_simplex_intersection(vecs[:, 2])
        if len(corners) == 2:
            pts = np.vstack(corners)
            return ImpliedThetaSet(
                ThetaSetKind.SEGMENT, pts, _theta_array(pts.mean(axis=0)),
            )
        if len(corners) == 1:
            return ImpliedThetaSet(
                ThetaSetKind.SINGLETON, corners[0][None, :],
                _theta_array(corners[0]),
            )
    theta, value = _simplex_quadratic_argmin(quad)
    note = None
    if value > tau2:
        note = (
            f"no exact zero of the expected moment on the simplex "
            f"(min quadratic {value:.3e} above tolerance {tau2:.3e})"
        )
    return ImpliedThetaSet(
        ThetaSetKind.SINGLETON, theta[None, :], _theta_array(theta), note=note,
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


def _report(
    kind: str, config: DgpConfig, instrument_set: InstrumentSet, replications: int,
    nominal_level: float, details: dict, outcomes: list, failures: dict[str, int],
) -> SimulationReport:
    """The report of the successful replications' 0/1 ``outcomes``: their
    count, their mean and its Monte Carlo standard error (NaN when none
    succeeded)."""
    successes = len(outcomes)
    rate = se = float("nan")
    if successes:
        rate = sum(outcomes) / successes
        se = float(np.sqrt(rate * (1.0 - rate) / successes))
    return SimulationReport(kind, config, instrument_set, replications, successes,
                            rate, se, nominal_level, failures, details)


def _check_replications(replications: int) -> int:
    replications = check_integer(replications, "replications")
    if replications < 100:
        raise ValueError(f"need at least 100 replications, got {replications}")
    return replications


def _check_nominal_alpha(nominal_alpha: float) -> None:
    if not 0.0 <= nominal_alpha < 1.0:
        raise ValueError(f"nominal level must lie in [0, 1), got {nominal_alpha}")


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"coverage level must lie in (0, 1), got {level}")


def _check_instrument_set(instrument_set: InstrumentSet | int, config: DgpConfig,
                          what: str) -> InstrumentSet:
    """The instrument set, once its column count k is checked to lie below
    the sample size: the test and the confidence set refuse k >= n_obs, so
    an experiment scoring them would mean nothing."""
    instrument_set = InstrumentSet(instrument_set)
    _check_instrument_count(int(instrument_set), config.n_obs, what)
    return instrument_set


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

    Blocks of replications (_map_blocks) are made by _replication_maker
    with paths from streams 2r, and ``score`` gets each block's forecast
    errors and instruments in one call. Like the block kernels it returns the
    per-replication scores and failures: None or the DegenerateErrors or
    SingularMatrixError that scoring that replication alone would raise;
    such a replication is counted by exception name and skipped. Returns
    the scores of the successful replications, in order, and the counts.
    """
    make = _replication_maker(config, beta, instrument_set, distortion, kappa)

    def run(rows: range) -> tuple[list, list]:
        y, x, instruments = make(rows)
        return score(x - y, instruments)

    scores = []
    failures: dict[str, int] = {}
    for results, block_failures in _map_blocks(run, replications):
        for result, failure in zip(results, block_failures):
            if failure is None:
                scores.append(result)
            else:
                name = type(failure).__name__
                failures[name] = failures.get(name, 0) + 1
    return scores, failures


def _replication_failures(notes: list, failures: list) -> list:
    """Per replication scored by _objective_rows, None or the exception that
    fails it, in the one-row path's order: its bandwidth's, whitener's or
    row scale's failure, then a SingularMatrixError for its first singular
    Sigma(theta)."""
    singular = [
        next((SingularMatrixError(note) for note in row_notes if note is not None),
             None)
        for row_notes in notes
    ]
    return first_failures(failures, singular)


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
    covariances) are counted, not fatal. The instrument count k must be
    below n_obs, and a nonzero kappa needs a distortion.
    """
    replications = _check_replications(replications)
    _check_nominal_alpha(nominal_alpha)
    if distortion is not None:
        distortion = _check_kappa(distortion, kappa)
    elif kappa != 0.0:
        raise ValueError(f"kappa applies to a distortion only, got {kappa} without one")
    instrument_set = _check_instrument_set(
        instrument_set, config, "a size experiment" if distortion is None
        else "a power experiment")

    def rejects(errors: np.ndarray, instruments: np.ndarray) -> tuple[list, list]:
        statistics, notes, _, failures = _objective_rows(
            np.ones((1, 1)), errors, instruments, kernel, functionals=(Functional.MODE,))
        p_values = chi_square_sf(int(instrument_set), statistics[:, 0])
        return (p_values < nominal_alpha).tolist(), _replication_failures(notes, failures)

    return _report(
        "size" if distortion is None else "power", config, instrument_set,
        replications, nominal_alpha,
        {"distortion": None if distortion is None else distortion.value, "kappa": kappa},
        *_run_replications(config, replications, MODE_VERTEX, instrument_set,
                           rejects, distortion, kappa),
    )


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
    the beta representative under symmetry. The instrument count k must be
    below n_obs.
    """
    replications = _check_replications(replications)
    _check_level(level)
    instrument_set = _check_instrument_set(instrument_set, config, "a coverage experiment")
    theta_set = implied_theta(config, beta, draws, instrument_set, kernel)
    theta = theta_set.evaluation_point
    # the instrument set's value is its column count k
    quantile = chi_square_quantile(int(instrument_set), level)

    def covers(errors: np.ndarray, instruments: np.ndarray) -> tuple[list, list]:
        objectives, notes, _, failures = _objective_rows(
            theta[None], errors, instruments, kernel)
        return ((objectives[:, 0] <= quantile).tolist(),
                _replication_failures(notes, failures))

    return _report(
        "coverage", config, instrument_set, replications, level,
        {
            "beta": _theta_array(beta).tolist(),
            "theta": theta.tolist(),
            "theta_set_kind": theta_set.kind.value,
        },
        *_run_replications(config, replications, beta, instrument_set, covers),
    )


@dataclass(frozen=True)
class GridCoverageReport:
    """Per-grid-point coverage rates (the triangle-figure experiment)."""

    resolution: int
    thetas: np.ndarray
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
    failure, counted by exception name, and left out of the rates. The
    instrument count k must be below n_obs.
    """
    replications = _check_replications(replications)
    _check_level(level)
    instrument_set = _check_instrument_set(instrument_set, config, "a coverage experiment")
    m = _check_resolution(m)
    thetas = simplex_grid(m)
    quantile = chi_square_quantile(int(instrument_set), level)

    def memberships(errors: np.ndarray, instruments: np.ndarray) -> tuple[list, list]:
        objectives, notes, _, failures = _objective_rows(
            thetas, errors, instruments, kernel)
        return list(objectives <= quantile), _replication_failures(notes, failures)

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
