"""Kernels, chi-square tail functions, the normal CDF and Owen's T, the
eigenvalue-floor check, smoothed-objective minimization, scalar root and
minimum searches, and seeded random streams.

Everything here is a pure function of its inputs and safe to call from any
number of workers, and needs numpy alone. Integrals use fixed Gauss-Legendre
rules: 48 nodes for Owen's T, and 400 panels of 16 nodes for the smoothed
density of generalized_modal_midpoint. Gaussian-kernel integrals are
truncated to [-10, 10], where the neglected tail mass is below 1e-22.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

# Relative eigenvalue floor for SPD inversion. No silent ridge regularization:
# callers see SingularMatrixError and must fix their data or opt in themselves.
RELATIVE_EIG_FLOOR = 1e-10

# Truncation interval for integrals against the Gaussian kernel.
GAUSSIAN_SUPPORT = (-10.0, 10.0)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class Kernel:
    """A continuously differentiable kernel: K, K', and the closed-form
    integral of K'(u)^2 over the real line, which acceptance criterion 10
    checks against quadrature (the mode test's covariance is the sample
    outer product and does not read it)."""

    value_at: Callable[[np.ndarray], np.ndarray]
    deriv_at: Callable[[np.ndarray], np.ndarray]
    deriv_sq_integral: float
    support: tuple[float, float]


def _gaussian_value(u):
    u = np.asarray(u, dtype=float)
    return np.exp(-0.5 * u * u) / _SQRT_2PI


def _gaussian_deriv(u):
    u = np.asarray(u, dtype=float)
    return -u * np.exp(-0.5 * u * u) / _SQRT_2PI


def _biweight_value(u):
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    return np.where(inside, (15.0 / 16.0) * (1.0 - u * u) ** 2, 0.0)


def _biweight_deriv(u):
    u = np.asarray(u, dtype=float)
    inside = np.abs(u) <= 1.0
    return np.where(inside, -(15.0 / 4.0) * u * (1.0 - u * u), 0.0)


# int K'(u)^2 du: Gaussian 1/(4*sqrt(pi)); biweight 15/7. Both are re-derived
# by quadrature in the test suite.
_GAUSSIAN = Kernel(
    value_at=_gaussian_value,
    deriv_at=_gaussian_deriv,
    deriv_sq_integral=0.25 / np.sqrt(np.pi),
    support=GAUSSIAN_SUPPORT,
)

_BIWEIGHT = Kernel(
    value_at=_biweight_value,
    deriv_at=_biweight_deriv,
    deriv_sq_integral=15.0 / 7.0,
    support=(-1.0, 1.0),
)


# The kernels by name: get_kernel and every --kernel option read this table.
# The Gaussian is the default, because strict identification of the smoothed
# mode needs unbounded support; the biweight is offered for comparison only.
KERNELS = {"gaussian": _GAUSSIAN, "biweight": _BIWEIGHT}


def get_kernel(name: str) -> Kernel:
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choose from {', '.join(KERNELS)}")
    return KERNELS[name]


# cephes' MAXLOG, ln of the largest double: its erfc and incomplete gamma
# function return 0 below -MAXLOG
_MAXLOG = 7.09782712893383996843e2


def _chi_square_tail(df: int, x: float) -> float:
    """P(chi2_df > x) for one Python float x >= 0 or NaN (A&S 26.4.4-5).

    With a = df/2 and h = x/2: for even df, e^-h sum_{j<a} h^j / j!; for odd
    df, erfc(sqrt h) plus e^-h sum_{j<a, j half-integer} h^j / Gamma(j + 1).
    """
    if x != x or x == 0.0:
        return 1.0 if x == 0.0 else x
    if x == math.inf:
        return 0.0
    a, h = 0.5 * df, 0.5 * x
    head, first = (math.erfc(math.sqrt(h)), 0.5) if df % 2 else (0.0, 0.0)
    last = a - 1.0  # the sum runs over j = first, first + 1, ..., last
    if h <= 700.0:
        if last < first:
            return head
        term = 1.0 if first == 0.0 else 2.0 * math.sqrt(h / math.pi)
        total = term
        j = first + 1.0
        while j <= last:
            term *= h / j
            total += term
            j += 1.0
        return head + math.exp(-h) * total
    # 0 exactly where scipy's gammaincc is: in its continued-fraction branch
    # (h > 1.1 and h > 1.4 a) when a ln h - h - lgamma(a) < -MAXLOG. That
    # exponent exceeds -h - 1 there, so the cut needs h > 708.
    if h > 1.4 * a and a * math.log(h) - h - math.lgamma(a) < -_MAXLOG:
        return 0.0
    if last < first:
        return head
    # e^-h is near or below the smallest normal double: start from the
    # largest term, found in logs, and recur down and up from it, so that
    # no partial product overflows or loses its digits
    peak = min(last, first + math.floor(h - first))
    top = math.exp(peak * math.log(h) - h - math.lgamma(peak + 1.0))
    total, term, j = top, top, peak
    while j > first:
        term *= j / h
        total += term
        j -= 1.0
    term, j = top, peak + 1.0
    while j <= last:
        term *= h / j
        total += term
        j += 1.0
    return head + total


def _map_floats(f: Callable[[float], float], x):
    """f of each element of x, called on Python floats: a float for a scalar
    or 0-d x, else an array of x's shape."""
    values = np.asarray(x, dtype=float)
    if values.ndim == 0:
        return f(float(values))
    out = [f(v) for v in values.ravel().tolist()]
    return np.array(out, dtype=float).reshape(values.shape)


def chi_square_sf(df: int, x):
    """Survival function P(chi2_df > x) from its closed form for integer df
    (Abramowitz & Stegun 26.4.4-5), evaluated one Python float at a time.

    It agrees with scipy's gammaincc(df/2, x/2) within 1e-12 relative for
    values in the normal range, and has the same exact zeros. The cost is
    O(df) per point, so callers bound df (a scan's df is below its n_obs).

    Parameters
    ----------
    df : int
        Degrees of freedom, at least 1.
    x : float or array
        Evaluation points, nonnegative; NaN gives NaN. A float gives a float,
        an array an array of the same shape, equal element by element to the
        float calls.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    values = np.asarray(x, dtype=float)
    if np.any(values < 0):
        first = x if values.ndim == 0 else values[values < 0][0]
        raise ValueError(f"chi-square statistic must be >= 0, got {first}")
    return _map_floats(lambda v: _chi_square_tail(df, v), values)


def chi_square_quantile(df: int, p: float) -> float:
    """Quantile Q_df(p): the x with chi_square_sf(df, x) = 1 - p, found by
    _brentq on the closed-form tail to a relative 4 eps. For p in
    [0.001, 0.999] it agrees with scipy's 2 gammainccinv(df/2, 1 - p) within
    1e-13 relative; below that both lose digits to the rounding of 1 - p."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    q = 1.0 - p
    hi = float(df)
    while _chi_square_tail(df, hi) > q:
        hi *= 2.0
    return _brentq(lambda x: _chi_square_tail(df, x) - q, 0.0, hi, 1e-300)


# scipy's cephes ndtr, erf and erfc, coefficient for coefficient and in
# its order of operations, so that _ndtr is special.ndtr to the last bit
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1,
           7.46321056442269912687e0, 4.86371970985681366614e1,
           1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3,
           5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1,
           3.54937778887819891062e2, 9.75708501743205489753e2,
           1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0,
           5.01905042251180477414e0, 6.16021097993053585195e0,
           7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0,
           1.20489539808096656605e1, 1.70814450747565897222e1,
           9.60896809063285878198e0, 3.36907645100081516414e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1,
          2.23200534594684319226e3, 7.00332514112805075473e3,
          5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2,
          4.59432382970980127987e3, 2.26290000613890934246e4,
          4.92673942608635921086e4)
_SQRT1_2 = 7.07106781186547524401e-1


def _polevl(x: float, coefs: tuple) -> float:
    value = coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _p1evl(x: float, coefs: tuple) -> float:
    """_polevl with a leading coefficient of 1 left out of ``coefs``."""
    value = x + coefs[0]
    for c in coefs[1:]:
        value = value * x + c
    return value


def _erf(x: float) -> float:
    if x < 0.0:
        return -_erf(-x)
    if x > 1.0:
        return 1.0 - _erfc(x)
    z = x * x
    return x * _polevl(z, _ERF_T) / _p1evl(z, _ERF_U)


def _erfc(a: float) -> float:
    x = abs(a)
    if x < 1.0:
        return 1.0 - _erf(a)
    z = -a * a
    y = 0.0
    if z >= -_MAXLOG:
        z = math.exp(z)  # libm's exp, as cephes calls; np.exp rounds otherwise
        if x < 8.0:
            y = z * _polevl(x, _ERFC_P) / _p1evl(x, _ERFC_Q)
        else:
            y = z * _polevl(x, _ERFC_R) / _p1evl(x, _ERFC_S)
        if a < 0.0:
            y = 2.0 - y
    if y != 0.0:
        return y
    return 2.0 if a < 0.0 else 0.0  # underflow


def _ndtr(a: float) -> float:
    """Standard normal CDF of one Python float: scipy.special.ndtr's bits."""
    if a != a:
        return a
    x = a * _SQRT1_2
    z = abs(x)
    if z < _SQRT1_2:
        return 0.5 + 0.5 * _erf(x)
    y = 0.5 * _erfc(z)
    return 1.0 - y if x > 0.0 else y


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    from numpy.polynomial.legendre import leggauss  # a few ms; only these rules use it

    return leggauss(n)


def _owens_t(h: float, a: float) -> float:
    """Owen's T(h, a) = (1/2pi) int_0^a exp(-h^2 (1 + x^2) / 2) / (1 + x^2) dx
    of Python floats: a 48-node Gauss-Legendre sum for |a| <= 1, and for
    |a| > 1 Owen's (1956) identity T(h, a) = [Phi(h) (1 - Phi(ah)) +
    Phi(ah) (1 - Phi(h))] / 2 - T(ah, 1/a), h >= 0. T is even in h and odd
    in a. It is within about 2e-16 absolute of scipy's owens_t over
    |h| <= 8 and |a| in [e^-5, e^5]."""
    h = abs(h)
    if a < 0.0:
        return -_owens_t(h, -a)
    if a > 1.0:
        ah = a * h
        return (0.5 * (_ndtr(h) * _ndtr(-ah) + _ndtr(ah) * _ndtr(-h))
                - _owens_t(ah, 1.0 / a))
    nodes, weights = _gauss_legendre(48)
    half = 0.5 * a
    x = half * (1.0 + nodes)
    q = 1.0 + x * x
    return half * float(weights @ (np.exp(-0.5 * h * h * q) / q)) / (2.0 * math.pi)


def floored_eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Eigendecomposition of the symmetric part of one (k, k) matrix or of a
    stack (n, k, k), with the relative eigenvalue floor applied to each.

    Returns the ascending eigenvalues, the eigenvectors (as columns) and, per
    matrix, None when it passes the floor or else the SingularMatrixError
    message. A matrix fails when its smallest eigenvalue is at or below
    RELATIVE_EIG_FLOOR times its largest, or its largest is not positive.
    """
    lam, q = np.linalg.eigh(0.5 * (m + np.swapaxes(m, -1, -2)))
    spectra = lam.reshape(-1, lam.shape[-1])
    notes = [
        f"eigenvalue {lo:.6e} below relative floor {RELATIVE_EIG_FLOOR:g} * {hi:.6e}"
        if lo <= RELATIVE_EIG_FLOOR * hi or hi <= 0.0 else None
        for lo, hi in zip(spectra[:, 0].tolist(), spectra[:, -1].tolist())
    ]
    return lam, q, notes


def generalized_modal_midpoint(
    density: Callable[[float], float],
    delta: float,
    kernel: Kernel | None = None,
    support: tuple[float, float] = (-10.0, 10.0),
    grid_points: int = 121,
) -> float:
    """Minimizer of the kernel-smoothed negative density.

    Evaluates x -> -(1/delta) * int K((x - y)/delta) f(y) dy on a coarse grid
    over ``support`` and refines the best bracket by golden-section search.
    The integral is a fixed composite Gauss-Legendre rule, 400 panels of 16
    nodes over ``support``, which reads the density once at its nodes.
    Converges to the density's mode as delta -> 0; used as a validation
    instrument for that limit.

    Raises ValueError if ``density`` does not integrate to 1 on ``support``
    within 1e-6, or if delta <= 0.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    kernel = kernel or _GAUSSIAN
    lo, hi = support
    nodes, weights = _gauss_legendre(16)
    width = (hi - lo) / 400
    y = (lo + width * (np.arange(400)[:, None] + 0.5 * (1.0 + nodes))).ravel()
    weighted = np.tile(0.5 * width * weights, 400) * [density(v) for v in y.tolist()]
    mass = float(weighted.sum())
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass on support is {mass:.8f}, not 1")

    def objective(x: float) -> float:
        return -float(weighted @ kernel.value_at((x - y) / delta)) / delta

    grid = np.linspace(lo, hi, grid_points)
    values = np.array([objective(x) for x in grid])
    i = int(np.argmin(values))
    if i == 0 or i == len(grid) - 1:
        raise ValueError("smoothed objective is minimized on the support boundary")
    return _golden(objective, grid[i - 1], grid[i], grid[i + 1], 1e-10)


def _brentq(f: Callable[[float], float], xa: float, xb: float, xtol: float) -> float:
    """A root of f in [xa, xb], where f changes sign: scipy.optimize.brentq's
    C loop with its default rtol (4 eps) and maxiter (100), step for step,
    so the same root to the last bit."""
    rtol = 4.0 * np.finfo(float).eps
    xpre, xcur = float(xa), float(xb)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return float(xcur)
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise RuntimeError("root search did not converge in 100 iterations")


def _golden(f: Callable[[float], float], xa: float, xb: float, xc: float,
            xtol: float) -> float:
    """The minimizer of f inside the bracket xa < xb < xc, f(xb) below both
    ends: scipy.optimize.minimize_scalar(method="golden")'s loop with its
    maxiter (5000), step for step, so the same point to the last bit."""
    gr = 0.61803399
    gc = 1.0 - gr
    x0, x3 = xa, xc
    if abs(xc - xb) > abs(xb - xa):
        x1, x2 = xb, xb + gc * (xc - xb)
    else:
        x1, x2 = xb - gc * (xb - xa), xb
    f1, f2 = f(x1), f(x2)
    for _ in range(5000):
        if abs(x3 - x0) <= xtol * (abs(x1) + abs(x2)):
            break
        if f2 < f1:
            x0, x1 = x1, x2
            x2 = gr * x1 + gc * x3
            f1, f2 = f2, f(x2)
        else:
            x3, x2 = x2, x1
            x1 = gr * x2 + gc * x0
            f2, f1 = f1, f(x1)
    return float(x1 if f1 < f2 else x2)


@dataclass(frozen=True)
class RandomStream:
    """Descriptor of a deterministic random substream.

    The generator is counter-based Philox keyed by (seed, stream_id), so equal
    descriptors reproduce bit-identical draw sequences and distinct stream ids
    give statistically independent substreams. Immutable: each replication
    is keyed by its own stream id.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # Philox keys are two uint64 words; reducing out-of-range values
        # would give different descriptors the same draws.
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not 0 <= value < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2**64), got {value}")

    def generator(self) -> np.random.Generator:
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def standard_normal_rows(streams: Sequence[RandomStream], n: int) -> np.ndarray:
    """The first n standard normals of each stream, one row per stream.

    Row j is bitwise ``streams[j].generator().standard_normal(n)``. One Philox
    serves the whole block: before each row it is re-keyed through its
    ``state`` with the counter at zero and the output buffer empty, which is
    exactly the state of a freshly keyed Philox.
    """
    bit_generator = np.random.Philox(key=0)
    fresh = bit_generator.state
    rng = np.random.Generator(bit_generator)
    out = np.empty((len(streams), n))
    for row, stream in zip(out, streams):
        fresh["state"]["key"] = np.array([stream.seed, stream.stream_id],
                                         dtype=np.uint64)
        bit_generator.state = fresh
        rng.standard_normal(out=row)
    return out
