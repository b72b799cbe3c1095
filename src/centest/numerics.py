"""Kernels, chi-square tail functions, the eigenvalue-floor check,
smoothed-objective minimization, scalar root and minimum searches, and
seeded random streams.

Everything here is a pure function of its inputs and safe to call from any
number of workers. Quadrature follows an adaptive Gauss-Kronrod scheme
(scipy's QUADPACK) with absolute tolerance 1e-10; Gaussian-kernel integrals
are truncated to [-10, 10], where the neglected tail mass is below 1e-22.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy import special

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


def chi_square_sf(df: int, x):
    """Survival function P(chi2_df > x) via the regularized upper incomplete
    gamma function.

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
    p = special.gammaincc(df / 2.0, values / 2.0)
    return float(p) if values.ndim == 0 else p


def chi_square_quantile(df: int, p: float) -> float:
    """Quantile Q_df(p): the x with chi_square_sf(df, x) = 1 - p."""
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"probability must lie in (0, 1), got {p}")
    return float(2.0 * special.gammainccinv(df / 2.0, 1.0 - p))


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

    Evaluates x -> -(1/delta) * int K((x - y)/delta) f(y) dy by adaptive
    quadrature on a coarse grid over ``support`` and refines the best bracket
    by golden-section search. Converges to the density's mode as delta -> 0;
    used as a validation instrument for that limit.

    Raises ValueError if ``density`` does not integrate to 1 on ``support``
    within 1e-6, or if delta <= 0.
    """
    # deferred: slow to import, and only this validation helper uses it
    from scipy import integrate

    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    kernel = kernel or _GAUSSIAN
    lo, hi = support
    mass, _ = integrate.quad(density, lo, hi, epsabs=1e-10, limit=200)
    if abs(mass - 1.0) > 1e-6:
        raise ValueError(f"density mass on support is {mass:.8f}, not 1")

    def objective(x: float) -> float:
        val, _ = integrate.quad(
            lambda y: float(kernel.value_at((x - y) / delta)) * density(y),
            lo, hi, epsabs=1e-10, limit=200,
        )
        return -val / delta

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
