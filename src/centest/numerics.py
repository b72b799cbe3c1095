"""Kernels, chi-square tail functions, the eigenvalue-floor check,
smoothed-objective minimization, and seeded random streams.

Everything here is a pure function of its inputs and safe to call from any
number of workers. Quadrature follows an adaptive Gauss-Kronrod scheme
(scipy's QUADPACK) with absolute tolerance 1e-10; Gaussian-kernel integrals
are truncated to [-10, 10], where the neglected tail mass is below 1e-22.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy import integrate, optimize, special

# Relative eigenvalue floor for SPD inversion. No silent ridge regularization:
# callers see SingularMatrixError and must fix their data or opt in themselves.
RELATIVE_EIG_FLOOR = 1e-10

# Truncation interval for integrals against the Gaussian kernel.
GAUSSIAN_SUPPORT = (-10.0, 10.0)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


class KernelKind(str, Enum):
    GAUSSIAN = "gaussian"
    BIWEIGHT = "biweight"


@dataclass(frozen=True)
class Kernel:
    """A continuously differentiable kernel: K, K', and the cached integral
    of K'(u)^2 that enters the mode-test covariance."""

    kind: KernelKind
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
    kind=KernelKind.GAUSSIAN,
    value_at=_gaussian_value,
    deriv_at=_gaussian_deriv,
    deriv_sq_integral=0.25 / np.sqrt(np.pi),
    support=GAUSSIAN_SUPPORT,
)

_BIWEIGHT = Kernel(
    kind=KernelKind.BIWEIGHT,
    value_at=_biweight_value,
    deriv_at=_biweight_deriv,
    deriv_sq_integral=15.0 / 7.0,
    support=(-1.0, 1.0),
)


def gaussian_kernel() -> Kernel:
    """The standard normal density kernel (the default everywhere: strict
    identification of the smoothed mode needs unbounded support)."""
    return _GAUSSIAN


def biweight_kernel() -> Kernel:
    """The biweight (quartic) kernel, offered for comparison only."""
    return _BIWEIGHT


def get_kernel(kind: KernelKind | str) -> Kernel:
    kind = KernelKind(kind)
    return _GAUSSIAN if kind is KernelKind.GAUSSIAN else _BIWEIGHT


def kernel_deriv_sq_integral(kernel: Kernel) -> float:
    """Return the cached integral of K'(u)^2 over the real line."""
    return kernel.deriv_sq_integral


def chi_square_sf(df: int, x: float) -> float:
    """Survival function P(chi2_df > x) via the regularized upper incomplete
    gamma function.

    Parameters
    ----------
    df : int
        Degrees of freedom, at least 1.
    x : float
        Evaluation point, nonnegative.
    """
    if df < 1:
        raise ValueError(f"degrees of freedom must be >= 1, got {df}")
    if x < 0:
        raise ValueError(f"chi-square statistic must be >= 0, got {x}")
    return float(special.gammaincc(df / 2.0, x / 2.0))


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
    res = optimize.minimize_scalar(
        objective,
        bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="golden",
        options={"xtol": 1e-10},
    )
    return float(res.x)


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
