import numpy as np
import pytest

from centest import ForecastDataset, forecast_errors, identification_values


def make_dataset(rng, t=80, k=2, skew=0.0, cluster=False):
    """Well-conditioned random dataset for invariance and identity tests."""
    x = rng.normal(1.0, 1.0, t)
    noise = rng.standard_normal(t)
    if skew:
        noise = noise + skew * (rng.standard_normal(t) ** 2 - 1.0)
    y = x + noise
    cols = [np.ones(t)]
    if k >= 2:
        cols.append(x)
    for j in range(k - 2):
        cols.append(rng.normal(0.0, 1.0, t))
    labels = rng.integers(0, max(2, t // 10), t) if cluster else None
    return ForecastDataset(
        realizations=y,
        forecasts=x,
        instruments=np.column_stack(cols),
        cluster_labels=labels,
    )


def _oracle_values(ds, delta, kernel):
    errors = forecast_errors(ds)
    return [identification_values("mean", errors),
            identification_values("median", errors),
            identification_values("mode", errors, delta, kernel)]


def weight_matrices(ds, delta, kernel=None):
    """One dataset's (3, k, k) weight matrices W_r = c_r G at bandwidth
    ``delta``, from the definition and independent of the package's
    kernels: G = [(1/T) sum h h']^{-1/2} from a plain eigendecomposition, and
    c_r = (k / tr(G M_r G))^{1/2} with M_r = (1/T) sum_t v_rt^2 h_t h_t'."""
    h = ds.instruments
    t, k = h.shape
    lam, q = np.linalg.eigh(h.T @ h / t)
    whitener = q @ np.diag(lam ** -0.5) @ q.T
    weights = []
    for v in _oracle_values(ds, delta, kernel):
        moment = (v ** 2 * h.T) @ h / t
        trace = np.trace(whitener @ moment @ whitener)
        assert trace > 0.0
        weights.append(np.sqrt(k / trace) * whitener)
    return np.array(weights)


def stacked_rows(ds, delta, kernel=None):
    """One dataset's (T, 3, k) weighted moment rows v_rt W_r h_t at bandwidth
    ``delta``, built observation by observation from weight_matrices."""
    weights = weight_matrices(ds, delta, kernel)
    values = _oracle_values(ds, delta, kernel)
    t, k = ds.instruments.shape
    rows = np.empty((t, 3, k))
    for i in range(t):
        for r in range(3):
            rows[i, r] = values[r][i] * (weights[r] @ ds.instruments[i])
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
