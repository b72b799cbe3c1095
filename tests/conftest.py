import numpy as np
import pytest

from centest import ForecastDataset, forecast_errors
from centest.identification import _assemble_stacked, _weighted_block


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


def stacked_rows(ds, delta, kernel=None):
    """One dataset's (T, 3, k) stacked moment rows and (3, k, k) weight
    matrices at bandwidth ``delta``, from the block kernels on a block of
    one; the dataset must not fail."""
    (values,), (weights,), _, failures = _weighted_block(
        forecast_errors(ds)[None], ds.instruments[None], kernel, delta)
    assert failures == [None]
    return _assemble_stacked(values, ds.instruments, weights), weights


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
