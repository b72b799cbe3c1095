import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from centest import (
    ForecastDataset,
    Functional,
    SingularMatrixError,
    confidence_set,
    forecast_errors,
    gaussian_kernel,
    gmm_objective,
    identification_values,
    mode_test,
    stacked_moments,
)
from centest.identification import _assemble_stacked, _identification_matrix

from conftest import make_dataset


class TestForecastDataset:
    def test_validation(self):
        with pytest.raises(ValueError):
            ForecastDataset([1.0], [1.0], [[1.0]])
        with pytest.raises(ValueError):
            ForecastDataset([1.0, 2.0], [1.0], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            ForecastDataset([1.0, np.nan], [1.0, 2.0], [[1.0], [1.0]])
        with pytest.raises(ValueError):
            ForecastDataset([1.0, 2.0], [1.0, 2.0], [[1.0], [1.0]],
                            cluster_labels=[0])

    def test_column_realizations_rejected_by_shape(self):
        # a (T, 1) column would otherwise be read as T rows of one value
        column = np.arange(500.0)[:, None]
        with pytest.raises(ValueError, match=r"realizations must be "
                           r"one-dimensional, got shape \(500, 1\)"):
            ForecastDataset(column, np.arange(500.0), np.ones(500))
        with pytest.raises(ValueError, match=r"forecasts must be "
                           r"one-dimensional, got shape \(500, 1\)"):
            ForecastDataset(np.arange(500.0), column, np.ones(500))

    def test_one_dim_instruments_promoted(self):
        ds = ForecastDataset([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], np.ones(3))
        assert ds.instruments.shape == (3, 1)
        assert ds.n_obs == 3 and ds.n_instruments == 1

    def test_frozen_with_read_only_views(self):
        y = np.array([1.0, 2.0, 3.0])
        labels = np.array([0, 0, 1])
        ds = ForecastDataset(y, y + 1.0, np.ones((3, 1)), cluster_labels=labels)
        with pytest.raises(AttributeError):
            ds.realizations = np.zeros(3)  # type: ignore[misc]
        for values in (ds.realizations, ds.forecasts, ds.instruments,
                       ds.cluster_labels):
            with pytest.raises(ValueError, match="read-only"):
                values[0] = 5.0
        # views, not copies: the caller's arrays are shared and stay writable
        assert np.shares_memory(ds.realizations, y)
        assert np.shares_memory(ds.cluster_labels, labels)
        y[0] = 7.0
        labels[0] = 4
        assert y.flags.writeable and labels.flags.writeable

    def test_equal_datasets_compare_equal(self):
        y = np.array([1.0, 2.0, 3.0])
        a = ForecastDataset(y, y + 1.0, np.ones((3, 1)), cluster_labels=[0, 0, 1])
        b = ForecastDataset(y.copy(), y + 1.0, np.ones(3), cluster_labels=[0, 0, 1])
        assert a == b and not a != b
        assert ForecastDataset(y, y, np.ones(3)) == ForecastDataset(y, y, np.ones(3))

    def test_unequal_datasets(self):
        y = np.array([1.0, 2.0, 3.0])
        base = ForecastDataset(y, y + 1.0, np.ones((3, 1)))
        assert base != ForecastDataset(y, y + 2.0, np.ones((3, 1)))
        assert base != ForecastDataset(y + 1.0, y + 1.0, np.ones((3, 1)))
        assert base != ForecastDataset(y, y + 1.0, np.column_stack([np.ones(3), y]))
        assert base != (y, y + 1.0, np.ones((3, 1)))

    def test_labels_present_on_one_side_only(self):
        y = np.array([1.0, 2.0, 3.0])
        bare = ForecastDataset(y, y + 1.0, np.ones((3, 1)))
        labelled = ForecastDataset(y, y + 1.0, np.ones((3, 1)),
                                   cluster_labels=[0, 0, 1])
        assert bare != labelled and labelled != bare
        assert labelled != ForecastDataset(y, y + 1.0, np.ones((3, 1)),
                                           cluster_labels=[0, 1, 1])

    def test_not_hashable(self):
        ds = ForecastDataset([1.0, 2.0], [1.0, 2.0], np.ones((2, 1)))
        assert ForecastDataset.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(ds)


class TestForecastErrors:
    def test_direct_subtraction(self):
        ds = ForecastDataset([5.0, 1.0], [2.0, 3.0], np.ones((2, 1)))
        assert np.array_equal(forecast_errors(ds), [-3.0, 2.0])

    def test_zero_when_equal(self):
        ds = ForecastDataset([4.0, 4.0], [4.0, 4.0], np.ones((2, 1)))
        assert np.array_equal(forecast_errors(ds), [0.0, 0.0])

    def test_translation_cancels(self):
        y = np.array([1.0, 2.0, 3.0])
        x = np.array([0.5, 2.5, 2.0])
        base = ForecastDataset(y, x, np.ones((3, 1)))
        shifted = ForecastDataset(y + 7.0, x + 7.0, np.ones((3, 1)))
        assert np.allclose(forecast_errors(base), forecast_errors(shifted))


class TestIdentificationValues:
    def test_median_sign_with_zero_tie(self):
        out = identification_values("median", [-3.0, 0.0, 2.0])
        assert np.array_equal(out, [-1.0, 0.0, 1.0])

    def test_mean_identity(self):
        out = identification_values("mean", [-3.0, 2.0])
        assert np.array_equal(out, [-3.0, 2.0])

    def test_mode_against_finite_difference(self):
        kernel = gaussian_kernel()
        out = identification_values("mode", [1.0], delta=1.0)
        # K'(-1) by central finite difference of K
        fd = (float(kernel.value_at(-1.0 + 1e-6)) -
              float(kernel.value_at(-1.0 - 1e-6))) / 2e-6
        assert out[0] == pytest.approx(fd, abs=1e-9)
        assert out[0] == pytest.approx(0.2419707, abs=5e-8)

    def test_mode_requires_bandwidth(self):
        with pytest.raises(ValueError):
            identification_values("mode", [1.0])
        with pytest.raises(ValueError):
            identification_values("mode", [1.0], delta=-0.5)

    def test_sign_alignment_all_functionals(self, rng):
        errors = np.concatenate([rng.standard_normal(200), [0.0]])
        for kind in Functional:
            delta = 0.7 if kind is Functional.MODE else None
            values = identification_values(kind, errors, delta=delta)
            assert np.array_equal(np.sign(values), np.sign(errors))

    @pytest.mark.parametrize("kind", ["mean", "median"])
    @pytest.mark.parametrize("options", [{"delta": 0.7}, {"delta": float("nan")},
                                         {"kernel": gaussian_kernel()}])
    def test_mode_options_rejected_for_mean_and_median(self, kind, options):
        with pytest.raises(ValueError, match=f"mode only, not the {kind}"):
            identification_values(kind, [1.0, -1.0], **options)

    @given(arrays(np.float64, st.integers(2, 30),
                  elements=st.floats(-1e6, 1e6)))
    @settings(max_examples=50, deadline=None)
    def test_median_values_in_three_point_set(self, errors):
        out = identification_values("median", errors)
        assert set(np.unique(out)).issubset({-1.0, 0.0, 1.0})

    def test_mode_bound(self, rng):
        kernel = gaussian_kernel()
        delta = 0.3
        errors = rng.standard_normal(500)
        values = identification_values("mode", errors, delta=delta)
        sup_kprime = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        # the sup itself sits at |u| = 1; confirm by finite difference
        fd = (float(kernel.value_at(1.0 + 1e-6)) -
              float(kernel.value_at(1.0 - 1e-6))) / 2e-6
        assert abs(fd) == pytest.approx(sup_kprime, abs=1e-9)
        assert np.all(np.abs(values) <= delta ** -0.5 * sup_kprime + 1e-15)


class TestWeightingMatrices:
    def test_unit_mean_row(self):
        ds = ForecastDataset([0.0, 0.0], [1.0, -1.0], np.ones((2, 1)))
        w = stacked_moments(ds, delta=1.0).weight_matrices
        # M_mean = (1/2)(1 + 1) = 1
        assert w[0] == pytest.approx(np.array([[1.0]]))

    def test_median_row_always_unit_without_zeros(self, rng):
        errors = rng.standard_normal(50) + 0.3
        ds = ForecastDataset(np.zeros(50), errors, np.ones((50, 1)))
        w = stacked_moments(ds, delta=0.5).weight_matrices
        assert w[1] == pytest.approx(np.array([[1.0]]), abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, -1.0, None])
    def test_nonpositive_bandwidth_rejected(self, rng, delta):
        import warnings

        ds = make_dataset(rng, t=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode values need a positive "
                               f"bandwidth, got {delta}"):
                stacked_moments(ds, delta)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda ds, d: stacked_moments(ds, d),
        lambda ds, d: identification_values("mode", forecast_errors(ds), d),
        lambda ds, d: mode_test(ds, delta=d),
        lambda ds, d: confidence_set(ds, m=2, delta=d),
        lambda ds, d: gmm_objective([0.0, 0.0, 1.0], ds, delta=d),
    ], ids=["stacked_moments", "identification_values",
            "mode_test", "confidence_set", "gmm_objective"])
    def test_bandwidth_must_be_positive_and_finite(self, rng, call, delta):
        import warnings

        ds = make_dataset(rng, t=20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode values need a positive "
                               f"bandwidth, got {delta}"):
                call(ds, delta)

    def test_zero_errors_singular_names_mean(self):
        ds = ForecastDataset([1.0, 2.0], [1.0, 2.0], np.ones((2, 1)))
        with pytest.raises(SingularMatrixError, match="mean"):
            stacked_moments(ds, delta=1.0)

    def test_normalization_trace_identity(self, rng):
        # every weighted row has average second moment exactly one
        ds = make_dataset(rng, t=300, k=3, skew=0.4)
        delta = 0.6
        stacked = stacked_moments(ds, delta)
        for r in range(3):
            rows = stacked.per_obs[:, r, :]
            second_moment = rows.T @ rows / ds.n_obs
            assert np.trace(second_moment) == pytest.approx(3.0, abs=1e-10)

    def test_normalization_full_identity_scalar_instrument(self, rng):
        # with k = 1 the scalar weight is the exact inverse square root
        errors = rng.standard_normal(200) + 0.2
        ds = ForecastDataset(np.zeros(200), errors, np.ones((200, 1)))
        stacked = stacked_moments(ds, delta=0.5)
        for r in range(3):
            rows = stacked.per_obs[:, r, :]
            assert rows.T @ rows / 200 == pytest.approx(np.eye(1), abs=1e-12)


class TestStackedMoments:
    def test_single_observation_rows_identity_weights(self):
        # eps = 1, h = 1, delta = 1: rows (1, 1, K'(-1))
        values = _identification_matrix(np.array([1.0]), 1.0, gaussian_kernel())
        per_obs = _assemble_stacked(values, np.ones((1, 1)), np.eye(1)[None].repeat(3, 0))
        assert per_obs.shape == (1, 3, 1)
        assert per_obs[0, 0, 0] == 1.0
        assert per_obs[0, 1, 0] == 1.0
        assert per_obs[0, 2, 0] == pytest.approx(0.2419707, abs=5e-8)

    def test_balanced_signs_cancel_in_median_row(self):
        ds = ForecastDataset(np.zeros(4), [1.0, -1.0, 2.0, -2.0], np.ones((4, 1)))
        stacked = stacked_moments(ds, delta=1.0)
        assert stacked.row("median").sum() == pytest.approx(0.0, abs=1e-12)

    def test_error_sign_flip_flips_every_row(self, rng):
        t = 60
        x = rng.normal(0.0, 1.0, t)
        noise = rng.standard_normal(t)
        h = np.column_stack([np.ones(t), rng.normal(1.0, 1.0, t)])
        plus = ForecastDataset(x - noise, x, h)
        minus = ForecastDataset(x + noise, x, h)
        delta = 0.8
        stacked_plus = stacked_moments(plus, delta)
        stacked_minus = stacked_moments(minus, delta)
        assert np.allclose(stacked_plus.per_obs, -stacked_minus.per_obs, atol=1e-12)

    def test_row_accessor_and_shape(self, rng):
        ds = make_dataset(rng, t=40, k=2)
        stacked = stacked_moments(ds, delta=0.9)
        assert stacked.per_obs.shape == (40, 3, 2)
        assert stacked.n_obs == 40 and stacked.n_instruments == 2
        assert stacked.bandwidth == 0.9
        assert np.array_equal(stacked.row("mode"), stacked.per_obs[:, 2, :])

    def test_nonpositive_bandwidth_rejected(self, rng):
        ds = make_dataset(rng, t=20)
        with pytest.raises(ValueError):
            stacked_moments(ds, delta=0.0)
