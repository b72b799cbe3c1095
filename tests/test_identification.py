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
    get_kernel,
    gmm_objective,
    identification_values,
    instrument_moment_test,
    mode_test,
)
from centest.central_tendency import _objective_rows, sigma_hat
from centest.identification import (
    _GRAM_ROWS,
    _check_bandwidth,
    _identification_matrix,
    _moment_gram,
    _one_block,
    _row_scales,
    _scales,
    _wave_sums,
    _whiten,
)

from conftest import make_dataset


def kernel_rows(ds, delta, kernel=None):
    """One dataset's (T, 3, k) weighted rows c_r v_rt h_t G and its (3,) row
    scales c_r, from the kernel's whitener and row scales on a block of one;
    the dataset must not fail."""
    values = _identification_matrix(forecast_errors(ds), delta, kernel)[None]
    whitened, singular = _whiten(_one_block(ds)[1])
    scales, unscaled = _row_scales(values, whitened)
    assert singular == unscaled == [None]
    rows = scales[0][:, None, None] * values[0][:, :, None] * whitened[0].T
    return np.swapaxes(rows, 0, 1), scales[0]


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

    def test_instruments_other_than_a_matrix_rejected_by_shape(self):
        y = np.arange(5.0)
        with pytest.raises(ValueError, match=r"instruments must have shape \(T, k\) "
                           r"with T = 2, got shape \(5, 2, 1\)"):
            ForecastDataset(y[:2], y[:2], np.ones((5, 2, 1)))
        # a (1, T) row is not read as a column
        with pytest.raises(ValueError, match=r"instruments must have shape \(T, k\) "
                           r"with T = 5, got shape \(1, 5\)"):
            ForecastDataset(y, y, np.ones((1, 5)))

    def test_column_cluster_labels_rejected_by_shape(self):
        y = np.arange(5.0)
        with pytest.raises(ValueError, match=r"cluster labels must be "
                           r"one-dimensional, got shape \(5, 1\)"):
            ForecastDataset(y, y, np.ones(5), cluster_labels=np.zeros((5, 1), int))

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
        kernel = get_kernel("gaussian")
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
                                         {"kernel": get_kernel("gaussian")}])
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
        kernel = get_kernel("gaussian")
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
        # h = 1, so G = 1 and the weight c_r G is the row scale
        ds = ForecastDataset([0.0, 0.0], [1.0, -1.0], np.ones((2, 1)))
        _, scales = kernel_rows(ds, delta=1.0)
        # M_mean = (1/2)(1 + 1) = 1
        assert scales[0] == pytest.approx(1.0)

    def test_median_row_always_unit_without_zeros(self, rng):
        errors = rng.standard_normal(50) + 0.3
        ds = ForecastDataset(np.zeros(50), errors, np.ones((50, 1)))
        _, scales = kernel_rows(ds, delta=0.5)
        assert scales[1] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("delta", [0.0, -1.0, None])
    def test_nonpositive_bandwidth_rejected(self, delta):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="mode values need a positive "
                               f"bandwidth, got {delta}"):
                _check_bandwidth(delta)

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), 0.0, -1.0])
    @pytest.mark.parametrize("call", [
        lambda ds, d: _check_bandwidth(d),
        lambda ds, d: identification_values("mode", forecast_errors(ds), d),
        lambda ds, d: mode_test(ds, delta=d),
        lambda ds, d: confidence_set(ds, m=2, delta=d),
        lambda ds, d: gmm_objective([0.0, 0.0, 1.0], ds, delta=d),
    ], ids=["check_bandwidth", "identification_values",
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
        *_, (failure,) = _objective_rows(
            np.eye(3), *_one_block(ds), None, 1.0)
        assert isinstance(failure, SingularMatrixError)
        assert "mean" in str(failure)

    def test_normalization_trace_identity(self, rng):
        # every weighted row has average second moment exactly one
        ds = make_dataset(rng, t=300, k=3, skew=0.4)
        per_obs, _ = kernel_rows(ds, delta=0.6)
        for r in range(3):
            rows = per_obs[:, r, :]
            second_moment = rows.T @ rows / ds.n_obs
            assert np.trace(second_moment) == pytest.approx(3.0, abs=1e-10)

    def test_normalization_full_identity_scalar_instrument(self, rng):
        # with k = 1 the scalar weight is the exact inverse square root
        errors = rng.standard_normal(200) + 0.2
        ds = ForecastDataset(np.zeros(200), errors, np.ones((200, 1)))
        per_obs, _ = kernel_rows(ds, delta=0.5)
        for r in range(3):
            rows = per_obs[:, r, :]
            assert rows.T @ rows / 200 == pytest.approx(np.eye(1), abs=1e-12)


class TestRowScaleFloor:
    """The row-scale floor is relative to the row's own mean square, so a
    test and S_T at its vertex pass or fail it together in any error unit."""

    @staticmethod
    def dataset(unit):
        # T = 200, k = 2, skewed errors of order ``unit``
        rng = np.random.default_rng(5)
        t = 200
        y = rng.standard_normal(t)
        errors = rng.standard_normal(t) + 0.3 * rng.standard_normal(t) ** 2
        return ForecastDataset(y, y + unit * errors, np.column_stack([np.ones(t), y]))

    @staticmethod
    def outcomes(ds, functional):
        """The single test's J, gmm_objective at the vertex and the m = 1
        scan's vertex objective, or each call's exception."""
        vertex = tuple(float(f is functional) for f in Functional)
        calls = (
            lambda: (mode_test(ds) if functional is Functional.MODE
                     else instrument_moment_test(functional, ds)).statistic,
            lambda: gmm_objective(vertex, ds),
            lambda: next(p.objective for p in confidence_set(ds, m=1).points
                         if p.theta == vertex),
        )
        results = []
        for call in calls:
            try:
                results.append(call())
            except SingularMatrixError as exc:
                results.append(exc)
        return results

    def test_small_units_agree_at_the_mean_vertex(self):
        j, s, vertex = self.outcomes(self.dataset(1e-6), Functional.MEAN)
        assert abs(s - j) <= 1e-12 * j
        assert abs(vertex - j) <= 1e-12 * j

    @pytest.mark.parametrize("functional", list(Functional))
    def test_every_unit_passes_or_fails_on_both_paths(self, functional):
        for unit in 10.0 ** np.arange(-8, 9):
            j, *objectives = self.outcomes(self.dataset(unit), functional)
            for s in objectives:
                if isinstance(j, Exception) or isinstance(s, Exception):
                    assert type(j) is type(s), (unit, j, s)
                else:
                    assert abs(s - j) <= 1e-12 * j, (unit, j, s)

    def test_zero_and_non_finite_rows_fail(self):
        # tr_r / k against RELATIVE_EIG_FLOOR (1e-10) times the mean square
        scales = np.array([[1e-13, 1.0, 1.0], [1.0, 1e-22, 1.0], [1.0, 1.0, 0.0],
                           [np.nan, 1.0, 1.0], [1.0, np.inf, 1.0]])
        squares = np.array([[1e-12, 1.0, 1.0], [1.0, 1e-11, 1.0], [1.0, 1.0, 0.0],
                            [1.0, 1.0, 1.0], [1.0, np.inf, 1.0]])
        c, failures = _scales(scales, squares, 2)
        assert failures[0] is None
        assert c[0] == pytest.approx([10 ** 6.5, 1.0, 1.0])
        rows = ["median", "mode", "mean", "median"]
        traces = ["2.000000e-22", "0.000000e+00", "nan", "inf"]
        for failure, row, trace in zip(failures[1:], rows, traces):
            assert isinstance(failure, SingularMatrixError)
            assert str(failure) == (f"second-moment matrix for the {row} row is "
                                    f"singular (whitened trace {trace})")
        assert np.all(c[1:][~np.isfinite(scales[1:])] == 1.0)


class TestStackedMoments:
    def test_single_observation_rows_identity_weights(self):
        # eps = 1, h = 1, delta = 1: rows (1, 1, K'(-1)), which g and the
        # Gram of one observation hold as they are
        values = _identification_matrix(np.array([1.0]), 1.0, get_kernel("gaussian"))
        g, gram = _moment_gram(values[None], np.ones((1, 1, 1)))
        assert g.shape == (1, 3, 1) and gram.shape == (1, 3, 1, 3, 1)
        assert g[0, 0, 0] == 1.0
        assert g[0, 1, 0] == 1.0
        assert g[0, 2, 0] == pytest.approx(0.2419707, abs=5e-8)
        assert np.array_equal(gram[0, :, 0, :, 0], np.outer(g[0, :, 0], g[0, :, 0]))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("b", [1, 31, 32, 33, 129])
    def test_sliced_gram_is_the_single_product(self, rng, b, n, k):
        # R is formed for _GRAM_ROWS datasets at a time: g and the Gram are,
        # bit for bit, those of the whole (B, nk, T) product, and each
        # dataset's are those of its own one-dataset call
        assert _GRAM_ROWS == 32
        t = 97
        values = rng.standard_normal((b, n, t)) * 10.0 ** rng.integers(-3, 4, (b, n, 1))
        whitened = rng.standard_normal((b, k, t))
        columns = (values[:, :, None, :] * whitened[:, None]).reshape(b, n * k, t)
        want_g = (columns @ np.ones(t)).reshape(b, n, k) / np.sqrt(t)
        want_gram = (columns @ np.swapaxes(columns, 1, 2) / t).reshape(b, n, k, n, k)
        g, gram = _moment_gram(values, whitened)
        assert g.tobytes() == want_g.tobytes()
        assert gram.tobytes() == want_gram.tobytes()
        for i in sorted({0, b // 2, b - 1}):
            one_g, one_gram = _moment_gram(values[i:i + 1], whitened[i:i + 1])
            assert one_g.tobytes() == g[i:i + 1].tobytes()
            assert one_gram.tobytes() == gram[i:i + 1].tobytes()

    def test_balanced_signs_cancel_in_median_row(self):
        ds = ForecastDataset(np.zeros(4), [1.0, -1.0, 2.0, -2.0], np.ones((4, 1)))
        per_obs, _ = kernel_rows(ds, delta=1.0)
        assert per_obs[:, 1, :].sum() == pytest.approx(0.0, abs=1e-12)

    def test_error_sign_flip_flips_every_row(self, rng):
        t = 60
        x = rng.normal(0.0, 1.0, t)
        noise = rng.standard_normal(t)
        h = np.column_stack([np.ones(t), rng.normal(1.0, 1.0, t)])
        plus = ForecastDataset(x - noise, x, h)
        minus = ForecastDataset(x + noise, x, h)
        delta = 0.8
        stacked_plus, _ = kernel_rows(plus, delta)
        stacked_minus, _ = kernel_rows(minus, delta)
        assert np.allclose(stacked_plus, -stacked_minus, atol=1e-12)

    def test_nonpositive_bandwidth_rejected(self, rng, monkeypatch):
        # the one-row calls check a given bandwidth before the S_T kernel runs
        import centest.central_tendency as central_tendency

        def unreachable(*args, **kwargs):
            raise AssertionError("kernel reached with a bad bandwidth")

        monkeypatch.setattr(central_tendency, "_objective_rows", unreachable)
        ds = make_dataset(rng, t=20)
        with pytest.raises(ValueError, match="positive bandwidth"):
            confidence_set(ds, m=2, delta=0.0)
        with pytest.raises(ValueError, match="positive bandwidth"):
            gmm_objective([0.0, 0.0, 1.0], ds, delta=0.0)


def add_at_wave_sums(rows, cluster_labels):
    """The reference wave sums: np.add.at adds every observation, in order,
    into its wave's row, the waves numbered by first appearance."""
    waves = {}
    index = [waves.setdefault(label, len(waves))
             for label in np.asarray(cluster_labels).tolist()]
    sums = np.zeros((len(waves), *rows.shape[1:]))
    np.add.at(sums, np.array(index, dtype=np.intp), rows)
    return sums


class TestWaveSums:
    """np.bincount adds each wave's rows in observation order from 0.0, as
    np.add.at does, so the sums and both callers' results are bitwise the
    reference's."""

    LABELS = np.array([-7, 2 ** 33 + 1, 0, -(2 ** 40), 12, 3, 2 ** 32, -1])

    def labels(self, rng, t):
        return rng.choice(self.LABELS, t)

    @pytest.mark.parametrize("shape, order", [((257, 6), "C"), ((257, 6), "F"),
                                              ((257, 3, 2), "C"), ((257,), "C")])
    def test_sums_are_bitwise_the_reference(self, rng, shape, order):
        scales = 10.0 ** rng.integers(-8, 9, shape)
        rows = np.asarray(rng.standard_normal(shape) * scales, order=order)
        labels = self.labels(rng, shape[0])
        got, want = _wave_sums(rows, labels), add_at_wave_sums(rows, labels)
        assert got.shape == want.shape == (len(set(labels.tolist())), *shape[1:])
        assert got.tobytes() == want.tobytes()

    def test_callers_are_bitwise_the_reference(self, rng, monkeypatch):
        import centest.central_tendency as central_tendency
        import centest.identification as identification

        t, k = 301, 3
        labels = self.labels(rng, t)
        phi = rng.standard_normal((t, 3 * k))
        values = rng.standard_normal((1, 3, t))
        whitened = rng.standard_normal((1, k, t))
        got = (sigma_hat(phi, labels), *_moment_gram(values, whitened, labels))
        monkeypatch.setattr(identification, "_wave_sums", add_at_wave_sums)
        monkeypatch.setattr(central_tendency, "_wave_sums", add_at_wave_sums)
        want = (sigma_hat(phi, labels), *_moment_gram(values, whitened, labels))
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()
