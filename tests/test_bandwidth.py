import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpmath

from centest import (
    DegenerateErrors,
    bandwidth_rule_of_thumb,
    median_abs_deviation,
    pearson_second_skewness,
)
from centest.bandwidth import _bandwidth_block, _row_median


class TestMedianAbsDeviation:
    def test_symmetric_triple(self):
        assert median_abs_deviation([-1.0, 0.0, 1.0]) == 1.0

    def test_constant_vector(self):
        assert median_abs_deviation([2.0, 2.0, 2.0]) == 0.0

    def test_hand_enumeration(self):
        # median 0, deviations (0, 0, 3), median of those 0
        assert median_abs_deviation([0.0, 0.0, 3.0]) == 0.0

    def test_even_length_averages_middle_pair(self):
        # sorted deviations around median 1.5: (1.5, 0.5, 0.5, 1.5) -> 1.0
        assert median_abs_deviation([0.0, 1.0, 2.0, 3.0]) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_abs_deviation([])


class TestPearsonSecondSkewness:
    def test_symmetric_triple_is_zero(self):
        assert pearson_second_skewness([-1.0, 0.0, 1.0]) == 0.0

    def test_hand_value(self):
        # mean 1, median 0, population sd sqrt(2): 3 / sqrt(2)
        expected = 3.0 / math.sqrt(2.0)
        assert pearson_second_skewness([0.0, 0.0, 3.0]) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected == pytest.approx(2.1213203, abs=5e-8)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_scale_free(self, c):
        e = np.array([0.3, -1.2, 2.5, 0.0, 4.0])
        assert pearson_second_skewness(c * e) == pytest.approx(
            pearson_second_skewness(e), rel=1e-9
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateErrors):
            pearson_second_skewness([1.0, 1.0, 1.0])


class TestBandwidthRule:
    def test_symmetric_triple_fixture(self):
        report = bandwidth_rule_of_thumb([-1.0, 0.0, 1.0], n_obs=3)
        # high-precision oracle for 2.4 * 3^(-0.143)
        with mpmath.workdps(50):
            oracle = float(mpmath.mpf("2.4") * mpmath.mpf(3) ** (-mpmath.mpf(0.143)))
        assert report.k1 == 2.4
        assert report.k2 == 1.0
        assert report.mad == 1.0
        assert report.skewness_hat == 0.0
        assert report.delta == pytest.approx(oracle, rel=1e-14)
        assert report.delta == pytest.approx(2.0510814283348053, rel=1e-12)

    def test_report_reassembles(self):
        rng = np.random.default_rng(0)
        e = rng.standard_normal(40) + 0.4 * rng.standard_normal(40) ** 2
        report = bandwidth_rule_of_thumb(e)
        assert report.n_obs == 40
        assert report.delta == report.k1 * report.k2 * 40 ** (-0.143)
        assert report.k2 == pytest.approx(
            math.exp(-3.0 * abs(report.skewness_hat)), rel=1e-15
        )

    @pytest.mark.parametrize("t", [41, 40])
    def test_report_matches_public_functions_exactly(self, t):
        # the rule shares one median between the MAD and the skewness
        rng = np.random.default_rng(t)
        e = rng.standard_normal(t) + 0.4 * rng.standard_normal(t) ** 2
        report = bandwidth_rule_of_thumb(e)
        assert report.mad == median_abs_deviation(e)
        assert report.skewness_hat == pearson_second_skewness(e)

    @given(st.floats(min_value=1e-3, max_value=1e3))
    @settings(max_examples=50, deadline=None)
    def test_positive_homogeneity(self, c):
        e = np.array([0.5, -1.5, 2.0, -0.2, 0.9, 3.1])
        base = bandwidth_rule_of_thumb(e).delta
        scaled = bandwidth_rule_of_thumb(c * e).delta
        assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_monotone_in_sample_size(self):
        e = np.array([0.5, -1.5, 2.0, -0.2, 0.9, 3.1])
        deltas = [bandwidth_rule_of_thumb(e, n_obs=t).delta
                  for t in (10, 50, 200, 1000, 5000)]
        assert np.all(np.diff(deltas) < 0)

    def test_k2_at_most_one_with_equality_iff_symmetric(self):
        sym = bandwidth_rule_of_thumb([-2.0, -1.0, 0.0, 1.0, 2.0])
        assert sym.k2 == 1.0
        skewed = bandwidth_rule_of_thumb([0.0, 0.1, 0.2, 5.0])
        assert skewed.k2 < 1.0

    def test_constant_errors_degenerate(self):
        with pytest.raises(DegenerateErrors):
            bandwidth_rule_of_thumb([1.0, 1.0, 1.0, 1.0])

    def test_zero_mad_with_dispersion_still_degenerate(self):
        # majority at one value: MAD 0 although sd > 0; no silent floor
        with pytest.raises(DegenerateErrors):
            bandwidth_rule_of_thumb([0.0, 0.0, 0.0, 3.0])

    def test_too_small_sample(self):
        with pytest.raises(ValueError):
            bandwidth_rule_of_thumb([1.0])
        with pytest.raises(ValueError):
            bandwidth_rule_of_thumb([1.0, 2.0], n_obs=1)

    @pytest.mark.parametrize("n_obs", [500.9, 500.0, True])
    def test_sample_size_must_be_an_integer(self, n_obs):
        # 500.9 was once truncated to 500
        with pytest.raises(ValueError, match="^sample size must be an integer"):
            bandwidth_rule_of_thumb([-1.0, 0.0, 2.0], n_obs=n_obs)

    def test_numpy_integer_sample_size_is_the_int(self):
        report = bandwidth_rule_of_thumb([-1.0, 0.0, 2.0], n_obs=np.int64(500))
        assert report == bandwidth_rule_of_thumb([-1.0, 0.0, 2.0], n_obs=500)
        assert type(report.n_obs) is int


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fn", [bandwidth_rule_of_thumb, median_abs_deviation,
                                pearson_second_skewness])
def test_non_finite_errors_rejected(fn, bad):
    with pytest.raises(ValueError, match="^errors contain non-finite values$"):
        fn([bad, 1.0, 2.0, 3.0])


class TestSelectionMedian:
    """_row_median is numpy's median from one single-rank selection, and the
    rule built on it gives np.median's bandwidths bit for bit."""

    @pytest.mark.parametrize("rows, t", [
        (rows, t) for t in (1, 2, 3, 4, 499, 500, 20000, 500000)
        for rows in (1, 104, 128) if rows == 1 or t <= 20000])
    def test_equals_numpy_median_with_ties(self, rows, t):
        # the 500,000-error length is the pooled implied-theta sample: one row
        rng = np.random.default_rng(rows * 1_000_003 + t)
        e = np.round(rng.standard_normal((rows, t)), 1)  # ties at every size
        median = _row_median(e.copy())
        assert median.shape == (rows,)
        assert np.all(median == np.median(e, axis=1))

    @pytest.mark.parametrize("t", [41, 40, 500])
    def test_bandwidth_block_matches_numpy_median_reference(self, t):
        rng = np.random.default_rng(t)
        e = rng.standard_normal((104, t)) + 0.4 * rng.standard_normal((104, t)) ** 2
        e[0] = np.round(e[0], 1)
        median = np.median(e, axis=1)
        mad = np.median(np.abs(e - median[:, None]), axis=1)
        skew = 3.0 * (e.mean(axis=1) - median) / e.std(axis=1)
        k1 = 2.4 * mad
        k2 = np.exp(-3.0 * np.abs(skew))
        delta = k1 * k2 * t ** (-0.143)
        before = e.copy()
        report, failures = _bandwidth_block(e, t)
        assert np.array_equal(e, before)  # the selection works on copies
        assert failures == [None] * 104
        for got, want in ((report.delta, delta), (report.k1, k1), (report.k2, k2),
                          (report.skewness_hat, skew), (report.mad, mad)):
            assert got.tobytes() == want.tobytes()
