import dataclasses
import json
import math
import re
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy import integrate, optimize, special
from scipy.signal import lfilter

from centest import (
    DegenerateErrors,
    Dgp,
    DgpConfig,
    Distortion,
    ForecastDataset,
    Functional,
    InstrumentSet,
    RandomStream,
    SingularMatrixError,
    ThetaSetKind,
    build_instruments,
    distort_forecasts,
    get_kernel,
    implied_theta,
    optimal_forecasts,
    run_coverage_experiment,
    run_grid_coverage_experiment,
    run_size_experiment,
    simulate_dgp,
    skew_normal_params,
)
from centest.bandwidth import bandwidth_rule_of_thumb
from centest.central_tendency import _theta_array
from centest.dataio import report_to_dict
from centest.identification import _identification_matrix, _row_scales, _whiten
from centest.numerics import standard_normal_rows
from centest.simulation import (
    _AR_SPAN,
    _GARCH_SPAN,
    _IMPLIED_THETA_BASE,
    MAX_MOMENT_SKEWNESS,
    SkewNormalSpec,
    _implied_set,
    _instrument_rows,
    _recursions,
    _replication_maker,
    _simulator,
)

from conftest import weight_matrices

DGPS = ["homoskedastic-iid", "heteroskedastic", "ar1", "ar-garch"]


def _skew_normal_draws(spec, rng, n):
    """n standardized skew-normal variates drawn by hand, in the simulators'
    layout: delta |U1| + sqrt(1 - delta^2) U2, shifted and scaled, with U1
    and then U2 from one draw call (U2 alone when unskewed)."""
    if spec.shape == 0.0:
        return rng.standard_normal(n)
    u = rng.standard_normal(2 * n)
    d = spec.shape / math.sqrt(1.0 + spec.shape ** 2)
    raw = d * np.abs(u[:n]) + math.sqrt(1.0 - d * d) * u[n:]
    return (raw - spec.center) / spec.spread


def garch_step_loop(xi):
    """GARCH(1,1) standard deviations of each row of xi (B, n), one vector
    step per time step in five ufunc calls from s2 = 1: the reference for
    garch_sigma's spans."""
    rows, n = xi.shape
    squares = np.multiply(xi.T, xi.T, out=np.empty((n, rows)))
    s2 = np.empty((n, rows))
    s2[0] = 1.0
    c, p, a = (np.full(rows, v) for v in (0.1, 0.8, 0.1))
    level, arch = np.empty(rows), np.empty(rows)
    for s, sq, following in zip(s2[:-1], squares[:-1], s2[1:]):
        np.multiply(p, s, level)
        np.add(c, level, level)
        np.multiply(a, s, arch)
        np.multiply(arch, sq, arch)
        np.add(level, arch, following)
    return np.sqrt(s2, out=s2).T


def ar_filter(x):
    """The AR(1) recursion y_i = x_i + 0.5 y_{i-1}, y_{-1} = 0, along each
    row of x (B, n), over the whole row: one scaled cumulative sum per span
    of _AR_SPAN steps, scaled back by powers of two (the arithmetic of the
    simulators' windowed recursion, kept here as its full-length
    reference)."""
    up = np.ldexp(1.0, np.arange(_AR_SPAN))
    down = np.ldexp(1.0, -np.arange(_AR_SPAN))
    y = np.empty_like(x)
    n = x.shape[1]
    for s in range(0, n, _AR_SPAN):
        w = min(_AR_SPAN, n - s)
        span = x[:, s:s + w] * up[:w]
        span[:, 0] = x[:, s] + 0.5 * y[:, s - 1] if s else x[:, 0] + 0.0
        np.cumsum(span, axis=1, out=span)
        np.multiply(span, down[:w], out=y[:, s:s + w])
    return y


def garch_sigma(xi):
    """GARCH(1,1) standard deviations of each row of innovations xi (B, n)
    from the unconditional variance of 1, over the whole row: the variances
    of each span of _GARCH_SPAN steps in closed form from cumulative
    products and sums (the simulators' windowed recursion's arithmetic,
    kept here as its full-length reference)."""
    rows, n = xi.shape
    s2 = np.empty((rows, n))
    s2[:, 0] = 1.0
    for s in range(0, n - 1, _GARCH_SPAN):
        w = min(_GARCH_SPAN, n - 1 - s)
        x = xi[:, s:s + w]
        total = np.multiply(x, x) * 0.1 + 0.8
        prod = np.cumprod(total, axis=1)
        following = s2[:, s + 1:s + 1 + w]
        np.reciprocal(prod, out=following)
        total = np.cumsum(following, axis=1) * 0.1 + s2[:, s:s + 1]
        np.multiply(prod, total, out=following)
    return np.sqrt(s2)


def library_recursions(xi, garch):
    """The simulators' windowed recursion over every step of innovations xi
    (B, n) given as variates: the levels y of all n steps and, under GARCH,
    the standard deviations from step 2 on (else None)."""
    return _recursions(xi.copy(), skew_normal_params(0.0), garch, 0)


def time_series_paths(config, streams):
    """The fields of an AR(1) or AR-GARCH block from full-length arrays:
    every step's innovations, variances and levels, burn-in included, and
    the windows the experiments read cut from them at the end."""
    spec = skew_normal_params(config.skewness)
    t, b = config.n_obs, config.burn_in
    n = b + t + 2
    if spec.shape == 0.0:
        xi = standard_normal_rows(streams, n)
    else:
        u = standard_normal_rows(streams, 2 * n)
        d = spec.shape / np.sqrt(1.0 + spec.shape ** 2)
        raw = d * np.abs(u[:, :n]) + np.sqrt(1.0 - d * d) * u[:, n:]
        xi = (raw - spec.center) / spec.spread
    if config.dgp is Dgp.AR1:
        sig, shocks = np.ones_like(xi), xi
    else:
        sig = garch_sigma(xi)
        shocks = sig * xi
    y = ar_filter(shocks)
    return {
        "realizations": y[:, b + 2:],
        "cond_loc": 0.5 * y[:, b + 1:b + t + 1],
        "sigma_next": sig[:, b + 2:],
        "innovations": xi[:, b + 2:],
        "covariates": y[:, b + 1:b + t + 1, None],
        "extra_instrument": y[:, b:b + t],
    }


def raw_sn_pdf(shape):
    def pdf(x):
        phi = math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        cdf = 0.5 * (1.0 + math.erf(shape * x / math.sqrt(2.0)))
        return 2.0 * phi * cdf

    return pdf


def moment_skewness_oracle(shape):
    """Pearson moment skewness of the raw skew normal by quadrature."""
    pdf = raw_sn_pdf(shape)
    m1 = integrate.quad(lambda x: x * pdf(x), -12, 12, epsabs=1e-12)[0]
    m2 = integrate.quad(lambda x: (x - m1) ** 2 * pdf(x), -12, 12, epsabs=1e-12)[0]
    m3 = integrate.quad(lambda x: (x - m1) ** 3 * pdf(x), -12, 12, epsabs=1e-12)[0]
    return m3 / m2 ** 1.5


def scipy_skew_normal_spec(gamma):
    """skew_normal_params through scipy.optimize's brentq and golden-section
    search: the reference that the package's own searches match bit for bit."""
    c = np.cbrt(2.0 * gamma / (4.0 - np.pi))
    m1 = c / np.sqrt(1.0 + c * c)
    delta = m1 / np.sqrt(2.0 / np.pi)
    shape = float(delta / np.sqrt(1.0 - delta * delta))
    spread = float(np.sqrt(1.0 - m1 * m1))

    def raw_pdf(x):
        return 2.0 * np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi) * special.ndtr(shape * x)

    median_raw = optimize.brentq(
        lambda x: special.ndtr(x) - 2.0 * special.owens_t(x, shape) - 0.5, -8.0, 8.0,
        xtol=1e-14)
    grid = np.linspace(-4.0, 4.0, 161)
    i = int(np.argmax(raw_pdf(grid)))
    mode_raw = optimize.minimize_scalar(
        lambda x: -raw_pdf(x), bracket=(grid[i - 1], grid[i], grid[i + 1]),
        method="golden", options={"xtol": 1e-12}).x
    return SkewNormalSpec(
        shape=shape, center=float(m1), spread=spread, mean_xi=0.0,
        median_xi=float((median_raw - m1) / spread),
        mode_xi=float((mode_raw - m1) / spread), moment_skewness=gamma)


class TestSkewNormalParams:
    def test_equals_scipy_optimize_searches(self):
        # the in-house Brent and golden-section searches take scipy's steps
        # and the density reads special.ndtr's bits, so every field but the
        # median is scipy's to the last bit (404 points, none at 0); the
        # median is a root of the CDF, whose Owen's T is a quadrature of its
        # own, and agrees within 1e-14
        for gamma in np.linspace(-0.99, 0.99, 404).tolist():
            spec = skew_normal_params.__wrapped__(gamma)
            oracle = scipy_skew_normal_spec(gamma)
            assert spec == dataclasses.replace(oracle, median_xi=spec.median_xi)
            assert spec.median_xi == pytest.approx(oracle.median_xi, rel=0.0, abs=1e-14)

    def test_pdf_and_cdf_equal_scipy(self):
        # over the admissible skewness: the density bit for bit, the CDF
        # within 1e-15 absolute of special.ndtr and special.owens_t
        x = np.linspace(-6.0, 6.0, 241)
        for gamma in [*np.linspace(-0.99, 0.99, 45).tolist(), 0.0]:
            spec = skew_normal_params(gamma)
            z = spec.center + spec.spread * x
            base = np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi)
            pdf = spec.spread * 2.0 * base * special.ndtr(spec.shape * z)
            assert spec.pdf(x).tobytes() == pdf.tobytes()
            cdf = special.ndtr(z) - 2.0 * special.owens_t(z, spec.shape)
            assert np.allclose(spec.cdf(x), cdf, rtol=0.0, atol=1e-15)
            assert float(spec.cdf(0.25)) == spec.cdf(np.array([0.25]))[0]

    def test_symmetric_case(self):
        spec = skew_normal_params(0.0)
        assert spec.shape == 0.0
        assert spec.mean_xi == spec.median_xi == spec.mode_xi == 0.0
        assert spec.spread == 1.0

    def test_shape_against_root_finding_oracle(self):
        # oracle: solve the quadrature moment-skewness equation for the shape
        oracle_shape = optimize.brentq(
            lambda a: moment_skewness_oracle(a) - 0.5, 0.5, 6.0, xtol=1e-10
        )
        spec = skew_normal_params(0.5)
        assert spec.shape == pytest.approx(oracle_shape, abs=1e-8)
        assert spec.shape == pytest.approx(2.17, abs=5e-3)

    def test_centrality_values_against_independent_oracles(self):
        spec = skew_normal_params(0.5)
        pdf = raw_sn_pdf(spec.shape)

        def cdf(x):
            return integrate.quad(pdf, -12, x, epsabs=1e-12, limit=200)[0]

        median_raw = optimize.brentq(lambda x: cdf(x) - 0.5, -4, 4, xtol=1e-10)
        grid = np.linspace(-2, 2, 40001)
        mode_raw = grid[np.argmax([pdf(x) for x in grid])]
        assert spec.median_xi == pytest.approx(
            (median_raw - spec.center) / spec.spread, abs=1e-8
        )
        assert spec.mode_xi == pytest.approx(
            (mode_raw - spec.center) / spec.spread, abs=1e-3
        )

    def test_ordering_under_positive_skew(self):
        spec = skew_normal_params(0.5)
        assert spec.mode_xi < spec.median_xi < spec.mean_xi == 0.0

    def test_negative_skew_mirrors(self):
        pos = skew_normal_params(0.25)
        neg = skew_normal_params(-0.25)
        assert neg.shape == pytest.approx(-pos.shape, rel=1e-12)
        assert neg.median_xi == pytest.approx(-pos.median_xi, abs=1e-10)
        assert neg.mode_xi == pytest.approx(-pos.mode_xi, abs=1e-8)

    def test_standardized_pdf_moments(self):
        spec = skew_normal_params(0.5)
        mass = integrate.quad(lambda x: float(spec.pdf(x)), -12, 12, epsabs=1e-11)[0]
        mean = integrate.quad(lambda x: x * float(spec.pdf(x)), -12, 12,
                              epsabs=1e-11)[0]
        var = integrate.quad(lambda x: x * x * float(spec.pdf(x)), -12, 12,
                             epsabs=1e-11)[0]
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert mean == pytest.approx(0.0, abs=1e-8)
        assert var == pytest.approx(1.0, abs=1e-8)

    def test_cdf_at_median_is_half(self):
        spec = skew_normal_params(0.5)
        assert float(spec.cdf(spec.median_xi)) == pytest.approx(0.5, abs=1e-10)

    def test_sampling_standardization(self):
        spec = skew_normal_params(0.5)
        rng = RandomStream(915, 0).generator()
        draws = _skew_normal_draws(spec, rng, 1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_skewness_bound(self):
        with pytest.raises(ValueError):
            skew_normal_params(0.996)
        with pytest.raises(ValueError):
            DgpConfig(dgp="ar1", skewness=-MAX_MOMENT_SKEWNESS, n_obs=100, seed=0)

    def test_nan_skewness_fails_the_bound(self):
        # abs(nan) >= bound is False; the bound must still reject NaN
        with pytest.raises(ValueError, match="^\\|gamma\\| must be below 0.9953, got nan$"):
            skew_normal_params(float("nan"))
        with pytest.raises(ValueError, match="skew-normal bound 0.9953, got nan$"):
            DgpConfig(dgp="ar1", skewness=float("nan"), n_obs=100, seed=0)


class TestSimulateDgp:
    @pytest.mark.parametrize("dgp", [
        "homoskedastic-iid", "heteroskedastic", "ar1", "ar-garch",
    ])
    def test_bitwise_reproducible(self, dgp):
        cfg = DgpConfig(dgp=dgp, skewness=0.25, n_obs=64, seed=5)
        a = simulate_dgp(cfg)
        b = simulate_dgp(cfg)
        assert np.array_equal(a.realizations, b.realizations)
        assert np.array_equal(a.innovations, b.innovations)
        assert np.array_equal(a.sigma_next, b.sigma_next)

    @pytest.mark.parametrize("dgp", [
        "homoskedastic-iid", "heteroskedastic", "ar1", "ar-garch",
    ])
    def test_realization_decomposition(self, dgp):
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=64, seed=6)
        path = simulate_dgp(cfg)
        rebuilt = path.cond_loc + path.sigma_next * path.innovations
        assert np.allclose(path.realizations, rebuilt, atol=1e-12)

    def test_cross_section_covariates(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=4000, seed=7)
        path = simulate_dgp(cfg)
        z = path.covariates
        assert np.array_equal(z[:, 0], np.ones(4000))
        assert z[:, 1].mean() == pytest.approx(1.0, abs=0.08)
        assert z[:, 2].mean() == pytest.approx(-1.0, abs=0.08)
        assert z[:, 3].var() == pytest.approx(0.1, rel=0.15)
        assert np.array_equal(path.extra_instrument, z[:, 1])
        assert np.array_equal(path.sigma_next, np.ones(4000))

    def test_heteroskedastic_ramp_literal(self):
        t = 50
        cfg = DgpConfig(dgp="heteroskedastic", skewness=0.0, n_obs=t, seed=8)
        path = simulate_dgp(cfg)
        expected = 0.5 + 1.5 * (np.arange(1, t + 1) + 1.0) / t
        assert np.array_equal(path.sigma_next, expected)

    def test_ar1_matches_hand_recursion(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=10, seed=9, burn_in=3)
        path = simulate_dgp(cfg)
        spec = skew_normal_params(0.0)
        rng = RandomStream(9, 0).generator()
        xi = _skew_normal_draws(spec, rng, 3 + 10 + 2)
        y = np.zeros(xi.size)
        prev = 0.0
        for i, e in enumerate(xi):
            y[i] = 0.5 * prev + e
            prev = y[i]
        assert np.allclose(path.realizations, y[5:15], atol=1e-12)
        assert np.allclose(path.cond_loc, 0.5 * y[4:14], atol=1e-12)
        assert np.allclose(path.extra_instrument, y[3:13], atol=1e-12)

    def test_ar1_long_run_mean(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=200_000, seed=10)
        path = simulate_dgp(cfg)
        # long-run variance of the AR(1) mean: (4/3) * (1+rho)/(1-rho) = 4
        se = math.sqrt(4.0 / 200_000)
        assert abs(path.realizations.mean()) < 3.0 * se

    def test_garch_unconditional_variance(self):
        cfg = DgpConfig(dgp="ar-garch", skewness=0.0, n_obs=1_000_000, seed=11)
        path = simulate_dgp(cfg)
        shocks = path.sigma_next * path.innovations
        # unconditional variance 0.1 / (1 - 0.8 - 0.1) = 1
        assert shocks.var() == pytest.approx(1.0, rel=0.05)

    def test_garch_lag_alignment(self):
        cfg = DgpConfig(dgp="ar-garch", skewness=0.25, n_obs=30, seed=12)
        path = simulate_dgp(cfg)
        y_curr = path.covariates[:, 0]
        assert np.allclose(path.extra_instrument[1:], y_curr[:-1], atol=1e-12)
        assert np.allclose(path.realizations[:-1], y_curr[1:], atol=1e-12)

    def test_burn_in_validation(self):
        # one check for every DGP, though the cross-section ones draw no
        # burn-in: a value they would ignore is still refused, not reported
        for dgp in DGPS:
            for burn_in in (0, -5):
                with pytest.raises(ValueError,
                                   match=f"burn_in must be >= 1, got {burn_in}"):
                    DgpConfig(dgp=dgp, skewness=0.0, n_obs=50, seed=1, burn_in=burn_in)

    @pytest.mark.parametrize("n", [1, 2, _GARCH_SPAN, _GARCH_SPAN + 1, _GARCH_SPAN + 2,
                                   2 * _GARCH_SPAN + 1, 1502])
    @pytest.mark.parametrize("skewness", [0.0, 0.5, -0.9])
    def test_garch_spans_match_the_step_loop(self, skewness, n):
        # the spans' closed form against one vector step per time step, over
        # one and several spans and each boundary (n values make n - 1 steps)
        rng = RandomStream(17, n).generator()
        spec = skew_normal_params(skewness)
        xi = np.stack([_skew_normal_draws(spec, rng, n) for _ in range(128)])
        expected = garch_step_loop(xi)
        assert np.max(np.abs(garch_sigma(xi) - expected) / expected) <= 1e-14
        if n >= 2:
            # the library's recursion returns the variances from step 2 on
            _, sig = library_recursions(xi, True)
            assert sig.shape == (128, n - 2)
            assert np.max(np.abs(sig - expected[:, 2:]) / expected[:, 2:],
                          initial=0.0) <= 1e-14

    @pytest.mark.parametrize("rows, n", [(24, 400), (128, 400), (129, 400), (128, 2)])
    def test_garch_row_subsets_match_block(self, rows, n):
        # a row's variances do not depend on the other rows of its block: the
        # first 1, 2 and 23 rows, and each single row, equal the block's rows
        # byte for byte (a full block, one past it, and a single step included)
        xi = RandomStream(13, 2).generator().standard_normal((rows, n))
        block = garch_sigma(xi)
        assert block.shape == xi.shape
        for short in (1, 2, 23):
            assert garch_sigma(xi[:short]).tobytes() == block[:short].tobytes()
        for j in range(rows):
            assert garch_sigma(xi[j:j + 1]).tobytes() == block[j:j + 1].tobytes()
        # so do the library's levels and variances, and they are the
        # reference's, cut at step 2
        y, sig = library_recursions(xi, True)
        assert sig.tobytes() == block[:, 2:].tobytes()
        assert y.tobytes() == ar_filter(block * xi).tobytes()
        for short in (1, 2, 23):
            y_short, sig_short = library_recursions(xi[:short], True)
            assert y_short.tobytes() == y[:short].tobytes()
            assert sig_short.tobytes() == sig[:short].tobytes()
        for j in range(rows):
            y_row, sig_row = library_recursions(xi[j:j + 1], True)
            assert y_row.tobytes() == y[j:j + 1].tobytes()
            assert sig_row.tobytes() == sig[j:j + 1].tobytes()

    @pytest.mark.parametrize("skewness", [0.0, 0.5])
    def test_cross_section_covariates_are_generator_normals(self, skewness):
        from centest.simulation import (
            _CROSS_SECTION_MEANS,
            _CROSS_SECTION_SDS,
            _cross_section_block,
        )

        t, seed = 60, 21
        cfg = DgpConfig(dgp="heteroskedastic", skewness=skewness, n_obs=t, seed=seed)
        streams = [RandomStream(seed, i) for i in range(130)]
        z = _cross_section_block(cfg, skew_normal_params(skewness), streams).covariates
        assert z.shape == (130, t, 4)
        for stream, row in zip(streams, z):
            expected = stream.generator().normal(
                _CROSS_SECTION_MEANS[1:], _CROSS_SECTION_SDS[1:], size=(t, 3))
            assert row[:, 1:].tobytes() == expected.tobytes()
            assert np.array_equal(row[:, 0], np.ones(t))

    def test_garch_matches_hand_recursion(self):
        cfg = DgpConfig(dgp="ar-garch", skewness=0.5, n_obs=10, seed=9, burn_in=3)
        path = simulate_dgp(cfg)
        rng = RandomStream(9, 0).generator()
        xi = _skew_normal_draws(skew_normal_params(0.5), rng, 3 + 10 + 2)
        y = np.zeros(xi.size)
        sig = np.zeros(xi.size)
        s2, prev = 1.0, 0.0
        for i, e in enumerate(xi):
            sig[i] = math.sqrt(s2)
            y[i] = 0.5 * prev + sig[i] * e
            prev = y[i]
            s2 = 0.1 + 0.8 * s2 + 0.1 * s2 * e * e
        assert np.allclose(path.realizations, y[5:15], rtol=1e-13, atol=1e-13)
        assert np.allclose(path.sigma_next, sig[5:15], rtol=1e-13, atol=0.0)
        assert np.array_equal(path.innovations, xi[5:15])
        assert np.allclose(path.cond_loc, 0.5 * y[4:14], rtol=1e-13, atol=1e-13)
        assert np.allclose(path.extra_instrument, y[3:13], rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_outside_uint64_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            DgpConfig(dgp="ar1", skewness=0.0, n_obs=50, seed=seed)

    def test_seed_range_endpoints_accepted(self):
        for seed in (0, (1 << 64) - 1):
            assert DgpConfig(dgp="ar1", skewness=0.0, n_obs=50, seed=seed).seed == seed

    @pytest.mark.parametrize("name, label", [
        ("n_obs", "sample size"), ("seed", "seed"), ("burn_in", "burn_in")])
    @pytest.mark.parametrize("value, kind", [
        (100.0, "float"), (10.5, "float"), (np.float64(100.0), "float64"),
        (True, "bool")], ids=["integral-float", "fraction", "float64", "bool"])
    def test_integer_fields_refuse_other_types(self, name, label, value, kind):
        fields = {"n_obs": 100, "seed": 1, "burn_in": 10, name: value}
        with pytest.raises(ValueError) as exc:
            DgpConfig(dgp="ar1", skewness=0.0, **fields)
        assert str(exc.value) == f"{label} must be an integer, got {kind}"

    def test_numpy_integer_fields_are_stored_as_ints(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=np.int64(50), seed=np.uint64(1),
                        burn_in=np.int32(10))
        assert [type(v) for v in (cfg.n_obs, cfg.seed, cfg.burn_in)] == [int, int, int]
        report = run_size_experiment(cfg, 2, np.int64(100))
        assert type(report.replications) is int
        plain = run_size_experiment(DgpConfig("ar1", 0.0, 50, 1, 10), 2, 100)
        assert json.dumps(report_to_dict(report)) == json.dumps(report_to_dict(plain))

    @pytest.mark.parametrize("value, kind", [(100.0, "float"), (True, "bool")])
    def test_replications_and_draws_refuse_other_types(self, value, kind):
        cfg = DgpConfig(dgp="ar1", skewness=0.5, n_obs=50, seed=1)
        for run in (lambda: run_size_experiment(cfg, 2, value),
                    lambda: run_coverage_experiment(cfg, [0, 1, 0], 2, value),
                    lambda: run_grid_coverage_experiment(cfg, [0, 1, 0], 2, value)):
            with pytest.raises(ValueError) as exc:
                run()
            assert str(exc.value) == f"replications must be an integer, got {kind}"
        with pytest.raises(ValueError) as exc:
            implied_theta(cfg, [0, 1, 0], draws=value)
        assert str(exc.value) == f"draws must be an integer, got {kind}"


FIELDS = ("realizations", "cond_loc", "sigma_next", "innovations",
          "covariates", "extra_instrument")


# sha256 of each field's bytes for DgpConfig(dgp, skewness, n_obs=40,
# seed=2024, burn_in=10) and stream 7, recorded while every stream still made
# one draw call per normal vector (covariates, U1, U2) and one Philox per
# path; a change that reorders or re-keys the draws changes them. The
# ar-garch entries were recorded again when _garch_sigma moved from one step
# at a time to spans, which moves its variances by rounding: all but their
# innovations, which share the ar1 draws
GOLDEN_PATHS = {
    ("homoskedastic-iid", 0.0): (
        "a972207d7d9c82eb648bad030bccd5c2abf03ff14c10faf8c3f91f17ffea2372",
        "be41b69d16a62cc68a1fc652686873ebcc9337551b264eed45d8d2cce9cde134",
        "bf4d5ee2759a3c5f5d2348929f4da78fb2d1df48a0526ca959757992dd8dde31",
        "1669ba9c37a41c8cacb8fb30c2dcc52d930804156d43baccf5374436acc119e0",
        "1e452c3c0dccd69cd3ac76cd399a92f95b04dcc877d2c81c0073fba1e5e5f3c1",
        "618ec6fd3a582b8ba34daa18e19e6d2b909f508c83d7d4ec44381665d42eef3d",
    ),
    ("homoskedastic-iid", 0.5): (
        "000911e455ad3590e43c4b8a0e5e31d28cbc68188dd067fa687d261db15f8a95",
        "be41b69d16a62cc68a1fc652686873ebcc9337551b264eed45d8d2cce9cde134",
        "bf4d5ee2759a3c5f5d2348929f4da78fb2d1df48a0526ca959757992dd8dde31",
        "2c8c31e60eabc69b594a58ea44a104a4e0715d047bf74084a4bf8b2bd35463d4",
        "1e452c3c0dccd69cd3ac76cd399a92f95b04dcc877d2c81c0073fba1e5e5f3c1",
        "618ec6fd3a582b8ba34daa18e19e6d2b909f508c83d7d4ec44381665d42eef3d",
    ),
    ("heteroskedastic", 0.0): (
        "dd2045dfd49e429276e4c7326a6448b876007b2b95f397c72b282eeb4d1d8dc7",
        "be41b69d16a62cc68a1fc652686873ebcc9337551b264eed45d8d2cce9cde134",
        "929d887a471ebf325085ff6ef11ff8f00d1a6eea819e94b8aea732b8a2e8dce1",
        "1669ba9c37a41c8cacb8fb30c2dcc52d930804156d43baccf5374436acc119e0",
        "1e452c3c0dccd69cd3ac76cd399a92f95b04dcc877d2c81c0073fba1e5e5f3c1",
        "618ec6fd3a582b8ba34daa18e19e6d2b909f508c83d7d4ec44381665d42eef3d",
    ),
    ("heteroskedastic", 0.5): (
        "151ed894e53a0b61652fc2e14133f8bb5ae2d9f1387b362d80e61b142b9fd04b",
        "be41b69d16a62cc68a1fc652686873ebcc9337551b264eed45d8d2cce9cde134",
        "929d887a471ebf325085ff6ef11ff8f00d1a6eea819e94b8aea732b8a2e8dce1",
        "2c8c31e60eabc69b594a58ea44a104a4e0715d047bf74084a4bf8b2bd35463d4",
        "1e452c3c0dccd69cd3ac76cd399a92f95b04dcc877d2c81c0073fba1e5e5f3c1",
        "618ec6fd3a582b8ba34daa18e19e6d2b909f508c83d7d4ec44381665d42eef3d",
    ),
    ("ar1", 0.0): (
        "9ae65649dea23989dcef9c519e330e5bc043b935e4f83aa67a9e1b345fd5dae1",
        "5b4b999b256c9001f7962801db0bfe81ac3cb6733425de17e951ad6baf9bdc4d",
        "bf4d5ee2759a3c5f5d2348929f4da78fb2d1df48a0526ca959757992dd8dde31",
        "a1362e7af8076f604179c78fa3c3047314ba5f4c75c04264ffe665b0dddbaa07",
        "10d9e59b96bdc80bad90de9ca5b78e09f9ae9915011825a79202877465fcfbb1",
        "f539a7344f09cf8f4af066d104adf4c175b77d606ae8b9479fd8d1635d03b17a",
    ),
    ("ar1", 0.5): (
        "199b63554ecd0989d62db18b30e04fe5bd064449df615632e5edc86793708d41",
        "03d37f1dc0d8a5c34dbde421ca4239c964319e87575a7ccc97b7137788f42736",
        "bf4d5ee2759a3c5f5d2348929f4da78fb2d1df48a0526ca959757992dd8dde31",
        "57ea881ac435fbe18d944e863676226ad73fbbc6d02b5a9cacd48430bfc030ad",
        "395e4d758d47d4773771c7e2b54c8c8a1beb0df28031d4e82c9ce4116341d863",
        "1024c46f4b30b8943ad076072fff779777aea1edcf5f6956c92cbf3974339964",
    ),
    ("ar-garch", 0.0): (
        "8a771a7c53fd747190a466f95c155b5924ad99ca5f155600a0a0ca022c4d43d7",
        "129b6a5df4c73018793c4889133eb40ac32e57544e55a85ab6296beb5d9f28f9",
        "89517614f215f91109f9ef362614d6915ef004862e394851c541a1d1542092cd",
        "a1362e7af8076f604179c78fa3c3047314ba5f4c75c04264ffe665b0dddbaa07",
        "97cbcdf11465b21d09f99e2dd37d9ca66db5531b36f5445ec9045c8be769ca0b",
        "d00aeaacc015eba788029b790f6ea5d230e96ef4a0a7af9d21227a5caa444f05",
    ),
    ("ar-garch", 0.5): (
        "b3dd027525de322b925ddde41f5279fbc0126aac9188b32d2b8c3ef633413b8c",
        "0ecd9242dcb019b0afa1a1cfb85aefb4b95a4d5e749d80393bf85a6eb7f862d4",
        "7fb233425a445d8ac5f928d00dfbd4115ef5134d28ac5042409afac5675b0354",
        "57ea881ac435fbe18d944e863676226ad73fbbc6d02b5a9cacd48430bfc030ad",
        "e39ed3d269549d3b73595f7c6a144cbc430414a97b3da23bd6e436edc0e587fd",
        "3d675bc4e0e6bb01a4cd3b98ec2e6332fb8671e7a8df41c144c24a5b08286440",
    ),
}


class TestArFilter:
    """The library's AR(1) levels and the reference ar_filter are both
    bitwise lfilter([1], [1, -0.5], x, axis=1)."""

    @staticmethod
    def shocks(b, n, scale=1.0):
        return scale * RandomStream(31, n).generator().standard_normal((b, n))

    @pytest.mark.parametrize("b, n", [
        (1, 1502), (3, _AR_SPAN - 1), (3, _AR_SPAN), (3, _AR_SPAN + 1),
        (2, 3 * _AR_SPAN), (130, 1502), (1, 1),
    ], ids=["one-row", "below-a-span", "one-span", "one-past-a-span", "three-spans",
            "a-block", "one-step"])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-3])
    def test_equals_lfilter(self, b, n, scale):
        x = self.shocks(b, n, scale)
        expected = lfilter([1.0], [1.0, -0.5], x, axis=1)
        assert ar_filter(x).tobytes() == expected.tobytes()
        y, sig = library_recursions(x, False)
        assert sig is None
        assert y.tobytes() == expected.tobytes()

    def test_negative_zero_first_shock(self):
        x = self.shocks(2, 600)
        x[:, 0] = -0.0
        expected = lfilter([1.0], [1.0, -0.5], x, axis=1)
        for y in (ar_filter(x), library_recursions(x, False)[0]):
            assert y.tobytes() == expected.tobytes()
            assert not np.signbit(y[:, 0]).any()


class TestSimulatePaths:
    @pytest.mark.parametrize("dgp, skewness", sorted(GOLDEN_PATHS))
    def test_paths_match_recorded_digests(self, dgp, skewness):
        import hashlib

        cfg = DgpConfig(dgp=dgp, skewness=skewness, n_obs=40, seed=2024, burn_in=10)
        path = simulate_dgp(cfg, RandomStream(cfg.seed, 7))
        digests = tuple(hashlib.sha256(getattr(path, name).tobytes()).hexdigest()
                        for name in FIELDS)
        assert digests == GOLDEN_PATHS[dgp, skewness]

    @pytest.mark.parametrize("skewness", [0.0, 0.5])
    def test_garch_innovations_are_the_ar1_draws(self, skewness):
        innovations = FIELDS.index("innovations")
        assert (GOLDEN_PATHS["ar-garch", skewness][innovations]
                == GOLDEN_PATHS["ar1", skewness][innovations])

    @pytest.mark.parametrize("chunk", [None, 7])
    @pytest.mark.parametrize("dgp, skewness", [
        *(pytest.param(dgp, 0.5, id=dgp) for dgp in DGPS),
        # one standard normal per innovation instead of two
        *(pytest.param(dgp, 0.0, id=f"{dgp}-unskewed") for dgp in DGPS),
    ])
    def test_blocks_match_single_streams_bitwise(self, monkeypatch, dgp, skewness,
                                                 chunk):
        import centest.simulation as simulation

        if chunk is not None:
            monkeypatch.setattr(simulation, "_CHUNK", chunk)
        cfg = DgpConfig(dgp=dgp, skewness=skewness, n_obs=20, seed=33, burn_in=5)
        # 131 ids, out of order, cross the default block boundary at 128
        ids = [3 * i + 1 for i in range(130)] + [0]
        size = simulation._CHUNK
        for start in range(0, len(ids), size):
            block_ids = ids[start:start + size]
            block = simulation._simulator(cfg)(
                [RandomStream(cfg.seed, i) for i in block_ids])
            for j, stream_id in enumerate(block_ids):
                single = simulate_dgp(cfg, RandomStream(cfg.seed, stream_id))
                for name in FIELDS:
                    row = getattr(block, name)[j]
                    assert np.array_equal(row, getattr(single, name))
                    assert row.shape == getattr(single, name).shape


    # burn-ins and lengths whose n = burn_in + T + 2 steps end just before,
    # on and just past the span edges at 128 and 512 steps, with windows
    # that start inside the first, second and fifth spans
    @pytest.mark.parametrize("burn_in, n_obs", [
        (1, 2), (1, 123), (1, 124), (1, 125), (1, 126), (1, 127), (1, 300),
        (126, 2), (127, 2), (128, 2), (129, 2), (126, 130), (129, 255),
        (510, 2), (511, 2), (512, 2), (513, 2), (510, 127), (513, 130),
        (1000, 500),
    ])
    @pytest.mark.parametrize("skewness", [0.0, 0.5, -0.9])
    @pytest.mark.parametrize("dgp", ["ar1", "ar-garch"])
    def test_windows_match_the_full_length_recursion(self, dgp, skewness, burn_in,
                                                     n_obs):
        # the block keeps the burn-in in span buffers only; its windows are,
        # byte for byte, the same cut from full-length arrays
        self.check_windows(dgp, skewness, burn_in, n_obs, (0, 5, 9))

    @pytest.mark.parametrize("skewness", [0.0, -0.9])
    @pytest.mark.parametrize("dgp", ["ar1", "ar-garch"])
    def test_windows_of_a_block_past_a_chunk(self, dgp, skewness):
        # 129 rows, one more than the experiments' blocks
        self.check_windows(dgp, skewness, 513, 130, range(129))

    @staticmethod
    def check_windows(dgp, skewness, burn_in, n_obs, rows):
        cfg = DgpConfig(dgp=dgp, skewness=skewness, n_obs=n_obs, seed=8,
                        burn_in=burn_in)
        streams = [RandomStream(cfg.seed, i) for i in rows]
        block = _simulator(cfg)(streams)
        expected = time_series_paths(cfg, streams)
        for name in FIELDS:
            got = getattr(block, name)
            assert got.shape == expected[name].shape
            assert got.tobytes() == expected[name].tobytes(), name

    @pytest.mark.parametrize("skewness", [0.0, 0.5])
    def test_garch_block_peak_memory(self, skewness):
        # 128 AR-GARCH paths at T = 500 and burn-in 1000 hold their normals
        # (3.1 MB skewed), the windows they return and span buffers: the
        # block peaks at 4.8 MB of numpy memory skewed, 3.3 MB unskewed (7.3
        # MB when the burn-in's variances, levels and skew variates were
        # full-length arrays)
        cfg = DgpConfig(dgp="ar-garch", skewness=skewness, n_obs=500, seed=0)
        simulate = _simulator(cfg)
        streams = [RandomStream(cfg.seed, 2 * r) for r in range(128)]
        simulate(streams[:1])
        tracemalloc.start()
        try:
            simulate(streams)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5.5e6


class TestOptimalForecasts:
    def test_ar1_symmetric_any_beta_is_half_lag(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=40, seed=13)
        path = simulate_dgp(cfg)
        for beta in ([1, 0, 0], [0, 1, 0], [1 / 3, 1 / 3, 1 / 3]):
            x = optimal_forecasts(path, cfg, beta)
            assert np.allclose(x, 0.5 * path.covariates[:, 0], atol=1e-12)

    def test_skewed_ordering_pointwise(self):
        cfg = DgpConfig(dgp="heteroskedastic", skewness=0.5, n_obs=60, seed=14)
        path = simulate_dgp(cfg)
        x_mean = optimal_forecasts(path, cfg, [1, 0, 0])
        x_med = optimal_forecasts(path, cfg, [0, 1, 0])
        x_mode = optimal_forecasts(path, cfg, [0, 0, 1])
        assert np.all(x_mode < x_med)
        assert np.all(x_med < x_mean)

    def test_median_vertex_selects_median_series(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=40, seed=15)
        path = simulate_dgp(cfg)
        spec = skew_normal_params(0.5)
        x = optimal_forecasts(path, cfg, [0, 1, 0])
        assert np.allclose(x, path.cond_loc + spec.median_xi, atol=1e-12)

    def test_invalid_beta(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=40, seed=16)
        path = simulate_dgp(cfg)
        with pytest.raises(ValueError, match=r"got sum 0\.8999999999999999$"):
            optimal_forecasts(path, cfg, [0.5, 0.2, 0.2])


class TestDistortForecasts:
    def test_kappa_zero_identity_both_kinds(self, rng):
        x = rng.normal(3.0, 2.0, 100)
        stream = RandomStream(77, 1)
        assert np.array_equal(distort_forecasts(x, "bias", 0.0, stream), x)
        assert np.array_equal(distort_forecasts(x, "noise", 0.0, stream), x)

    def test_bias_shifts_by_half_sd(self, rng):
        x = rng.normal(0.0, 3.0, 500)
        shifted = distort_forecasts(x, Distortion.BIAS, 0.5, RandomStream(1))
        assert np.allclose(shifted - x, 0.5 * x.std(), atol=1e-12)

    def test_noise_variance_calibration(self, rng):
        x = rng.normal(0.0, 2.0, 10_000)
        noisy = distort_forecasts(x, "noise", 0.25, RandomStream(42, 3))
        added = noisy - x
        assert added.var() == pytest.approx(0.25 * x.var(), rel=0.10)

    def test_kappa_domain(self, rng):
        x = rng.normal(size=50)
        with pytest.raises(ValueError):
            distort_forecasts(x, "bias", 1.0, RandomStream(1))
        with pytest.raises(ValueError):
            distort_forecasts(x, "noise", -0.1, RandomStream(1))


class TestInstruments:
    def test_shapes_and_contents(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=25, seed=17)
        path = simulate_dgp(cfg)
        x = optimal_forecasts(path, cfg, [0, 0, 1])
        h1 = build_instruments(path, x, 1)
        h2 = build_instruments(path, x, InstrumentSet.SET2)
        h3 = build_instruments(path, x, 3)
        assert h1.shape == (25, 1) and np.all(h1 == 1.0)
        assert h2.shape == (25, 2) and np.array_equal(h2[:, 1], x)
        assert h3.shape == (25, 3)
        assert np.array_equal(h3[:, 2], path.extra_instrument)


def pooled_implied_theta(config, beta, draws, instrument_set):
    """implied_theta's set from the pooled formula: the draws' T-row samples
    stacked into one dataset of draws * T rows, whitened and scaled as one,
    and the moment rows c_r (1/n) sum v_r h' G read off it."""
    b = _theta_array(beta)
    k = int(instrument_set)
    make = _replication_maker(config, b, InstrumentSet(k),
                              path_stream=lambda r: _IMPLIED_THETA_BASE + r)
    y, x, h = make(range(draws))
    errors = (x - y).reshape(-1)
    # the draws' (k, T) instrument rows side by side: one (k, draws T) dataset
    h = np.swapaxes(h, 0, 1).reshape(k, -1)
    n = errors.size
    delta = bandwidth_rule_of_thumb(errors, n_obs=config.n_obs).delta
    values = _identification_matrix(errors, delta, None)
    whitened, _, singular = _whiten(h[None])
    scales, unscaled = _row_scales(values[None], whitened)
    assert singular == unscaled == [None]
    rows = scales[0][:, None] * np.einsum("rt,kt->rk", values, whitened[0]) / n
    return _implied_set(rows, b, 9.0 * k / n)


# The float.hex coordinates of implied_theta's segment ends for
# DgpConfig(dgp, 0.5, n_obs=40, seed=11, burn_in=130) (172 steps, past the
# first span edge, on the time-series DGPs), beta (0.5, 0, 0.5) and 200
# draws, recorded while the pool still held the constant instrument row: set
# 1 now pools no instrument row at all, set 3 two
IMPLIED_SEGMENTS = {
    ("homoskedastic-iid", 1): (
        ("0x0.0p+0", "0x1.0df5096406286p-2", "0x1.79057b4dfcebdp-1"),
        ("0x1.15fa83afde132p-3", "0x0.0p+0", "0x1.ba815f14087b4p-1"),
    ),
    ("homoskedastic-iid", 3): (
        ("0x0.0p+0", "0x1.021a2bc95aa3fp-2", "0x1.7ef2ea1b52ae0p-1"),
        ("0x1.0a64ba829964fp-3", "0x0.0p+0", "0x1.bd66d15f59a6cp-1"),
    ),
    ("heteroskedastic", 1): (
        ("0x0.0p+0", "0x1.677e82eb8b64fp-3", "0x1.a6205f451d26cp-1"),
        ("0x1.7221dd1512dffp-4", "0x0.0p+0", "0x1.d1bbc45d5da40p-1"),
    ),
    ("heteroskedastic", 3): (
        ("0x0.0p+0", "0x1.524d72b492299p-3", "0x1.ab6ca352db75ap-1"),
        ("0x1.5eec182ea31f4p-4", "0x0.0p+0", "0x1.d4227cfa2b9c2p-1"),
    ),
    ("ar1", 1): (
        ("0x0.0p+0", "0x1.92a472f87fb79p-2", "0x1.36adc683c0244p-1"),
        ("0x1.86e46b8e6377bp-3", "0x0.0p+0", "0x1.9e46e51c67221p-1"),
    ),
    ("ar1", 3): (
        ("0x0.0p+0", "0x1.9150705e58fc8p-2", "0x1.3757c7d0d381cp-1"),
        ("0x1.889a670f3d15fp-3", "0x0.0p+0", "0x1.9dd9663c30ba8p-1"),
    ),
    ("ar-garch", 1): (
        ("0x0.0p+0", "0x1.8edb9e6e515e1p-2", "0x1.389230c8d7510p-1"),
        ("0x1.85a208a9e4498p-3", "0x0.0p+0", "0x1.9e977dd586edap-1"),
    ),
    ("ar-garch", 3): (
        ("0x0.0p+0", "0x1.99e1b0fdfc617p-2", "0x1.330f278101cf4p-1"),
        ("0x1.c752e2a1adbb6p-3", "0x0.0p+0", "0x1.8e2b475794912p-1"),
    ),
}


class TestImpliedTheta:
    @pytest.mark.parametrize("dgp, instrument_set", sorted(IMPLIED_SEGMENTS))
    def test_segments_match_recorded_values(self, dgp, instrument_set):
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=40, seed=11, burn_in=130)
        out = implied_theta(cfg, [0.5, 0.0, 0.5], draws=200,
                            instrument_set=instrument_set)
        assert out.kind is ThetaSetKind.SEGMENT
        points = tuple(tuple(map(float.hex, p)) for p in out.points.tolist())
        assert points == IMPLIED_SEGMENTS[dgp, instrument_set]
        assert np.array_equal(out.evaluation_point, out.points.mean(axis=0))

    @pytest.mark.parametrize("instrument_set", [1, 2, 3])
    def test_pool_holds_k_floats_per_observation(self, monkeypatch, instrument_set):
        # between its passes the call holds the pooled errors and the k - 1
        # instrument rows beside the constant, k draws T floats, and a few
        # kilobytes more ((k + 1) draws T floats when it pooled the constant)
        import centest.simulation as simulation

        real = simulation.bandwidth_rule_of_thumb
        held = []

        def measured(*args, **kwargs):
            held.append(tracemalloc.get_traced_memory()[0])
            return real(*args, **kwargs)

        cfg = DgpConfig(dgp="heteroskedastic", skewness=0.5, n_obs=200, seed=0)
        implied_theta(cfg, [0.5, 0.0, 0.5], draws=300, instrument_set=instrument_set)
        monkeypatch.setattr(simulation, "bandwidth_rule_of_thumb", measured)
        tracemalloc.start()
        try:
            implied_theta(cfg, [0.5, 0.0, 0.5], draws=300,
                          instrument_set=instrument_set)
        finally:
            tracemalloc.stop()
        pool = instrument_set * 300 * 200 * 8
        assert pool <= held[0] < pool + 100_000

    @pytest.mark.parametrize("beta", [[0.5, 0.0, 0.5], [0.2, 0.5, 0.3]])
    @pytest.mark.parametrize("instrument_set", [1, 2, 3])
    @pytest.mark.parametrize("dgp", DGPS)
    def test_per_replication_sums_match_the_pooled_formula(self, dgp, instrument_set,
                                                          beta):
        # 200 draws span two blocks; the tolerance is on the largest coordinate
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=40, seed=11, burn_in=30)
        out = implied_theta(cfg, beta, draws=200, instrument_set=instrument_set)
        ref = pooled_implied_theta(cfg, beta, 200, instrument_set)
        assert out.kind is ref.kind
        assert out.points.shape == ref.points.shape
        for got, want in ((out.points, ref.points),
                          (out.evaluation_point, ref.evaluation_point)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_pooled_memory_is_per_block(self):
        # the pooled rows' values, whitened copy and temporaries exist only
        # per block: 1000 draws of T = 500 at k = 2 pool 8 MB of errors and
        # non-constant instruments, and the call peaks near 14 MB on one
        # thread and 20 MB on two (38 MiB when the 500,000 rows were whitened
        # at once)
        cfg = DgpConfig(dgp="heteroskedastic", skewness=0.5, n_obs=500, seed=0)
        skew_normal_params(cfg.skewness)
        tracemalloc.start()
        try:
            implied_theta(cfg, [0.5, 0.0, 0.5], draws=1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 30 * 2 ** 20

    def test_collinear_pooled_instruments_fail_the_whitener(self, monkeypatch):
        import centest.simulation as simulation

        def collinear(path, forecasts, k):
            h = _instrument_rows(path, forecasts, k)
            h[..., 1, :] = 2.0 * h[..., 0, :]
            return h

        monkeypatch.setattr(simulation, "_instrument_rows", collinear)
        cfg = DgpConfig(dgp="heteroskedastic", skewness=0.5, n_obs=40, seed=12)
        message = "instrument second-moment matrix is singular (collinear instruments?)"
        with pytest.raises(SingularMatrixError, match=re.escape(message)):
            implied_theta(cfg, [0.5, 0.0, 0.5], draws=200)

    def test_mean_and_mode_vertices_are_singletons(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=200, seed=18)
        mean_set = implied_theta(cfg, [1, 0, 0], draws=10)
        mode_set = implied_theta(cfg, [0, 0, 1], draws=10)
        assert mean_set.kind is ThetaSetKind.SINGLETON
        assert np.array_equal(mean_set.points, [[1.0, 0.0, 0.0]])
        assert mode_set.kind is ThetaSetKind.SINGLETON
        assert np.array_equal(mode_set.points, [[0.0, 0.0, 1.0]])

    def test_symmetric_case_is_whole_simplex(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=200, seed=19)
        out = implied_theta(cfg, [0, 1, 0], draws=10)
        assert out.kind is ThetaSetKind.SIMPLEX
        assert np.array_equal(out.evaluation_point, [0.0, 1.0, 0.0])

    def test_median_forecast_yields_segment_through_median_vertex(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=2000, seed=20)
        out = implied_theta(cfg, [0, 1, 0], draws=250)
        assert out.kind is ThetaSetKind.SEGMENT
        assert out.points.shape == (2, 3)
        by_median = sorted(out.points, key=lambda p: p[1])
        edge, vertex = by_median
        # one endpoint at (or very near) the median vertex ...
        assert vertex[1] > 0.9
        # ... the other on the mean-mode edge in the neighborhood the
        # finite-bandwidth moments put it (theta_mean well below the
        # centrality-gap ratio of about 0.68)
        assert edge[1] < 0.05
        assert 0.15 < edge[0] < 0.40

    def test_segment_endpoints_zero_expected_moment(self):
        from centest.bandwidth import bandwidth_rule_of_thumb
        from centest.identification import _identification_matrix

        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=500, seed=21)
        out = implied_theta(cfg, [0, 1, 0], draws=500)
        assert out.kind is ThetaSetKind.SEGMENT

        # independent verification batch (different seed)
        check = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=500, seed=9797)
        errors, instruments = [], []
        for r in range(200):
            path = simulate_dgp(check, RandomStream(check.seed, r))
            x = optimal_forecasts(path, check, [0, 1, 0])
            errors.append(x - path.realizations)
            instruments.append(build_instruments(path, x, 2))
        errors = np.concatenate(errors)
        h = np.vstack(instruments)
        n = errors.size
        delta = bandwidth_rule_of_thumb(errors, n_obs=cfg.n_obs).delta
        values = _identification_matrix(errors, delta, None)
        weights = weight_matrices(ForecastDataset(np.zeros(n), errors, h), delta)
        rows = np.stack([
            (values[r][:, None] * h) @ weights[r] for r in range(3)
        ])  # (3, n, k)
        for endpoint in out.points:
            phi = np.einsum("r,rnk->nk", endpoint, rows)
            mean = phi.mean(axis=0)
            se = phi.std(axis=0) / math.sqrt(n)
            assert np.all(np.abs(mean) <= 3.0 * se + 3.0 / math.sqrt(n))

    def test_draws_validation(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.1, n_obs=100, seed=1)
        with pytest.raises(ValueError):
            implied_theta(cfg, [0, 1, 0], draws=0)


class TestExperiments:
    @pytest.mark.parametrize("what, run, k, n_obs", [
        ("a size experiment", lambda cfg, k: run_size_experiment(cfg, k, 100), 2, 2),
        ("a power experiment", lambda cfg, k: run_size_experiment(
            cfg, k, 100, distortion="noise", kappa=0.5), 3, 2),
        ("a coverage experiment", lambda cfg, k: run_coverage_experiment(
            cfg, (0.5, 0, 0.5), k, 100, draws=5), 3, 3),
        ("a coverage experiment", lambda cfg, k: run_grid_coverage_experiment(
            cfg, (0.5, 0, 0.5), k, 100, m=2), 2, 2),
    ], ids=["size", "power", "coverage", "grid-coverage"])
    @pytest.mark.parametrize("dgp", ["homoskedastic-iid", "ar1"])
    def test_k_at_or_above_n_obs_refused_before_any_draw(self, monkeypatch, dgp, what,
                                                          run, k, n_obs):
        # S_T is k at every nonsingular replication there, so a rate means nothing
        import centest.simulation as simulation

        def no_draws(*args):
            raise AssertionError("drew paths")

        monkeypatch.setattr(simulation, "standard_normal_rows", no_draws)
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=n_obs, seed=1)
        with pytest.raises(ValueError) as exc:
            run(cfg, k)
        assert str(exc.value) == (f"{what} needs fewer instruments than observations, "
                                  f"got k = {k} and n_obs = {n_obs}")

    def test_size_report_reproducible(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=100, seed=22)
        a = run_size_experiment(cfg, 2, 100)
        b = run_size_experiment(cfg, 2, 100)
        assert a.rate == b.rate
        assert a.successes == b.successes == 100
        assert 0.0 <= a.rate <= 0.2
        assert a.mc_standard_error == pytest.approx(
            math.sqrt(a.rate * (1 - a.rate) / 100)
        )

    def test_size_alpha_zero_never_rejects(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=100, seed=23)
        report = run_size_experiment(cfg, 1, 100, nominal_alpha=0.0)
        assert report.rate == 0.0

    def test_power_design_flags(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=100, seed=24)
        report = run_size_experiment(
            cfg, 2, 100, distortion="bias", kappa=0.5
        )
        assert report.kind == "power"
        assert report.details["kappa"] == 0.5
        # strong bias at T=100 should already reject often
        assert report.rate > 0.3

    def test_coverage_report(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=100, seed=25)
        report = run_coverage_experiment(cfg, [1, 0, 0], 2, 200)
        assert report.kind == "coverage"
        assert report.details["theta"] == [1.0, 0.0, 0.0]
        assert 0.75 <= report.rate <= 0.99
        again = run_coverage_experiment(cfg, [1, 0, 0], 2, 200)
        assert again.rate == report.rate

    def test_replication_floor(self):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=50, seed=26)
        with pytest.raises(ValueError):
            run_size_experiment(cfg, 1, 50)
        with pytest.raises(ValueError):
            run_coverage_experiment(cfg, [1, 0, 0], 1, 50)

    @pytest.mark.parametrize("level", [0.0, 1.0, 1.5, float("nan")])
    def test_both_coverage_experiments_check_the_level_alike(self, level):
        cfg = DgpConfig(dgp="ar1", skewness=0.0, n_obs=50, seed=26)
        message = f"^coverage level must lie in \\(0, 1\\), got {level}$"
        with pytest.raises(ValueError, match=message):
            run_coverage_experiment(cfg, [1, 0, 0], 1, 100, level=level)
        with pytest.raises(ValueError, match=message):
            run_grid_coverage_experiment(cfg, [1, 0, 0], 1, 100, m=2, level=level)

    @pytest.mark.parametrize("dgp", [
        "homoskedastic-iid", "heteroskedastic", "ar1", "ar-garch",
    ])
    @pytest.mark.parametrize("instrument_set", [1, 2, 3])
    def test_size_smoke_all_designs(self, dgp, instrument_set):
        cfg = DgpConfig(dgp=dgp, skewness=0.25, n_obs=200, seed=28)
        report = run_size_experiment(cfg, instrument_set, 150)
        assert report.successes == 150
        # wide desk-scale band around the nominal 5%; small-sample skewed
        # designs are known to run oversized
        assert 0.0 <= report.rate <= 0.20

    def test_coverage_median_forecast_three_evaluation_points(self):
        # a line-valued implied set: coverage at both endpoints and the
        # midpoint should be near nominal and close to each other
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=500,
                        seed=29)
        theta_set = implied_theta(cfg, [0, 1, 0], draws=400)
        assert theta_set.kind is ThetaSetKind.SEGMENT
        points = [theta_set.points[0], theta_set.points.mean(axis=0),
                  theta_set.points[1]]
        from centest import (
            ForecastDataset,
            chi_square_quantile,
            gmm_objective,
        )

        rates = []
        q90 = chi_square_quantile(2, 0.90)
        for theta in points:
            covered = 0
            for r in range(400):
                path = simulate_dgp(cfg, RandomStream(cfg.seed, 2 * r))
                x = optimal_forecasts(path, cfg, [0, 1, 0])
                ds = ForecastDataset(
                    path.realizations, x, build_instruments(path, x, 2)
                )
                covered += gmm_objective(theta, ds) <= q90
            rates.append(covered / 400)
        assert all(0.84 <= r <= 0.97 for r in rates)
        # at large replication counts the three agree within 1.5 points;
        # desk scale adds Monte Carlo noise of about 1.5 points per rate
        assert max(rates) - min(rates) <= 0.06

    @pytest.mark.parametrize(
        "dgp,gamma,t,instrument_set,target",
        [
            # reference rejection rates for matched design points, with a
            # band of three Monte Carlo standard errors at 1000 replications
            ("homoskedastic-iid", 0.0, 500, 2, 5.3),
            ("ar-garch", 0.5, 100, 1, 9.7),
            ("ar1", 0.0, 2000, 2, 5.3),
        ],
    )
    def test_size_spot_checks_against_reference(self, dgp, gamma, t,
                                                instrument_set, target):
        cfg = DgpConfig(dgp=dgp, skewness=gamma, n_obs=t, seed=30)
        report = run_size_experiment(cfg, instrument_set, 1000)
        rate = 100.0 * report.rate
        slack = 300.0 * report.mc_standard_error + 0.5
        assert abs(rate - target) <= slack, (rate, target, slack)

    def test_noise_power_increases_with_kappa(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=500,
                        seed=31)
        low = run_size_experiment(cfg, 2, 400, distortion="noise", kappa=0.0)
        high = run_size_experiment(cfg, 2, 400, distortion="noise", kappa=0.5)
        gap = high.rate - low.rate
        assert gap > 2.0 * math.hypot(low.mc_standard_error,
                                      high.mc_standard_error)

    def test_biweight_kernel_size_comparable(self):
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=500,
                        seed=32)
        report = run_size_experiment(cfg, 2, 500, kernel=get_kernel("biweight"))
        assert 0.02 <= report.rate <= 0.10

    def test_grid_coverage_symmetric_near_nominal(self):
        # symmetric data leave the weight vector unidentified, so every grid
        # point is a true null and should be covered close to 90%
        cfg = DgpConfig(dgp="ar-garch", skewness=0.0, n_obs=1000, seed=27)
        report = run_grid_coverage_experiment(cfg, [0, 0, 1], 2, 200, m=3)
        assert report.rates.shape == (10,)
        assert report.successes == 200
        assert np.all(report.rates >= 0.82)
        assert np.all(report.rates <= 0.97)

    @pytest.mark.parametrize("chunk", [1, 7, 128])
    def test_reports_independent_of_block_size(self, monkeypatch, chunk):
        # each run spans at least two blocks at every block size (the
        # coverage run pools its 150 implied-theta draws across blocks too),
        # and the reports are byte-identical with the helper thread off and on
        import centest.simulation as simulation

        cfg = DgpConfig(dgp="ar-garch", skewness=0.5, n_obs=60, seed=34,
                        burn_in=20)

        def reports():
            grid = run_grid_coverage_experiment(cfg, [0, 0, 1], 2, 200, m=2)
            return (
                json.dumps(report_to_dict(run_size_experiment(cfg, 3, 200))),
                json.dumps(report_to_dict(run_size_experiment(
                    cfg, 2, 200, distortion="noise", kappa=0.4))),
                json.dumps(report_to_dict(run_coverage_experiment(
                    cfg, [0.5, 0.0, 0.5], 2, 200, draws=150))),
                (grid.rates.tobytes(), grid.successes, grid.failures),
            )

        monkeypatch.setattr(simulation, "_cores", lambda: 1)
        base = reports()
        monkeypatch.setattr(simulation, "_CHUNK", chunk)
        assert reports() == base
        monkeypatch.setattr(simulation, "_cores", lambda: 2)
        # switch threads often, so the two threads' blocks interleave finely
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            assert reports() == base
        finally:
            sys.setswitchinterval(interval)

    def test_forced_failure_counts_its_replication_alone(self, monkeypatch):
        # replication 130 is row 2 of the second block, which holds the last
        # 72 of the 200 paths; its forecasts are set to its realizations (zero
        # errors), and its failure must leave every other p-value untouched.
        # The rows are told apart by their block's size, not by call order,
        # as the helper thread scores the second block beside the first.
        import centest.simulation as simulation

        real_forecasts = simulation.optimal_forecasts
        real_tests = simulation._tests_block
        monkeypatch.setattr(simulation, "_cores", lambda: 2)
        cfg = DgpConfig(dgp="ar-garch", skewness=0.25, n_obs=60, seed=35,
                        burn_in=20)

        def run(broken):
            p_values = [None] * 200

            def forecasts(paths, config, beta):
                x = real_forecasts(paths, config, beta)
                if broken and len(x) == 72:
                    x[2] = paths.realizations[2]
                return x

            def recording_tests(*args, **kwargs):
                out = real_tests(*args, **kwargs)
                _, block_p, _, failures, *_ = out
                first = {128: 0, 72: 128}[len(failures)]
                for i, (p, failure) in enumerate(zip(block_p.tolist(), failures)):
                    p_values[first + i] = None if failure is not None else p
                return out

            monkeypatch.setattr(simulation, "optimal_forecasts", forecasts)
            monkeypatch.setattr(simulation, "_tests_block", recording_tests)
            return run_size_experiment(cfg, 2, 200, nominal_alpha=0.5), p_values

        clean, clean_p = run(broken=False)
        failed, failed_p = run(broken=True)
        assert clean.failures == {} and clean.successes == 200
        assert None not in clean_p
        assert failed.failures == {"DegenerateErrors": 1}
        assert failed.successes == 199
        assert failed_p[130] is None
        assert failed_p[:130] + failed_p[131:] == clean_p[:130] + clean_p[131:]
        rejections = sum(p < 0.5 for p in failed_p if p is not None)
        assert failed.rate == rejections / 199

    def test_grid_coverage_counts_singular_replication(self, monkeypatch):
        # one grid point of one replication turns singular: the whole
        # replication is a counted failure and stays out of the rates
        import centest.central_tendency as central_tendency

        real = central_tendency._objectives_block
        calls = []

        def one_singular_point(thetas, g, gram):
            objectives, notes = real(thetas, g, gram)
            for row_objectives, row_notes in zip(objectives, notes):
                calls.append(None)
                if len(calls) == 7:
                    row_objectives[2] = np.nan
                    row_notes[2] = "eigenvalue forced below floor"
            return objectives, notes

        monkeypatch.setattr(central_tendency, "_objectives_block", one_singular_point)
        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=200, seed=3)
        report = run_grid_coverage_experiment(cfg, [0, 0, 1], 2, 100, m=2)
        assert len(calls) == 100
        assert report.failures == {"SingularMatrixError": 1}
        assert report.successes == 99
        assert np.all(np.isfinite(report.rates))


def _record(monkeypatch, name):
    """Wrap a block kernel as simulation calls it; return the calls seen."""
    import centest.simulation as simulation

    real = getattr(simulation, name)
    seen = []

    def recording(*args, **kwargs):
        out = real(*args, **kwargs)
        seen.append((args, out))
        return out

    monkeypatch.setattr(simulation, name, recording)
    return seen


def _dataset(errors, instruments):
    # realizations 0 make forecasts - realizations the errors exactly; the
    # block kernels' instruments (k, T) are the dataset's columns
    return ForecastDataset(np.zeros(errors.size), errors, instruments.T)


def _failure_block(t=1000):
    """Rows: clean; zero errors (zero MAD); collinear instruments; errors
    +-1, whose every |e| exceeds the bandwidth (a zero biweight mode row)."""
    rng = np.random.default_rng(5)
    z = rng.standard_normal(t)
    errors = np.stack([
        rng.standard_normal(t),
        np.zeros(t),
        rng.standard_normal(t),
        np.where(np.arange(t) % 2 == 0, 1.0, -1.0),
    ])
    instruments = np.stack([
        np.stack([np.ones(t), z]),
        np.stack([np.ones(t), z]),
        np.stack([np.ones(t), np.ones(t)]),
        np.stack([np.ones(t), z]),
    ])
    return errors, instruments


def _raised(call):
    try:
        call()
    except (DegenerateErrors, SingularMatrixError) as exc:
        return exc
    return None


class TestBlockScoring:
    @pytest.mark.parametrize("dgp", DGPS)
    def test_mode_rows_match_one_row_calls(self, monkeypatch, dgp):
        from centest import mode_test

        seen = _record(monkeypatch, "_tests_block")
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=80, seed=41, burn_in=20)
        run_size_experiment(cfg, 3, 100)
        run_size_experiment(cfg, 2, 100, distortion="noise", kappa=0.3)
        assert len(seen) == 2
        for (kind, errors, instruments, kernel), out in seen:
            statistics, p_values, bandwidths, failures, (lam, q), grams = out
            assert kind is Functional.MODE
            assert failures == [None] * len(errors)
            # the covariances the block's parts give, as _one_row forms them
            root = (q * np.sqrt(lam)[:, None, :]) @ np.swapaxes(q, 1, 2)
            covariances = root @ grams @ root
            for e, h, statistic, p_value, bandwidth, covariance in zip(
                    errors, instruments, statistics.tolist(), p_values.tolist(),
                    bandwidths.tolist(), covariances):
                single = mode_test(_dataset(e, h), kernel=kernel)
                assert statistic == pytest.approx(single.statistic, rel=1e-12)
                assert p_value == pytest.approx(single.p_value, rel=1e-12, abs=1e-300)
                assert (p_value < 0.05) == (single.p_value < 0.05)
                assert bandwidth == single.bandwidth
                assert np.array_equal(covariance, single.covariance)

    @pytest.mark.parametrize("dgp", DGPS)
    def test_objective_rows_match_one_row_calls(self, monkeypatch, dgp):
        from centest import chi_square_quantile, gmm_objective

        seen = _record(monkeypatch, "_objective_rows")
        seen_at = _record(monkeypatch, "_objective_at")
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=80, seed=42, burn_in=20)
        run_coverage_experiment(cfg, [0.5, 0.0, 0.5], 2, 100, draws=20)
        run_grid_coverage_experiment(cfg, [0, 1, 0], 2, 100, m=2)
        assert len(seen) == len(seen_at) == 1
        # the coverage experiment's one theta, as a block of one row
        ((theta, *args), (objectives, notes, failures)), = seen_at
        seen.append(((theta[None], *args), (objectives[:, None], notes, None, failures)))
        quantile = chi_square_quantile(2, 0.90)
        for (thetas, errors, instruments, kernel), (rows, notes, _, failures) in seen:
            assert failures == [None] * len(errors)
            assert notes == [[None] * len(thetas)] * len(errors)
            for e, h, s in zip(errors, instruments, rows):
                single = np.array([gmm_objective(th, _dataset(e, h), kernel=kernel)
                                   for th in thetas])
                assert s == pytest.approx(single, rel=1e-12)
                assert np.array_equal(s <= quantile, single <= quantile)

    @pytest.mark.parametrize("kernel", ["gaussian", "biweight"])
    def test_failed_rows_carry_the_one_row_exception(self, kernel):
        import warnings

        from centest import get_kernel, gmm_objective, mode_test
        from centest.central_tendency import _objective_at, _objective_rows
        from centest.rationality import _tests_block
        from centest.simulation import _replication_failures

        k = get_kernel(kernel)
        errors, instruments = _failure_block()
        thetas = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            statistics, _, _, test_failures, *_ = _tests_block(
                Functional.MODE, errors, instruments, k)
            objectives, notes, _, failures = _objective_rows(
                thetas, errors, instruments, k)
            at_theta = [_objective_at(theta, errors, instruments, k) for theta in thetas]
        objective_failures = _replication_failures(notes, failures)
        for i, (e, h) in enumerate(zip(errors, instruments)):
            ds = _dataset(e, h)
            expected = _raised(lambda: mode_test(ds, kernel=k))
            if expected is None:
                assert test_failures[i] is None
                assert statistics[i] == mode_test(ds, kernel=k).statistic
            else:
                assert type(test_failures[i]) is type(expected)
                assert str(test_failures[i]) == str(expected)
            expected = _raised(
                lambda: [gmm_objective(th, ds, kernel=k) for th in thetas])
            if expected is None:
                assert objective_failures[i] is None
                assert objectives[i] == pytest.approx(
                    [gmm_objective(th, ds, kernel=k) for th in thetas], rel=1e-12)
            else:
                assert type(objective_failures[i]) is type(expected)
                assert str(objective_failures[i]) == str(expected)
            # one theta at a time, as the coverage experiment scores it
            for theta, (at, at_notes, at_failures) in zip(thetas, at_theta):
                expected = _raised(lambda: gmm_objective(theta, ds, kernel=k))
                failure, = _replication_failures(at_notes[i:i + 1], at_failures[i:i + 1])
                if expected is None:
                    assert failure is None
                    assert at[i] == pytest.approx(gmm_objective(theta, ds, kernel=k),
                                                  rel=1e-12)
                else:
                    assert type(failure) is type(expected)
                    assert str(failure) == str(expected)
        # every failure the checks can report occurs in the block
        assert test_failures[0] is None and objective_failures[0] is None
        assert "median absolute deviation" in str(test_failures[1])
        assert "collinear instruments" in str(objective_failures[2])
        if kernel == "biweight":
            assert "for the mode row is singular" in str(objective_failures[3])

    @pytest.mark.parametrize("instrument_set", [1, 3])
    @pytest.mark.parametrize("dgp", DGPS)
    def test_combined_row_matches_the_gram_path(self, dgp, instrument_set):
        # the coverage experiments' scorer reads S_T at its one theta off the
        # combined row sum_r theta_r c_r v_r; the (g c, Gram c c') form of
        # the grid scorer gives each replication the same value, notes and
        # failures
        from centest.central_tendency import _objective_at, _objective_rows

        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=80, seed=44, burn_in=130)
        y, x, h = _replication_maker(cfg, _theta_array([0.5, 0.0, 0.5]),
                                     InstrumentSet(instrument_set))(range(128))
        for theta in (*np.eye(3), [0.5, 0.0, 0.5], [0.2, 0.3, 0.5]):
            theta = _theta_array(theta)
            at, at_notes, at_failures = _objective_at(theta, x - y, h, None)
            rows, notes, _, failures = _objective_rows(theta[None], x - y, h, None)
            assert at_notes == notes == [[None]] * 128
            assert at_failures == failures == [None] * 128
            # (a median row whose signs balance scores exactly 0 on both)
            assert np.all(np.abs(at - rows[:, 0]) <= 1e-12 * rows[:, 0])

    @pytest.mark.parametrize("experiment", ["size", "coverage"])
    def test_failures_on_the_helper_thread_keep_names_and_order(self, monkeypatch,
                                                                experiment):
        # of 200 replications, 5 (first block, on the caller) and 131 (second
        # block, on the helper thread) get collinear instruments and 130 zero
        # errors: the report counts them by name in replication order, on one
        # thread and on two alike
        import centest.simulation as simulation

        real_forecasts = simulation.optimal_forecasts
        real_instruments = simulation._instrument_rows

        def forecasts(paths, config, beta):
            x = real_forecasts(paths, config, beta)
            if len(x) == 72:
                x[2] = paths.realizations[2]
            return x

        def instruments(paths, x, k):
            h = real_instruments(paths, x, k)
            h[{128: 5, 72: 3}[len(h)], 1] = 1.0
            return h

        monkeypatch.setattr(simulation, "optimal_forecasts", forecasts)
        monkeypatch.setattr(simulation, "_instrument_rows", instruments)
        cfg = DgpConfig(dgp="ar-garch", skewness=0.5, n_obs=60, seed=45, burn_in=130)
        run = {
            "size": lambda: run_size_experiment(cfg, 2, 200, nominal_alpha=0.5),
            "coverage": lambda: run_coverage_experiment(cfg, [1, 0, 0], 2, 200),
        }[experiment]
        reports = []
        for cores in (1, 2):
            monkeypatch.setattr(simulation, "_cores", lambda: cores)
            reports.append(json.dumps(report_to_dict(run())))
        assert reports[0] == reports[1]
        report = json.loads(reports[0])
        assert list(report["failures"].items()) == [("SingularMatrixError", 2),
                                                    ("DegenerateErrors", 1)]
        assert report["successes"] == 197

    def test_failed_rows_counted_alone(self, monkeypatch):
        # replication 3 forecasts its realizations (zero errors) and
        # replication 5 gets collinear instruments; both sit in one block
        import centest.simulation as simulation

        real_forecasts = simulation.optimal_forecasts
        real_instruments = simulation._instrument_rows

        def run(experiment, broken):
            def forecasts(paths, config, beta):
                x = real_forecasts(paths, config, beta)
                assert len(x) == 100
                if broken:
                    x[3] = paths.realizations[3]
                return x

            def instruments(paths, x, k):
                h = real_instruments(paths, x, k)
                if broken:
                    h[5, 1] = 1.0
                return h

            monkeypatch.setattr(simulation, "optimal_forecasts", forecasts)
            monkeypatch.setattr(simulation, "_instrument_rows", instruments)
            return experiment()

        cfg = DgpConfig(dgp="heteroskedastic", skewness=0.5, n_obs=80, seed=43)
        experiments = {
            "size": lambda: run_size_experiment(cfg, 2, 100, nominal_alpha=0.5),
            "coverage": lambda: run_coverage_experiment(cfg, [1, 0, 0], 2, 100),
        }
        for experiment in experiments.values():
            clean = run(experiment, broken=False)
            failed = run(experiment, broken=True)
            assert clean.failures == {} and clean.successes == 100
            assert failed.failures == {"DegenerateErrors": 1, "SingularMatrixError": 1}
            assert failed.successes == 98
            assert abs(failed.rate * 98 - round(failed.rate * 98)) < 1e-9


class BlockFailed(Exception):
    pass


class TestHelperThread:
    """_map_blocks with the helper thread forced on and blocks of 7 replications."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        import centest.simulation as simulation

        monkeypatch.setattr(simulation, "_cores", lambda: 2)
        monkeypatch.setattr(simulation, "_CHUNK", 7)

    def test_caller_takes_the_even_blocks_in_block_order(self):
        from centest.simulation import _map_blocks

        before = threading.active_count()
        threads = {}

        def fn(rows):
            threads[rows.start] = threading.get_ident()
            return rows

        out = _map_blocks(fn, 30)
        assert out == [range(0, 7), range(7, 14), range(14, 21), range(21, 28),
                       range(28, 30)]
        caller = threading.get_ident()
        assert [threads[rows.start] == caller for rows in out] == [
            True, False, True, False, True]
        assert threading.active_count() == before

    def test_one_block_runs_on_the_caller(self):
        from centest.simulation import _map_blocks

        before = threading.active_count()
        assert _map_blocks(lambda rows: threading.get_ident(), 7) == [
            threading.get_ident()]
        assert _map_blocks(lambda rows: rows, 0) == []
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 7, 14, 21],
                             ids=["caller", "helper", "caller-later", "helper-later"])
    def test_block_exception_reaches_the_caller(self, failing):
        from centest.simulation import _map_blocks

        before = threading.active_count()

        def fn(rows):
            if rows.start == failing:
                raise BlockFailed(f"block {rows.start} failed")
            return rows

        with pytest.raises(BlockFailed, match=f"^block {failing} failed$"):
            _map_blocks(fn, 30)
        assert threading.active_count() == before

    @pytest.mark.parametrize("first_to_fail", ["caller", "helper"])
    def test_the_callers_exception_wins(self, first_to_fail):
        # each thread's first block fails: both enter their block before
        # either raises, and the second to fail waits for the first
        from centest.simulation import _map_blocks

        before = threading.active_count()
        caller = threading.get_ident()
        both_running = threading.Barrier(2, timeout=10)
        first_failing = threading.Event()

        def fn(rows):
            on_caller = threading.get_ident() == caller
            both_running.wait()
            if on_caller == (first_to_fail == "caller"):
                first_failing.set()
            else:
                assert first_failing.wait(timeout=10)
            raise BlockFailed("caller" if on_caller else "helper")

        with pytest.raises(BlockFailed, match="^caller$"):
            _map_blocks(fn, 30)
        assert threading.active_count() == before

    def test_interrupt_on_the_caller_stops_the_helper(self):
        # With a long switch interval each thread keeps the interpreter lock
        # until it blocks: the helper, once started, runs into its first
        # block and waits there for the event; the caller's first block sets
        # it and raises, and the caller sets the stop flag before it blocks
        # to join the helper. So the helper runs exactly one block.
        from centest.simulation import _map_blocks

        before = threading.active_count()
        caller = threading.get_ident()
        interrupted = threading.Event()
        helper_blocks = []

        def fn(rows):
            if threading.get_ident() == caller:
                interrupted.set()
                raise KeyboardInterrupt
            assert interrupted.wait(timeout=10)
            helper_blocks.append(rows.start)
            return rows

        interval = sys.getswitchinterval()
        sys.setswitchinterval(10.0)
        try:
            with pytest.raises(KeyboardInterrupt):
                _map_blocks(fn, 30)
        finally:
            sys.setswitchinterval(interval)
        assert helper_blocks == [7]
        assert threading.active_count() == before

    def test_helper_scoring_exception_reaches_the_caller(self, monkeypatch):
        import centest.simulation as simulation

        real = simulation._tests_block

        def failing_on_the_helper(*args, **kwargs):
            if threading.current_thread() is not threading.main_thread():
                raise BlockFailed("scored on the helper thread")
            return real(*args, **kwargs)

        monkeypatch.setattr(simulation, "_tests_block", failing_on_the_helper)
        cfg = DgpConfig(dgp="ar1", skewness=0.25, n_obs=60, seed=36, burn_in=20)
        before = threading.active_count()
        with pytest.raises(BlockFailed, match="^scored on the helper thread$"):
            run_size_experiment(cfg, 2, 100)
        assert threading.active_count() == before
