import json
import math
import sys
import threading

import numpy as np
import pytest
from scipy import integrate, optimize

from centest import (
    DegenerateErrors,
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
    implied_theta,
    optimal_forecasts,
    run_coverage_experiment,
    run_grid_coverage_experiment,
    run_size_experiment,
    simulate_dgp,
    simulate_paths,
    skew_normal_params,
    stacked_moments,
)
from centest.dataio import report_to_dict
from centest.simulation import MAX_MOMENT_SKEWNESS

DGPS = ["homoskedastic-iid", "heteroskedastic", "ar1", "ar-garch"]


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


class TestSkewNormalParams:
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
        draws = spec.sample(rng, 1_000_000)
        assert abs(draws.mean()) < 0.005
        assert abs(draws.var() - 1.0) < 0.01

    def test_skewness_bound(self):
        with pytest.raises(ValueError):
            skew_normal_params(0.996)
        with pytest.raises(ValueError):
            DgpConfig(dgp="ar1", skewness=-MAX_MOMENT_SKEWNESS, n_obs=100, seed=0)


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
        xi = spec.sample(rng, 3 + 10 + 2)
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
        with pytest.raises(ValueError):
            DgpConfig(dgp="ar1", skewness=0.0, n_obs=50, seed=1, burn_in=0)

    def test_garch_one_row_branch_matches_vector_loop(self):
        from centest.simulation import _GARCH_ROW_LOOP_BELOW, _garch_sigma

        # the smallest block that takes the vector loop, against short blocks
        # (one row, two rows, the largest short block) on the float branch
        xi = RandomStream(13, 2).generator().standard_normal((_GARCH_ROW_LOOP_BELOW, 400))
        block = _garch_sigma(xi)
        assert block.shape == xi.shape
        for rows in (1, 2, _GARCH_ROW_LOOP_BELOW - 1):
            short = _garch_sigma(xi[:rows])
            assert short.shape == (rows, 400)
            assert np.array_equal(short, block[:rows])
        for j in range(len(xi)):
            assert np.array_equal(_garch_sigma(xi[j:j + 1]), block[j:j + 1])

    def test_garch_matches_hand_recursion(self):
        cfg = DgpConfig(dgp="ar-garch", skewness=0.5, n_obs=10, seed=9, burn_in=3)
        path = simulate_dgp(cfg)
        rng = RandomStream(9, 0).generator()
        xi = skew_normal_params(0.5).sample(rng, 3 + 10 + 2)
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


FIELDS = ("realizations", "cond_loc", "sigma_next", "innovations",
          "covariates", "extra_instrument")


# sha256 of each field's bytes for DgpConfig(dgp, skewness, n_obs=40,
# seed=2024, burn_in=10) and stream 7, recorded while every stream still made
# one draw call per normal vector (covariates, U1, U2) and one Philox per
# path; a change that reorders or re-keys the draws changes them
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
        "1fd44c0f2a4eefbe21290abb74103f5741a5617aff63af8a2d6e1612a948d5e8",
        "f1711c0e09052d818329d56fad827e9569e7baeee5e49329bc0bbe62fd2668b7",
        "3cca0973449651db62b466d5095a8a452eb45737ff9ab6a711ec07d33ba54f87",
        "a1362e7af8076f604179c78fa3c3047314ba5f4c75c04264ffe665b0dddbaa07",
        "bf767733d40370f8ee33b273f3e64d3e7393d5b5f83a31deefc6dd1f177abfc0",
        "e0998a7d1ac843dac82c492680de80e767b0fa9315756093793764be93f3e2d2",
    ),
    ("ar-garch", 0.5): (
        "2fa8c6c9c488d02333ff2b2ffc723de70329810e0dc21312b743d3722bb96a6a",
        "a32191b60c386f0162f01491ca5ec9b00d4785d5854d44434da73433729d975e",
        "208de4a76a6a9ae7ea0850ba0c87baeedc521233605bba445ae31184ab34670e",
        "57ea881ac435fbe18d944e863676226ad73fbbc6d02b5a9cacd48430bfc030ad",
        "fa6f0faf4eea0b5807cafd2d56b914e83b598a389f106d587289d030cc508aec",
        "773e590492dd8df2ec04372d20a5b5faed94aaa220602c30b6a0e75728217459",
    ),
}


class TestSimulatePaths:
    @pytest.mark.parametrize("dgp, skewness", sorted(GOLDEN_PATHS))
    def test_paths_match_recorded_digests(self, dgp, skewness):
        import hashlib

        cfg = DgpConfig(dgp=dgp, skewness=skewness, n_obs=40, seed=2024, burn_in=10)
        path = simulate_dgp(cfg, RandomStream(cfg.seed, 7))
        digests = tuple(hashlib.sha256(getattr(path, name).tobytes()).hexdigest()
                        for name in FIELDS)
        assert digests == GOLDEN_PATHS[dgp, skewness]

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
        paths = list(simulate_paths(cfg, ids))
        assert len(paths) == len(ids)
        for stream_id, path in zip(ids, paths):
            single = simulate_dgp(cfg, RandomStream(cfg.seed, stream_id))
            for name in FIELDS:
                assert np.array_equal(getattr(path, name), getattr(single, name))
                assert getattr(path, name).shape == getattr(single, name).shape

    def test_empty_stream_list(self):
        cfg = DgpConfig(dgp="ar-garch", skewness=0.0, n_obs=20, seed=1)
        assert list(simulate_paths(cfg, [])) == []


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


class TestImpliedTheta:
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
        assert np.array_equal(out.evaluation_point.as_array(), [0.0, 1.0, 0.0])

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
        weights = stacked_moments(
            ForecastDataset(np.zeros(n), errors, h), delta).weight_matrices
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
        from centest import biweight_kernel

        cfg = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=500,
                        seed=32)
        report = run_size_experiment(cfg, 2, 500, kernel=biweight_kernel())
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

        real_forecasts = simulation._block_forecasts
        real_tests = simulation._tests_block
        monkeypatch.setattr(simulation, "_cores", lambda: 2)
        cfg = DgpConfig(dgp="ar-garch", skewness=0.25, n_obs=60, seed=35,
                        burn_in=20)

        def run(broken):
            p_values = [None] * 200

            def forecasts(paths, shift):
                x = real_forecasts(paths, shift)
                if broken and len(x) == 72:
                    x[2] = paths.realizations[2]
                return x

            def recording_tests(*args, **kwargs):
                results, failures = real_tests(*args, **kwargs)
                first = {128: 0, 72: 128}[len(results)]
                for i, result in enumerate(results):
                    p_values[first + i] = None if result is None else result.p_value
                return results, failures

            monkeypatch.setattr(simulation, "_block_forecasts", forecasts)
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
        import centest.simulation as simulation

        real = simulation._objectives_block
        calls = []

        def one_singular_point(thetas, per_obs, cluster_labels=None):
            objectives, notes = real(thetas, per_obs, cluster_labels)
            for row_objectives, row_notes in zip(objectives, notes):
                calls.append(None)
                if len(calls) == 7:
                    row_objectives[2] = np.nan
                    row_notes[2] = "eigenvalue forced below floor"
            return objectives, notes

        monkeypatch.setattr(simulation, "_objectives_block", one_singular_point)
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
    # realizations 0 make forecasts - realizations the errors exactly
    return ForecastDataset(np.zeros(errors.size), errors, instruments)


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
        np.column_stack([np.ones(t), z]),
        np.column_stack([np.ones(t), z]),
        np.column_stack([np.ones(t), np.ones(t)]),
        np.column_stack([np.ones(t), z]),
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
        for (kind, errors, instruments, kernel), (results, failures) in seen:
            assert kind is Functional.MODE
            assert failures == [None] * len(errors)
            for e, h, result in zip(errors, instruments, results):
                single = mode_test(_dataset(e, h), kernel=kernel)
                assert result.statistic == pytest.approx(single.statistic, rel=1e-12)
                assert result.p_value == pytest.approx(single.p_value, rel=1e-12,
                                                       abs=1e-300)
                assert (result.p_value < 0.05) == (single.p_value < 0.05)
                assert result.bandwidth == single.bandwidth
                assert np.array_equal(result.covariance, single.covariance)

    @pytest.mark.parametrize("dgp", DGPS)
    def test_objective_rows_match_one_row_calls(self, monkeypatch, dgp):
        from centest import chi_square_quantile, gmm_objective

        seen = _record(monkeypatch, "_objective_rows")
        cfg = DgpConfig(dgp=dgp, skewness=0.5, n_obs=80, seed=42, burn_in=20)
        run_coverage_experiment(cfg, [0.5, 0.0, 0.5], 2, 100, draws=20)
        run_grid_coverage_experiment(cfg, [0, 1, 0], 2, 100, m=2)
        assert len(seen) == 2
        quantile = chi_square_quantile(2, 0.90)
        for (errors, instruments, thetas, kernel), (rows, failures) in seen:
            assert failures == [None] * len(errors)
            for e, h, s in zip(errors, instruments, rows):
                single = np.array([gmm_objective(th, _dataset(e, h), kernel=kernel)
                                   for th in thetas])
                assert s == pytest.approx(single, rel=1e-12)
                assert np.array_equal(s <= quantile, single <= quantile)

    @pytest.mark.parametrize("kernel", ["gaussian", "biweight"])
    def test_failed_rows_carry_the_one_row_exception(self, kernel):
        import warnings

        from centest import get_kernel, gmm_objective, mode_test
        from centest.rationality import _tests_block
        from centest.simulation import _objective_rows

        k = get_kernel(kernel)
        errors, instruments = _failure_block()
        thetas = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tests, test_failures = _tests_block(Functional.MODE, errors, instruments, k)
            objectives, objective_failures = _objective_rows(
                errors, instruments, thetas, k)
        for i, (e, h) in enumerate(zip(errors, instruments)):
            ds = _dataset(e, h)
            expected = _raised(lambda: mode_test(ds, kernel=k))
            if expected is None:
                assert test_failures[i] is None
                assert tests[i].statistic == mode_test(ds, kernel=k).statistic
            else:
                assert tests[i] is None
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
        # every failure the checks can report occurs in the block
        assert test_failures[0] is None and objective_failures[0] is None
        assert "median absolute deviation" in str(test_failures[1])
        assert "collinear instruments" in str(objective_failures[2])
        if kernel == "biweight":
            assert "for the mode row is singular" in str(objective_failures[3])

    def test_failed_rows_counted_alone(self, monkeypatch):
        # replication 3 forecasts its realizations (zero errors) and
        # replication 5 gets collinear instruments; both sit in one block
        import centest.simulation as simulation

        real_forecasts = simulation._block_forecasts
        real_instruments = simulation._block_instruments

        def run(experiment, broken):
            def forecasts(paths, shift):
                x = real_forecasts(paths, shift)
                assert len(x) == 100
                if broken:
                    x[3] = paths.realizations[3]
                return x

            def instruments(paths, x, instrument_set, out=None):
                h = real_instruments(paths, x, instrument_set, out)
                if broken:
                    h[5, :, 1] = 1.0
                return h

            monkeypatch.setattr(simulation, "_block_forecasts", forecasts)
            monkeypatch.setattr(simulation, "_block_instruments", instruments)
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
    """_map_blocks with the helper thread forced on and blocks of 7 streams."""

    @pytest.fixture(autouse=True)
    def two_cores(self, monkeypatch):
        import centest.simulation as simulation

        monkeypatch.setattr(simulation, "_cores", lambda: 2)
        monkeypatch.setattr(simulation, "_CHUNK", 7)

    @staticmethod
    def streams(n):
        return (RandomStream(0, i) for i in range(n))

    def test_caller_and_helper_alternate_in_block_order(self):
        from centest.simulation import _map_blocks

        before = threading.active_count()
        threads = {}

        def fn(first, streams):
            threads[first] = threading.get_ident()
            return first, len(streams)

        out = list(_map_blocks(fn, self.streams(30)))
        assert out == [(0, 7), (7, 7), (14, 7), (21, 7), (28, 2)]
        caller = threading.get_ident()
        assert [threads[first] == caller for first, _ in out] == [
            True, False, True, False, True]
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0, 7, 14], ids=["caller", "helper", "caller-later"])
    def test_block_exception_reaches_the_consumer(self, failing):
        from centest.simulation import _map_blocks

        before = threading.active_count()

        def fn(first, streams):
            if first == failing:
                raise BlockFailed(f"block {first} failed")
            return first

        seen = []
        with pytest.raises(BlockFailed, match=f"^block {failing} failed$"):
            for first in _map_blocks(fn, self.streams(30)):
                seen.append(first)
        assert seen == list(range(0, failing, 7))
        assert threading.active_count() == before

    def test_early_close_joins_the_helper(self):
        from centest.simulation import _map_blocks

        before = threading.active_count()
        blocks = _map_blocks(lambda first, streams: first, self.streams(30))
        assert next(blocks) == 0
        assert threading.active_count() == before + 1
        blocks.close()
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
