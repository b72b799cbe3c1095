"""Acceptance suite: every criterion at its stated tolerance, one test per
criterion, each printing a pass line with the measured value.

The Monte Carlo criteria run at desk scale (1000-2000 replications) with
fixed seeds; the acceptance bands include the corresponding Monte Carlo
slack.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

from centest import (
    DgpConfig,
    ForecastDataset,
    MEAN_VERTEX,
    MEDIAN_VERTEX,
    MODE_VERTEX,
    RandomStream,
    bandwidth_rule_of_thumb,
    build_instruments,
    chi_square_quantile,
    chi_square_sf,
    generalized_modal_midpoint,
    gmm_objective,
    instrument_moment_test,
    mode_test,
    optimal_forecasts,
    run_coverage_experiment,
    run_size_experiment,
    sigma_hat,
    simplex_grid,
    simulate_dgp,
    skew_normal_params,
)
from centest.cli import main
from centest.numerics import KERNELS

SEED = 20260809


def _ok(criterion, message):
    print(f"[criterion {criterion}] PASS: {message}")


class TestCriterion01ModeTestSizeSymmetric:
    def test_panel_a_symmetric_size(self):
        start = time.time()
        config = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=500,
                           seed=SEED)
        report = run_size_experiment(config, 2, replications=2000,
                                     nominal_alpha=0.05)
        elapsed = time.time() - start
        rate = 100.0 * report.rate
        assert report.successes == 2000
        assert 3.5 <= rate <= 7.0
        assert elapsed < 120.0
        _ok(1, f"rejection {rate:.2f}% in [3.5, 7.0] "
               f"{elapsed:.1f}s")


class TestCriterion02ModeTestSizeSkewed:
    def test_panel_a_skewed_size(self):
        config = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=500,
                           seed=SEED)
        report = run_size_experiment(config, 2, replications=2000,
                                     nominal_alpha=0.05)
        rate = 100.0 * report.rate
        assert report.successes == 2000
        assert 6.0 <= rate <= 10.0
        _ok(2, f"rejection {rate:.2f}% in [6.0, 10.0]")


class TestCriterion03CoverageMeanForecast:
    def test_panel_a_mean_coverage(self):
        config = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=500,
                           seed=SEED)
        report = run_coverage_experiment(config, [1.0, 0.0, 0.0], 2,
                                         replications=1000, level=0.90)
        rate = 100.0 * report.rate
        assert report.successes == 1000
        assert 87.5 <= rate <= 92.5
        _ok(3, f"coverage {rate:.2f}% in [87.5, 92.5]")


class TestCriterion04CoverageModeForecastSkewed:
    def test_panel_a_mode_coverage_skewed(self):
        config = DgpConfig(dgp="homoskedastic-iid", skewness=0.5, n_obs=500,
                           seed=SEED)
        report = run_coverage_experiment(config, [0.0, 0.0, 1.0], 2,
                                         replications=1000, level=0.90)
        rate = 100.0 * report.rate
        assert report.successes == 1000
        assert 83.0 <= rate <= 89.0
        _ok(4, f"coverage {rate:.2f}% in [83, 89]")


class TestCriterion05PowerShape:
    def test_bias_power_strictly_increasing(self):
        config = DgpConfig(dgp="homoskedastic-iid", skewness=0.0, n_obs=500,
                           seed=SEED)
        rates, ses = [], []
        for kappa in (0.0, 0.25, 0.5):
            report = run_size_experiment(
                config, 2, replications=1000, nominal_alpha=0.05,
                distortion="bias", kappa=kappa,
            )
            rates.append(report.rate)
            ses.append(report.mc_standard_error)
        for lo, hi in ((0, 1), (1, 2)):
            gap = rates[hi] - rates[lo]
            two_se = 2.0 * math.hypot(ses[lo], ses[hi])
            assert gap > two_se
        assert rates[2] > 0.5
        _ok(5, "rejection " + " -> ".join(f"{100*r:.1f}%" for r in rates)
               + " strictly increasing, >50% at kappa=0.5")


class TestCriterion06NullPValueUniformity:
    def test_panel_c_p_values_uniform(self):
        config = DgpConfig(dgp="ar1", skewness=0.0, n_obs=2000, seed=SEED)
        p_values = []
        for r in range(1000):
            path = simulate_dgp(config, RandomStream(SEED, 2 * r))
            forecasts = optimal_forecasts(path, config, [0.0, 0.0, 1.0])
            instruments = build_instruments(path, forecasts, 2)
            dataset = ForecastDataset(path.realizations, forecasts, instruments)
            p_values.append(mode_test(dataset).p_value)
        ks = stats.kstest(np.asarray(p_values), "uniform").statistic
        assert ks < 0.0515
        _ok(6, f"KS statistic {ks:.4f} < 0.0515 over 1000 null replications")


class TestCriterion07VertexIdentities:
    def test_fifty_random_datasets(self):
        rng = np.random.default_rng(SEED)
        worst = 0.0
        for i in range(50):
            k = 1 + i % 3
            t = int(rng.integers(40, 160))
            x = rng.normal(1.0, 1.0, t)
            y = x + rng.standard_normal(t) + 0.4 * (rng.standard_normal(t) ** 2 - 1)
            cols = [np.ones(t), x, rng.normal(0.0, 1.0, t)][:k]
            dataset = ForecastDataset(y, x, np.column_stack(cols))
            delta = bandwidth_rule_of_thumb(x - y, t).delta
            pairs = [
                (MEAN_VERTEX, instrument_moment_test("mean", dataset).statistic),
                (MEDIAN_VERTEX, instrument_moment_test("median", dataset).statistic),
                (MODE_VERTEX, mode_test(dataset, delta=delta).statistic),
            ]
            for vertex, j_stat in pairs:
                s_stat = gmm_objective(vertex, dataset, delta=delta)
                # a balanced-sign median statistic can be exactly zero; the
                # identity then requires S to vanish as well
                rel = abs(s_stat - j_stat) / (j_stat if j_stat > 0 else 1.0)
                worst = max(worst, rel)
                assert rel < 1e-8
        _ok(7, f"all 3 vertices on 50 datasets, worst relative gap {worst:.2e}")


class TestCriterion08ExactAlgebraicInvariants:
    def test_instrument_transform_invariance(self):
        rng = np.random.default_rng(SEED + 1)
        worst = 0.0
        for k in (1, 2, 3):
            t = 120
            x = rng.normal(1.0, 1.0, t)
            y = x + rng.standard_normal(t) + 0.3 * (rng.standard_normal(t) ** 2 - 1)
            cols = [np.ones(t), x, rng.normal(0.0, 1.0, t)][:k]
            h = np.column_stack(cols)
            a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
            base = ForecastDataset(y, x, h)
            mapped = ForecastDataset(y, x, h @ a.T)
            delta = 0.7
            for kind in ("mean", "median"):
                j0 = instrument_moment_test(kind, base).statistic
                j1 = instrument_moment_test(kind, mapped).statistic
                worst = max(worst, abs(j1 - j0) / j0)
            j0 = mode_test(base, delta=delta).statistic
            j1 = mode_test(mapped, delta=delta).statistic
            worst = max(worst, abs(j1 - j0) / j0)
            for theta in simplex_grid(4):
                s0 = gmm_objective(theta, base, delta=delta)
                s1 = gmm_objective(theta, mapped, delta=delta)
                worst = max(worst, abs(s1 - s0) / max(s0, 1e-300))
        assert worst < 1e-8
        _ok(8, f"J and S invariant under instrument remaps, worst {worst:.2e}")

    def test_clustered_singletons_equal_unclustered(self):
        rng = np.random.default_rng(SEED + 2)
        phi = rng.standard_normal((200, 3))
        plain = sigma_hat(phi)
        clustered = sigma_hat(phi, cluster_labels=np.arange(200))
        assert np.allclose(clustered, plain, atol=1e-12, rtol=0.0)
        _ok(8, "clustered covariance with singleton waves equals plain")

    def test_bandwidth_positive_homogeneity(self):
        rng = np.random.default_rng(SEED + 3)
        errors = rng.standard_normal(60) + 0.5 * rng.standard_normal(60) ** 2
        base = bandwidth_rule_of_thumb(errors).delta
        for c in (1e-3, 0.17, 2.0, 640.0):
            scaled = bandwidth_rule_of_thumb(c * errors).delta
            assert scaled == pytest.approx(c * base, rel=1e-12)
        _ok(8, "bandwidth homogeneity exact to rounding")

    def test_simplex_grid_cardinality(self):
        for m in (1, 2, 7, 50, 101):
            assert len(simplex_grid(m)) == (m + 1) * (m + 2) // 2
        _ok(8, "grid cardinality (m+1)(m+2)/2 exact")


class TestCriterion09ModalMidpointConvergence:
    def test_skew_normal_midpoint_approaches_mode(self):
        spec = skew_normal_params(0.5)
        density = lambda x: float(spec.pdf(x))  # noqa: E731
        # independent mode: fine-grid maximization of the density
        grid = np.linspace(-4.0, 4.0, 80001)
        mode_oracle = grid[np.argmax(spec.pdf(grid))]
        gaps = []
        for delta in (0.5, 0.2, 0.1, 0.05):
            midpoint = generalized_modal_midpoint(
                density, delta, support=(-8.0, 8.0)
            )
            gaps.append(abs(midpoint - mode_oracle))
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 0.01
        _ok(9, "modal midpoint gaps "
               + " > ".join(f"{g:.4f}" for g in gaps) + " (< 0.01 at 0.05)")


class TestCriterion10SpecialFunctions:
    @staticmethod
    def _chi2_sf_quad(df, x):
        from scipy.special import gammaln

        def density(u):
            return math.exp((df / 2 - 1) * math.log(u) - u / 2
                            - (df / 2) * math.log(2) - gammaln(df / 2))

        return 1.0 - integrate.quad(density, 0, x, epsabs=1e-12, limit=300)[0]

    def test_chi_square_against_bisection_oracle(self):
        worst = 0.0
        for df in (1, 2, 3, 5):
            for p in (0.90, 0.95, 0.99):
                lo, hi = 0.0, 1.0
                while self._chi2_sf_quad(df, hi) > 1.0 - p:
                    hi *= 2.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if self._chi2_sf_quad(df, mid) > 1.0 - p:
                        lo = mid
                    else:
                        hi = mid
                oracle_q = 0.5 * (lo + hi)
                worst = max(worst, abs(chi_square_quantile(df, p) - oracle_q))
                worst = max(worst, abs(chi_square_sf(df, oracle_q) - (1.0 - p)))
        assert worst < 1e-7
        _ok(10, f"chi-square sf/quantile vs bisection oracle, worst {worst:.2e}")

    def test_kernel_integrals_against_quadrature(self):
        worst = 0.0
        for kernel in KERNELS.values():
            lo, hi = kernel.support
            oracle = integrate.quad(lambda u: float(kernel.deriv_at(u)) ** 2,
                                    lo, hi, epsabs=1e-12)[0]
            worst = max(worst, abs(kernel.deriv_sq_integral - oracle))
            mass = integrate.quad(lambda u: float(kernel.value_at(u)), lo, hi,
                                  epsabs=1e-12)[0]
            worst = max(worst, abs(mass - 1.0))
        assert worst < 1e-7
        _ok(10, f"kernel integrals vs quadrature oracles, worst {worst:.2e}")


class TestCliSubstituteForEmpirics:
    """The survey and central-bank datasets behind the original empirical
    applications are not redistributable, so the CLI test and cset paths are
    exercised end to end on simulated CSVs and a synthetic random-walk
    series instead, with byte-identical reruns."""

    def test_cli_paths_end_to_end(self, tmp_path):
        data = tmp_path / "panel_a.csv"
        code = main([
            "simulate", "--experiment", "size", "--dgp", "homoskedastic-iid",
            "--gamma", "0.5", "--sample-size", "400", "--replications", "100",
            "--seed", str(SEED), "--out-dataset", str(data),
        ])
        assert code == 0

        outputs = {}
        for run in ("first", "second"):
            files = {
                "test": tmp_path / f"test_{run}.json",
                "json": tmp_path / f"cset_{run}.json",
                "csv": tmp_path / f"cset_{run}.csv",
                "svg": tmp_path / f"cset_{run}.svg",
            }
            assert main([
                "test", "--input", str(data), "--functional", "mode",
                "--instruments", "const,xinst", "--out-json", str(files["test"]),
            ]) == 0
            assert main([
                "cset", "--input", str(data), "--instruments", "const,xinst",
                "--grid-m", "12", "--out-json", str(files["json"]),
                "--out-csv", str(files["csv"]), "--out-svg", str(files["svg"]),
            ]) == 0
            outputs[run] = {k: p.read_bytes() for k, p in files.items()}
        assert outputs["first"] == outputs["second"]

        rng = np.random.default_rng(SEED)
        prices = 80.0 + np.cumsum(rng.standard_normal(600) * 0.4)
        price_file = tmp_path / "prices.csv"
        price_file.write_text(
            "price\n" + "\n".join(f"{p:.17g}" for p in prices) + "\n"
        )
        rw_json = tmp_path / "rw.json"
        assert main([
            "test", "--input", str(price_file), "--functional", "mean",
            "--random-walk", "--out-json", str(rw_json),
        ]) == 0
        _ok("CLI", "test and cset exercised end-to-end with byte-identical "
                   "reruns; random-walk series tested")
