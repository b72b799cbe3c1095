import math

import numpy as np
import pytest

from centest import (
    MEAN_VERTEX,
    MEDIAN_VERTEX,
    MODE_VERTEX,
    DegenerateErrors,
    ForecastDataset,
    Functional,
    SingularMatrixError,
    bandwidth_rule_of_thumb,
    chi_square_sf,
    confidence_set,
    get_kernel,
    gmm_objective,
    instrument_moment_test,
    mode_test,
)

from conftest import make_dataset


def dataset_from_errors(errors, instruments=None):
    errors = np.asarray(errors, dtype=float)
    t = errors.size
    h = np.ones((t, 1)) if instruments is None else np.asarray(instruments)
    return ForecastDataset(np.zeros(t), errors, h)


class TestInstrumentMomentTest:
    def test_mean_balanced_errors_zero_statistic(self):
        result = instrument_moment_test("mean", dataset_from_errors([1.0, -1.0]))
        assert result.statistic == pytest.approx(0.0, abs=1e-15)
        assert result.p_value == 1.0
        assert result.df == 1

    def test_mean_one_sided_fixture(self):
        # sum vh = 2, Omega = 1, J = (1/2) * 2 * 1 * 2 = 2
        result = instrument_moment_test("mean", dataset_from_errors([1.0, 1.0]))
        assert result.statistic == pytest.approx(2.0, rel=1e-12)
        # chi-square(1) upper tail at 2: erfc(sqrt(x/2)) oracle
        oracle = math.erfc(math.sqrt(2.0 / 2.0))
        assert result.p_value == pytest.approx(oracle, rel=1e-10)
        assert result.p_value == pytest.approx(0.1573, abs=5e-5)

    def test_median_ignores_magnitudes(self):
        result = instrument_moment_test("median", dataset_from_errors([3.0, -5.0]))
        assert result.statistic == pytest.approx(0.0, abs=1e-15)
        assert result.p_value == 1.0

    def test_median_depends_only_on_signs(self, rng):
        errors = rng.standard_normal(120) * 7.3
        h = np.column_stack([np.ones(120), rng.normal(2.0, 1.0, 120)])
        raw = instrument_moment_test("median", dataset_from_errors(errors, h))
        signed = instrument_moment_test("median",
                                        dataset_from_errors(np.sign(errors), h))
        assert raw.statistic == pytest.approx(signed.statistic, rel=1e-12)

    def test_zero_errors_singular(self):
        with pytest.raises(SingularMatrixError):
            instrument_moment_test("mean", dataset_from_errors([0.0, 0.0, 0.0]))

    def test_mode_kind_rejected(self, rng):
        with pytest.raises(ValueError):
            instrument_moment_test("mode", make_dataset(rng))

    def test_covariance_is_uncentered_outer_product(self, rng):
        ds = make_dataset(rng, t=50, k=2)
        result = instrument_moment_test("mean", ds)
        errors = ds.forecasts - ds.realizations
        vh = errors[:, None] * ds.instruments
        assert np.allclose(result.covariance, vh.T @ vh / 50, atol=1e-12)

    def test_statistic_equals_self_normalized_form(self, rng):
        # (1/T) a' [(1/T)B]^{-1} a reduces to a' B^{-1} a
        ds = make_dataset(rng, t=70, k=2)
        errors = ds.forecasts - ds.realizations
        vh = errors[:, None] * ds.instruments
        a = vh.sum(axis=0)
        reduced = float(a @ np.linalg.solve(vh.T @ vh, a))
        result = instrument_moment_test("mean", ds)
        assert result.statistic == pytest.approx(reduced, rel=1e-10)


class TestModeTest:
    def test_tiny_fixture_against_literal_transcription(self):
        errors = [0.3, -0.7, 1.1, 0.2]
        delta = 0.8
        t = 4

        def kprime(u):
            return -u * math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)

        # independent arithmetic transcription of the moment, covariance and
        # Wald form with scalar instrument h = 1
        psi = [-(delta ** -2.0) * kprime(e / delta) for e in errors]
        m = delta ** 1.5 * t ** -0.5 * sum(psi)
        omega = sum(delta ** -1.0 * kprime(e / delta) ** 2 for e in errors) / t
        oracle = m * m / omega

        ds = dataset_from_errors(errors)
        result = mode_test(ds, delta=delta)
        assert result.statistic == pytest.approx(oracle, rel=1e-10)
        assert result.p_value == pytest.approx(chi_square_sf(1, oracle), rel=1e-12)
        assert result.bandwidth == delta
        assert result.functional is Functional.MODE

    def test_default_bandwidth_is_rule_of_thumb(self, rng):
        ds = make_dataset(rng, t=150, k=2, skew=0.3)
        errors = ds.forecasts - ds.realizations
        expected = bandwidth_rule_of_thumb(errors, 150).delta
        result = mode_test(ds)
        assert result.bandwidth == pytest.approx(expected, rel=1e-15)

    def test_degenerate_errors(self):
        ds = dataset_from_errors([0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateErrors):
            mode_test(ds)

    def test_invalid_bandwidth(self, rng):
        with pytest.raises(ValueError):
            mode_test(make_dataset(rng), delta=-1.0)

    def test_statistic_nonnegative_and_consistent(self, rng):
        for _ in range(10):
            ds = make_dataset(rng, t=90, k=2, skew=0.5)
            result = mode_test(ds)
            assert result.statistic >= 0.0
            assert result.p_value == pytest.approx(
                chi_square_sf(result.df, result.statistic), rel=1e-12
            )

    def test_covariance_matches_definition(self, rng):
        ds = make_dataset(rng, t=60, k=2)
        delta = 0.7
        result = mode_test(ds, delta=delta)
        errors = ds.forecasts - ds.realizations
        kernel = get_kernel("gaussian")
        w = delta ** -1.0 * kernel.deriv_at(errors / delta) ** 2
        omega = (ds.instruments * w[:, None]).T @ ds.instruments / 60
        assert np.allclose(result.covariance, omega, atol=1e-12)


class TestBiweightKernel:
    def test_mode_test_runs_with_biweight(self, rng):
        ds = make_dataset(rng, t=200, k=2, skew=0.4)
        result = mode_test(ds, kernel=get_kernel("biweight"))
        assert result.statistic >= 0.0
        assert 0.0 <= result.p_value <= 1.0
        assert result.p_value == pytest.approx(
            chi_square_sf(result.df, result.statistic), rel=1e-12
        )

    def test_biweight_and_gaussian_agree_in_order_of_magnitude(self, rng):
        # the kernels share the identification target; wildly different
        # statistics on the same data would signal a scaling bug
        ds = make_dataset(rng, t=400, k=2, skew=0.4)
        delta = 1.2
        j_gauss = mode_test(ds, delta=delta).statistic
        j_bi = mode_test(ds, delta=delta, kernel=get_kernel("biweight")).statistic
        assert 0.05 < (j_bi + 0.1) / (j_gauss + 0.1) < 20.0


class TestInvariances:
    @pytest.mark.parametrize("kind", ["mean", "median"])
    def test_instrument_transform_invariance_moment_tests(self, kind, rng):
        for k in (1, 2, 3):
            ds = make_dataset(rng, t=100, k=k, skew=0.4)
            a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
            transformed = ForecastDataset(
                ds.realizations, ds.forecasts, ds.instruments @ a.T
            )
            j0 = instrument_moment_test(kind, ds).statistic
            j1 = instrument_moment_test(kind, transformed).statistic
            assert j1 == pytest.approx(j0, rel=1e-8)

    def test_instrument_transform_invariance_mode_test(self, rng):
        for k in (1, 2, 3):
            ds = make_dataset(rng, t=100, k=k, skew=0.4)
            a = rng.standard_normal((k, k)) + 2.0 * np.eye(k)
            transformed = ForecastDataset(
                ds.realizations, ds.forecasts, ds.instruments @ a.T
            )
            delta = 0.6
            j0 = mode_test(ds, delta=delta).statistic
            j1 = mode_test(transformed, delta=delta).statistic
            assert j1 == pytest.approx(j0, rel=1e-8)

    def test_mode_scale_equivariance_with_rule_bandwidth(self, rng):
        t = 200
        x = rng.normal(5.0, 1.0, t)
        y = x + rng.standard_normal(t) + 0.3 * (rng.standard_normal(t) ** 2 - 1)
        for c in (0.1, 3.7, 120.0):
            base = ForecastDataset(y, x, np.column_stack([np.ones(t), x]))
            scaled = ForecastDataset(
                c * y, c * x, np.column_stack([np.ones(t), c * x])
            )
            j0 = mode_test(base).statistic
            j1 = mode_test(scaled).statistic
            assert j1 == pytest.approx(j0, rel=1e-8)


TESTS = {
    "mean": lambda ds: instrument_moment_test("mean", ds),
    "median": lambda ds: instrument_moment_test("median", ds),
    "mode": lambda ds: mode_test(ds),
    "mode-delta": lambda ds: mode_test(ds, delta=0.6),
}


class TestInstrumentCount:
    @pytest.mark.parametrize("name", sorted(TESTS))
    @pytest.mark.parametrize("t, k", [(3, 3), (2, 3)])
    def test_k_at_or_above_n_obs_raises_before_any_work(self, rng, monkeypatch,
                                                         name, t, k):
        # at k = n_obs, J would equal k whatever the data
        import centest.rationality as rationality

        def unreachable(*args, **kwargs):
            raise AssertionError("test kernel reached with k >= n_obs")

        monkeypatch.setattr(rationality, "_objective_rows", unreachable)
        ds = ForecastDataset(rng.standard_normal(t), rng.standard_normal(t),
                             rng.standard_normal((t, k)))
        with pytest.raises(ValueError) as test_error:
            TESTS[name](ds)
        with pytest.raises(ValueError) as cset_error:
            confidence_set(ds, m=1)
        assert str(test_error.value) == (
            f"a test needs fewer instruments than observations, got k = {k} and "
            f"n_obs = {t}")
        assert str(test_error.value) == str(cset_error.value).replace(
            "a confidence set", "a test")

    @pytest.mark.parametrize("theta", [MEAN_VERTEX, MEDIAN_VERTEX, MODE_VERTEX])
    @pytest.mark.parametrize("t, k", [(3, 3), (2, 3)])
    def test_objective_refuses_k_at_or_above_n_obs(self, rng, monkeypatch, theta,
                                                    t, k):
        # at k = n_obs, S_T would equal k wherever Sigma is nonsingular
        import centest.central_tendency as central_tendency

        def unreachable(*args, **kwargs):
            raise AssertionError("objective kernel reached with k >= n_obs")

        monkeypatch.setattr(central_tendency, "_objective_rows", unreachable)
        ds = ForecastDataset(rng.standard_normal(t), rng.standard_normal(t),
                             rng.standard_normal((t, k)))
        with pytest.raises(ValueError, match=(
                f"^an objective needs fewer instruments than observations, got "
                f"k = {k} and n_obs = {t}$")):
            gmm_objective(theta, ds)

    def test_k_below_n_obs_runs(self, rng):
        ds = ForecastDataset(rng.standard_normal(4), rng.standard_normal(4),
                             rng.standard_normal((4, 3)))
        assert instrument_moment_test("mean", ds).df == 3


class TestOneAnswerAtEveryVertex:
    """A single-functional test is S_T at its vertex: the test, gmm_objective
    and the m = 1 scan read one Gram and give one statistic."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_tests_equal_the_vertex_objectives(self, rng, k):
        ds = make_dataset(rng, t=150, k=k, skew=0.4)
        for delta in (None, 0.6):
            scan = {p.theta: p.objective for p in confidence_set(ds, m=1, delta=delta).points}
            pairs = [(mode_test(ds, delta=delta), MODE_VERTEX)]
            if delta is None:
                pairs += [(instrument_moment_test("mean", ds), MEAN_VERTEX),
                          (instrument_moment_test("median", ds), MEDIAN_VERTEX)]
            for result, vertex in pairs:
                objective = gmm_objective(vertex, ds, delta=delta)
                assert result.statistic == pytest.approx(objective, rel=1e-12, abs=0.0)
                assert result.statistic == pytest.approx(scan[vertex], rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("scale", [1e4, 4e4, 4.7e4, 5e4, 1e6])
    def test_badly_scaled_nearly_collinear_instruments_fail_or_pass_together(
            self, scale):
        # (1, s (x + z / 100)): the whitener's floor decides for the test and
        # for gmm_objective at once, so both raise or both return the same J.
        # At s = 4.7e4 an unwhitened covariance floor would pass the mode test
        # while the vertex objective failed.
        ds = scaled_collinear_dataset(scale)
        for name, vertex in (("mean", MEAN_VERTEX), ("median", MEDIAN_VERTEX),
                             ("mode-delta", MODE_VERTEX)):
            try:
                statistic = TESTS[name](ds).statistic
            except SingularMatrixError as exc:
                assert "instrument second-moment matrix is singular" in str(exc)
                with pytest.raises(SingularMatrixError, match="instrument second-moment"):
                    gmm_objective(vertex, ds, delta=0.6)
            else:
                assert statistic == pytest.approx(gmm_objective(vertex, ds, delta=0.6),
                                                  rel=1e-12, abs=0.0)

    def test_scaled_family_covers_both_outcomes(self):
        def raises(scale):
            try:
                instrument_moment_test("mean", scaled_collinear_dataset(scale))
            except SingularMatrixError:
                return True
            return False

        assert not raises(1e4) and raises(1e6)

    def test_degenerate_mode_bandwidth_still_gets_a_mean_test(self):
        # most errors are exactly zero, so the errors' MAD is zero: the mode's
        # rule-of-thumb bandwidth fails, and the mean and median tests never
        # compute it
        t = 60
        errors = np.zeros(t)
        errors[::4] = np.linspace(-2.0, 3.0, 15)
        h = np.column_stack([np.ones(t), np.cos(0.7 * np.arange(t))])
        ds = dataset_from_errors(errors, h)
        with pytest.raises(DegenerateErrors):
            mode_test(ds)
        for kind, vertex in (("mean", MEAN_VERTEX), ("median", MEDIAN_VERTEX)):
            result = instrument_moment_test(kind, ds)
            assert np.isfinite(result.statistic) and result.bandwidth is None
            assert result.statistic == pytest.approx(
                gmm_objective(vertex, ds, delta=1.0), rel=1e-12, abs=0.0)


def scaled_collinear_dataset(scale):
    """240 rows from closed-form arithmetic with instruments (1, scale * (x +
    z / 100)): badly scaled, and nearly collinear with the constant."""
    t = np.arange(240, dtype=float)
    x = 1.0 + np.sin(0.37 * t)
    z = np.cos(1.3 * t + 0.2)
    y = x + np.sin(1.7 * t + 0.3) + 0.4 * np.sin(2.9 * t) ** 2
    return ForecastDataset(y, x, np.column_stack([np.ones(t.size), scale * (x + z / 100)]))


def golden_dataset(k):
    """A fixed dataset of 240 rows with k instruments, built from closed-form
    arithmetic so it does not depend on a random number generator."""
    t = np.arange(240, dtype=float)
    x = np.sin(0.37 * t) + 0.5 * np.cos(0.11 * t)
    noise = 0.15 + (np.sin(1.7 * t + 0.3) * (1.0 + 0.4 * np.cos(0.23 * t) + 0.5 * x)
                    + 0.6 * np.sin(2.9 * t) ** 2)
    cols = [np.ones(t.size), x, np.cos(0.53 * t + 1.0)][:k]
    return ForecastDataset(x + noise, x, np.column_stack(cols))


# (k, test) -> (statistic, p-value, covariance row-major), recorded from the
# separate mean/median Wald algebra and mode-test kernel that the vertex case
# of the S_T engine replaced; the mode tests use the rule-of-thumb bandwidth
GOLDEN = {
    (1, 'mean'): (55.75533727678363, 8.207514617738486e-14, [0.8692098017039492]),
    (1, 'median'): (32.266666666666666, 1.3439929353717252e-08, [1.0]),
    (1, 'gaussian'): (2.9988502966729964, 0.08332362652702703, [0.0559636243119274]),
    (1, 'biweight'): (0.5608890264891643, 0.4539022619377059, [0.8675957430885671]),
    (2, 'mean'): (68.88308664193455, 1.102117218494136e-15, [0.8692098017039496, 0.35119974379434604, 0.35119974379434604, 0.655882533624462]),
    (2, 'median'): (40.41288941987389, 1.676689187076779e-09, [1.0, 0.020904694683916127, 0.020904694683916127, 0.6296865415404475]),
    (2, 'gaussian'): (17.28401226490049, 0.0001765323993966794, [0.055963624311927404, -0.007327569992267172, -0.007327569992267172, 0.033680972460674544]),
    (2, 'biweight'): (1.6834142094025029, 0.4309741770539557, [0.8675957430885668, -0.18584383559916312, -0.1858438355991631, 0.43844107573568253]),
    (3, 'mean'): (69.02015033919565, 6.919165357398632e-15, [0.8692098017039496, 0.35119974379434604, 0.013611896564170948, 0.35119974379434604, 0.655882533624462, 0.0065356903242357, 0.013611896564170948, 0.0065356903242357, 0.4254702265403218]),
    (3, 'median'): (40.43852769690907, 8.60181195461535e-09, [1.0, 0.020904694683916127, 0.0007471927546685307, 0.020904694683916127, 0.6296865415404475, -0.005363298689531575, 0.0007471927546685307, -0.005363298689531575, 0.4959190321104663]),
    (3, 'gaussian'): (17.524349484510314, 0.0005512389552616943, [0.055963624311927404, -0.007327569992267172, -6.782010837581394e-05, -0.007327569992267172, 0.033680972460674544, 0.000694985839335279, -6.782010837581438e-05, 0.0006949858393352797, 0.028246521676312517]),
    (3, 'biweight'): (1.957414173000769, 0.5812924308837959, [0.8675957430885668, -0.18584383559916312, -0.012272323692259009, -0.1858438355991631, 0.43844107573568253, 0.009671570627649529, -0.012272323692259009, 0.009671570627649529, 0.3738893154016995]),
}


class TestGolden:
    @pytest.mark.parametrize("key", sorted(GOLDEN), ids=lambda key: f"k{key[0]}-{key[1]}")
    def test_matches_recorded_statistics(self, key):
        k, name = key
        ds = golden_dataset(k)
        if name in ("mean", "median"):
            result = instrument_moment_test(name, ds)
        else:
            result = mode_test(ds, kernel=get_kernel(name))
        statistic, p_value, covariance = GOLDEN[key]
        assert result.statistic == pytest.approx(statistic, rel=1e-12)
        assert result.p_value == pytest.approx(p_value, rel=1e-12)
        assert result.df == k
        # relative to the matrix's largest entry: an off-diagonal entry near
        # zero is a sum that cancels, whose own relative rounding is larger
        expected = np.reshape(covariance, (k, k))
        assert np.allclose(result.covariance, expected, rtol=0.0,
                           atol=1e-12 * np.abs(expected).max())
