import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centest import (
    ForecastDataset,
    MEAN_VERTEX,
    MEDIAN_VERTEX,
    MODE_VERTEX,
    SimplexWeights,
    SingularMatrixError,
    chi_square_quantile,
    chi_square_sf,
    combined_moment,
    confidence_set,
    gmm_objective,
    gmm_objective_from_stacked,
    instrument_moment_test,
    mode_test,
    sigma_hat,
    simplex_grid,
    solve_spd,
    stacked_moments,
)

from conftest import make_dataset


class TestSimplexWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimplexWeights(0.5, 0.6, 0.1)
        with pytest.raises(ValueError):
            SimplexWeights(-0.1, 0.6, 0.5)
        with pytest.raises(ValueError):
            SimplexWeights.from_array([0.5, 0.5])

    def test_vertices(self):
        assert np.array_equal(MEAN_VERTEX.as_array(), [1.0, 0.0, 0.0])
        assert np.array_equal(MEDIAN_VERTEX.as_array(), [0.0, 1.0, 0.0])
        assert np.array_equal(MODE_VERTEX.as_array(), [0.0, 0.0, 1.0])


class TestSimplexGrid:
    def test_m1_is_vertices(self):
        grid = simplex_grid(1)
        assert len(grid) == 3
        arrays = {tuple(p.as_array()) for p in grid}
        assert arrays == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_m2_lattice(self):
        grid = simplex_grid(2)
        assert len(grid) == 6
        arrays = {tuple(p.as_array()) for p in grid}
        assert (0.5, 0.5, 0.0) in arrays
        assert (0.5, 0.0, 0.5) in arrays

    def test_m50_count(self):
        assert len(simplex_grid(50)) == 1326

    def test_deterministic_lexicographic_order(self):
        grid = simplex_grid(3)
        indices = [(round(p.mean * 3), round(p.median * 3)) for p in grid]
        assert indices == sorted(indices)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            simplex_grid(0)

    @given(st.integers(min_value=1, max_value=40))
    @settings(max_examples=25, deadline=None)
    def test_cardinality_and_simplex_membership(self, m):
        grid = simplex_grid(m)
        assert len(grid) == (m + 1) * (m + 2) // 2
        for p in grid:
            arr = p.as_array()
            assert np.all(arr >= 0.0)
            assert abs(arr.sum() - 1.0) <= 1e-12


class TestCombinedMoment:
    def test_vertex_selection(self, rng):
        ds = make_dataset(rng, t=40, k=2)
        stacked = stacked_moments(ds, delta=0.8)
        assert np.array_equal(
            combined_moment(MEAN_VERTEX, stacked), stacked.row("mean")
        )
        assert np.array_equal(
            combined_moment(MODE_VERTEX, stacked), stacked.row("mode")
        )

    def test_equal_weights_fixture(self):
        # rows (1, 1, K'(-1)) at k = 1 average to 0.7473236
        ds = ForecastDataset([0.0, 0.0], [1.0, 1.0], np.ones((2, 1)))
        stacked = stacked_moments(
            ds, delta=1.0, weight_matrices=np.eye(1)[None].repeat(3, 0)
        )
        theta = SimplexWeights(1 / 3, 1 / 3, 1 / 3)
        phi = combined_moment(theta, stacked)
        assert phi[0, 0] == pytest.approx(0.7473236, abs=5e-8)


class TestSigmaHat:
    def test_scalar_uncentered_moment(self):
        phi = np.array([[1.0], [-1.0]])
        assert sigma_hat(phi) == pytest.approx(np.array([[1.0]]))

    def test_single_shared_cluster_cancels(self):
        phi = np.array([[1.0], [-1.0]])
        out = sigma_hat(phi, cluster_labels=[5, 5])
        assert out == pytest.approx(np.array([[0.0]]))

    def test_singleton_clusters_equal_plain(self, rng):
        phi = rng.standard_normal((37, 3))
        plain = sigma_hat(phi)
        clustered = sigma_hat(phi, cluster_labels=np.arange(37))
        assert np.allclose(clustered, plain, atol=1e-12, rtol=0.0)

    def test_wave_grouping_matches_hand_sum(self):
        phi = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 1.0], [1.0, 1.0]])
        labels = np.array([0, 1, 0, 1])
        s0 = phi[0] + phi[2]
        s1 = phi[1] + phi[3]
        expected = (np.outer(s0, s0) + np.outer(s1, s1)) / 4.0
        assert np.allclose(sigma_hat(phi, labels), expected, atol=1e-14)

    def test_label_encoding_irrelevant(self, rng):
        phi = rng.standard_normal((30, 2))
        labels = rng.integers(0, 6, 30)
        relabeled = labels * 13 + 100
        assert np.allclose(
            sigma_hat(phi, labels), sigma_hat(phi, relabeled), atol=1e-14
        )

    def test_label_length_checked(self):
        with pytest.raises(ValueError):
            sigma_hat(np.ones((4, 1)), cluster_labels=[0, 1])


class TestGmmObjective:
    def test_nonnegative_everywhere(self, rng):
        ds = make_dataset(rng, t=80, k=2, skew=0.5)
        stacked = stacked_moments(ds, delta=0.7)
        for theta in simplex_grid(6):
            assert gmm_objective_from_stacked(theta, stacked) >= 0.0

    def test_vertex_identity_mean_median(self, rng):
        for k in (1, 2, 3):
            ds = make_dataset(rng, t=120, k=k, skew=0.4)
            delta = 0.6
            s_mean = gmm_objective(MEAN_VERTEX, ds, delta=delta)
            s_med = gmm_objective(MEDIAN_VERTEX, ds, delta=delta)
            j_mean = instrument_moment_test("mean", ds).statistic
            j_med = instrument_moment_test("median", ds).statistic
            assert s_mean == pytest.approx(j_mean, rel=1e-8)
            assert s_med == pytest.approx(j_med, rel=1e-8)

    def test_vertex_identity_mode(self, rng):
        for k in (1, 2, 3):
            ds = make_dataset(rng, t=120, k=k, skew=0.4)
            delta = 0.6
            s_mode = gmm_objective(MODE_VERTEX, ds, delta=delta)
            j_mode = mode_test(ds, delta=delta).statistic
            assert s_mode == pytest.approx(j_mode, rel=1e-8)

    def test_instrument_transform_invariance(self, rng):
        ds = make_dataset(rng, t=100, k=2, skew=0.4)
        a = np.array([[2.0, 0.3], [-0.4, 1.5]])
        transformed = ForecastDataset(
            ds.realizations, ds.forecasts, ds.instruments @ a.T
        )
        for theta in simplex_grid(4):
            s0 = gmm_objective(theta, ds, delta=0.8)
            s1 = gmm_objective(theta, transformed, delta=0.8)
            assert s1 == pytest.approx(s0, rel=1e-8)

    def test_default_bandwidth_matches_rule(self, rng):
        ds = make_dataset(rng, t=90, k=2, skew=0.3)
        from centest import bandwidth_rule_of_thumb

        delta = bandwidth_rule_of_thumb(
            ds.forecasts - ds.realizations, ds.n_obs
        ).delta
        assert gmm_objective(MEAN_VERTEX, ds) == pytest.approx(
            gmm_objective(MEAN_VERTEX, ds, delta=delta), rel=1e-12
        )

    def test_dataset_cluster_labels_used_by_default(self, rng):
        ds = make_dataset(rng, t=120, k=2, skew=0.4, cluster=True)
        bare = ForecastDataset(ds.realizations, ds.forecasts, ds.instruments)
        clustered = gmm_objective(MEAN_VERTEX, ds, delta=0.8)
        plain = gmm_objective(MEAN_VERTEX, bare, delta=0.8)
        assert clustered != plain
        override = gmm_objective(MEAN_VERTEX, ds, delta=0.8,
                                 cluster_labels=np.arange(120))
        assert override == pytest.approx(plain, rel=1e-12)

    def test_shared_cluster_singularity_raises(self):
        ds = ForecastDataset(
            [0.0, 0.0], [1.0, -1.0], np.ones((2, 1)), cluster_labels=[0, 0]
        )
        with pytest.raises(SingularMatrixError):
            gmm_objective(MEAN_VERTEX, ds, delta=1.0)


class TestConfidenceSet:
    def test_point_count_and_metadata(self, rng):
        ds = make_dataset(rng, t=80, k=2, skew=0.3)
        grid = confidence_set(ds, m=10)
        assert len(grid.points) == 66
        assert grid.resolution == 10
        assert grid.df == 2
        assert grid.n_obs == 80
        assert grid.bandwidth > 0

    def test_membership_flags_match_thresholds(self, rng):
        ds = make_dataset(rng, t=80, k=2, skew=0.3)
        grid = confidence_set(ds, m=6, alpha_levels=(0.05, 0.10))
        q95 = chi_square_quantile(2, 0.95)
        q90 = chi_square_quantile(2, 0.90)
        for p in grid.points:
            assert p.memberships[0.05] == (p.objective <= q95)
            assert p.memberships[0.10] == (p.objective <= q90)
            assert p.p_value == pytest.approx(
                chi_square_sf(2, p.objective), rel=1e-12
            )

    def test_monotone_nesting(self, rng):
        for seed in range(5):
            local = np.random.default_rng(seed)
            ds = make_dataset(local, t=60, k=2, skew=0.6)
            grid = confidence_set(ds, m=8)
            for p in grid.points:
                if p.memberships[0.10]:
                    assert p.memberships[0.05]

    def test_near_degenerate_alpha_limits(self, rng):
        ds = make_dataset(rng, t=100, k=2)
        tight = confidence_set(ds, m=5, alpha_levels=(0.999999,))
        wide = confidence_set(ds, m=5, alpha_levels=(1e-9,))
        # threshold near Q(0): membership only where S is almost zero
        assert len(tight.members(0.999999)) <= 2
        # threshold near infinity: the whole simplex is included
        assert len(wide.members(1e-9)) == len(wide.points)

    def test_per_point_singularity_recorded_not_fatal(self):
        # one shared wave makes every Sigma(theta) rank one; with k = 2 the
        # scan must complete with per-point diagnostics instead of aborting
        x = np.array([1.0, -1.0, 0.5, 2.0])
        ds = ForecastDataset(
            np.zeros(4), x, np.column_stack([np.ones(4), x]),
            cluster_labels=[1, 1, 1, 1],
        )
        grid = confidence_set(ds, m=3, delta=1.0)
        assert len(grid.points) == 10
        assert all(p.note is not None for p in grid.points)
        assert all(np.isnan(p.objective) for p in grid.points)
        assert grid.is_empty(0.05)

    def test_alpha_validation(self, rng):
        ds = make_dataset(rng)
        with pytest.raises(ValueError):
            confidence_set(ds, m=3, alpha_levels=(0.0,))
        with pytest.raises(ValueError):
            confidence_set(ds, m=0)

    def test_bandwidth_shared_across_grid(self, rng):
        ds = make_dataset(rng, t=70, k=2, skew=0.4)
        grid = confidence_set(ds, m=4)
        from centest import bandwidth_rule_of_thumb

        expected = bandwidth_rule_of_thumb(
            ds.forecasts - ds.realizations, ds.n_obs
        ).delta
        assert grid.bandwidth == pytest.approx(expected, rel=1e-15)

    def test_lattice_indices_carried(self, rng):
        ds = make_dataset(rng, t=50, k=1)
        grid = confidence_set(ds, m=3)
        assert [p.index for p in grid.points] == [
            (i, j) for i in range(4) for j in range(4 - i)
        ]

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("cluster", [False, True])
    def test_batched_scan_matches_per_point_reference(self, rng, k, cluster):
        # the batched block-quadratic scan against S_T rebuilt point by point
        # from the combined moment, its covariance and an SPD solve
        ds = make_dataset(rng, t=150, k=k, skew=0.5, cluster=cluster)
        delta = 0.7
        grid = confidence_set(ds, m=10, delta=delta)
        stacked = stacked_moments(ds, delta)
        assert len(grid.points) == 66
        for p in grid.points:
            phi = combined_moment(p.weights, stacked)
            g = phi.sum(axis=0) / np.sqrt(phi.shape[0])
            expected = float(g @ solve_spd(sigma_hat(phi, ds.cluster_labels), g))
            assert p.note is None
            assert p.objective == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert p.p_value == chi_square_sf(k, p.objective)
            assert p.p_value == pytest.approx(chi_square_sf(k, expected), rel=1e-12)
            for a in grid.alpha_levels:
                assert p.memberships[a] == (expected <= chi_square_quantile(k, 1 - a))
