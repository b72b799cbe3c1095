import centest
from centest import central_tendency, identification, numerics, simulation

# names removed from the package: the S_T engine behind gmm_objective and
# confidence_set replaced the pre-engine algebra, stacked_moments carries the
# weight matrices, and central_tendency._theta_array validates every theta
REMOVED = [
    "_beta_array",
    "_eigh_above_floor",
    "combined_moment",
    "gmm_objective_from_stacked",
    "gmm_objectives_from_stacked",
    "inverse_sqrt_spd",
    "kernel_eval",
    "solve_spd",
    "weighting_matrices",
]


def test_all_is_unique_and_resolves():
    assert len(set(centest.__all__)) == len(centest.__all__)
    for name in centest.__all__:
        assert hasattr(centest, name), name


def test_removed_names_stay_removed():
    for module in (centest, central_tendency, identification, numerics, simulation):
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"
