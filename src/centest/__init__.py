"""centest: rationality tests for point forecasts of the mean, median, mode,
and any convex combination of the three.

The library provides the classical instrument-moment tests for mean and
median forecasts, a nonparametric mode rationality test built on a
shrinking-bandwidth smoothed identification function, weak-identification-
robust confidence sets for the combination weights, and a Monte Carlo
harness that measures size, power and coverage of all the tests at desk scale.
"""

from .bandwidth import (
    BandwidthReport,
    bandwidth_rule_of_thumb,
    median_abs_deviation,
    pearson_second_skewness,
)
from .central_tendency import (
    ConfidenceSetGrid,
    GridPoint,
    MEAN_VERTEX,
    MEDIAN_VERTEX,
    MODE_VERTEX,
    confidence_set,
    gmm_objective,
    sigma_hat,
    simplex_grid,
)
from .dataio import (
    emit_confidence_set,
    load_csv,
    random_walk_forecasts,
    write_dataset_csv,
)
from .errors import DegenerateErrors, MissingColumnError, SingularMatrixError
from .identification import (
    ForecastDataset,
    Functional,
    forecast_errors,
    identification_values,
)
from .numerics import (
    Kernel,
    RandomStream,
    chi_square_quantile,
    chi_square_sf,
    generalized_modal_midpoint,
    get_kernel,
)
from .rationality import TestResult, instrument_moment_test, mode_test
from .simulation import (
    Dgp,
    DgpConfig,
    Distortion,
    GridCoverageReport,
    ImpliedThetaSet,
    InstrumentSet,
    SimulatedPath,
    SimulationReport,
    SkewNormalSpec,
    ThetaSetKind,
    build_instruments,
    distort_forecasts,
    implied_theta,
    optimal_forecasts,
    run_coverage_experiment,
    run_grid_coverage_experiment,
    run_size_experiment,
    simulate_dgp,
    skew_normal_params,
)

__version__ = "0.1.0"

__all__ = [
    "BandwidthReport",
    "ConfidenceSetGrid",
    "DegenerateErrors",
    "Dgp",
    "DgpConfig",
    "Distortion",
    "ForecastDataset",
    "Functional",
    "GridCoverageReport",
    "GridPoint",
    "ImpliedThetaSet",
    "InstrumentSet",
    "Kernel",
    "MEAN_VERTEX",
    "MEDIAN_VERTEX",
    "MODE_VERTEX",
    "MissingColumnError",
    "RandomStream",
    "SimulatedPath",
    "SimulationReport",
    "SingularMatrixError",
    "SkewNormalSpec",
    "TestResult",
    "ThetaSetKind",
    "bandwidth_rule_of_thumb",
    "build_instruments",
    "chi_square_quantile",
    "chi_square_sf",
    "confidence_set",
    "distort_forecasts",
    "emit_confidence_set",
    "forecast_errors",
    "generalized_modal_midpoint",
    "get_kernel",
    "gmm_objective",
    "identification_values",
    "implied_theta",
    "instrument_moment_test",
    "load_csv",
    "median_abs_deviation",
    "mode_test",
    "optimal_forecasts",
    "pearson_second_skewness",
    "random_walk_forecasts",
    "run_coverage_experiment",
    "run_grid_coverage_experiment",
    "run_size_experiment",
    "sigma_hat",
    "simplex_grid",
    "simulate_dgp",
    "skew_normal_params",
    "write_dataset_csv",
]
