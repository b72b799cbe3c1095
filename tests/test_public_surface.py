import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import centest
from centest import central_tendency, identification, numerics, rationality, simulation

# names removed from the package: the S_T engine behind gmm_objective and
# confidence_set replaced the pre-engine algebra, and they became the one-row
# call of its block kernel, central_tendency._objective_rows, which left
# stacked_moments and StackedMoments with no caller;
# central_tendency._theta_array validates every theta, optimal_forecasts and
# build_instruments take a path or a block of paths, numerics.KERNELS names
# the kernels (get_kernel looks them up), one span kernel makes the GARCH
# variances of a single path or a block; a simplex point is a float triple that
# _theta_array checks, which left SimplexWeights as a wrapper; the tests
# became the one-row call of _objective_rows on their functional's row, which
# left rationality._tests_block with no caller
REMOVED = [
    "KernelKind",
    "SimplexWeights",
    "StackedMoments",
    "_GARCH_ROW_LOOP_BELOW",
    "_beta_array",
    "_block_forecasts",
    "_block_instruments",
    "_eigh_above_floor",
    "_forecast_shift",
    "_path_row",
    "_tests_block",
    "biweight_kernel",
    "combined_moment",
    "gaussian_kernel",
    "gmm_objective_from_stacked",
    "gmm_objectives_from_stacked",
    "inverse_sqrt_spd",
    "kernel_deriv_sq_integral",
    "kernel_eval",
    "simulate_paths",
    "solve_spd",
    "stacked_moments",
    "weighting_matrices",
]


def test_all_is_unique_and_resolves():
    assert len(set(centest.__all__)) == len(centest.__all__) == 52
    for name in centest.__all__:
        assert hasattr(centest, name), name


def test_removed_names_stay_removed():
    for module in (centest, central_tendency, identification, numerics, rationality,
                   simulation):
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"



def test_one_block_kernel_scores_s_t():
    # the tests and every experiment call the kernel behind gmm_objective and
    # confidence_set, not a copy of their own
    assert simulation._objective_rows is central_tendency._objective_rows
    assert rationality._objective_rows is central_tendency._objective_rows


# the runtime needs numpy alone: neither the import nor any command loads a
# scipy module, so a one-shot command starts up without it
_IMPORT_BOUNDARY_SCRIPT = """
import contextlib, io, sys
def loaded():
    return [name for name in sys.modules if name.split(".")[0] == "scipy"]
import centest.cli
print("import", *loaded())
data = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    code = centest.cli.main(["test", "--input", data, "--functional", "mode",
                             "--instruments", "z", "--with-const"])
print("test", code, *loaded())
with contextlib.redirect_stdout(io.StringIO()):
    code = centest.cli.main(["cset", "--input", data, "--instruments", "z",
                             "--with-const", "--grid-m", "4"])
print("cset", code, *loaded())
for name, argv in [
    ("size-ar1", ["--experiment", "size", "--dgp", "ar1"]),
    ("size-ar-garch", ["--experiment", "size", "--dgp", "ar-garch"]),
    ("coverage", ["--experiment", "coverage", "--dgp", "heteroskedastic",
                  "--beta", "mean-mode", "--draws", "200"]),
]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = centest.cli.main(["simulate", *argv, "--gamma", "0.5",
                                 "--sample-size", "50", "--replications", "100"])
    print(name, code, *loaded())
"""


def test_commands_import_only_the_scipy_they_call(tmp_path):
    rng = np.random.default_rng(5)
    x = rng.normal(1.0, 1.0, 200)
    y = x + rng.standard_normal(200)
    z = rng.standard_normal(200)
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack([y, x, z]), delimiter=",", header="y,x,z",
               comments="")
    src = Path(centest.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY_SCRIPT, str(data)],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["import", "test 0", "cset 0", "size-ar1 0",
                                        "size-ar-garch 0", "coverage 0"]
