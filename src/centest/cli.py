"""Command-line driver.

Subcommands: ``test`` (one rationality test on a CSV), ``cset`` (confidence
set over the simplex), ``simulate`` (Monte Carlo experiments), ``plot``
(re-render a stored confidence-set JSON as SVG). Exit codes: 0 success,
1 usage error, 2 data or numeric error. A completed test exits 0 whether or
not it rejects; the decision lives in the JSON output.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from . import dataio
from .central_tendency import (
    DEFAULT_ALPHA_LEVELS,
    DEFAULT_GRID_RESOLUTION,
    MEAN_VERTEX,
    MEDIAN_VERTEX,
    MODE_VERTEX,
    _check_alpha_levels,
    _check_resolution,
    _theta_array,
    confidence_set,
)
from .errors import DegenerateErrors, MissingColumnError, SingularMatrixError
from .identification import ForecastDataset, Functional, _check_bandwidth
from .numerics import KERNELS
from .rationality import instrument_moment_test, mode_test
from .simulation import (
    Dgp,
    DgpConfig,
    Distortion,
    InstrumentSet,
    _check_draws,
    _check_instrument_set,
    _check_kappa,
    _check_level,
    _check_nominal_alpha,
    _check_replications,
    _replication_maker,
    run_coverage_experiment,
    run_size_experiment,
)

USAGE_ERROR = 1
DATA_ERROR = 2

_BETA_NAMES = {
    "mean": MEAN_VERTEX,
    "median": MEDIAN_VERTEX,
    "mode": MODE_VERTEX,
    "mean-mode": (0.5, 0.0, 0.5),
    "mean-median": (0.5, 0.5, 0.0),
    "median-mode": (0.0, 0.5, 0.5),
    "mean-median-mode": (1 / 3, 1 / 3, 1 / 3),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _alpha_list(text: str) -> tuple[float, ...]:
    try:
        return _check_alpha_levels(float(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}: {exc}") from None


def _bandwidth(text: str) -> float:
    try:
        value = float(text)
        _check_bandwidth(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad bandwidth {text!r}: {exc}") from None
    return value


@contextmanager
def _option_checks():
    """Run the library's checks of option values, before any work: a
    ValueError they raise is a usage error."""
    try:
        yield
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _beta_triple(text: str):
    if text in _BETA_NAMES:
        return _BETA_NAMES[text]
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"beta must be a name ({', '.join(_BETA_NAMES)}) or three weights"
        )
    try:
        return tuple(float(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad beta {text!r}") from None


def _add_dataset_arguments(parser: _Parser) -> None:
    parser.add_argument("--input", required=True, help="input CSV path")
    parser.add_argument(
        "--instruments", default="",
        help="comma-separated instrument column names",
    )
    parser.add_argument(
        "--with-const", action="store_true",
        help="prepend a synthesized constant instrument",
    )
    parser.add_argument(
        "--cluster", default=None,
        help="cluster label column for a wave-clustered covariance; applied by "
        "cset only, test still uses the unclustered covariance",
    )
    parser.add_argument(
        "--random-walk", action="store_true",
        help="treat the input as a single `price` column and test the lagged "
        "level with instruments (1, X)",
    )
    # None marks an option left out, so that test can reject the mode
    # options for mean and median, and the library picks the default kernel
    parser.add_argument("--bandwidth", type=_bandwidth, default=None,
                        help="override the rule-of-thumb mode bandwidth "
                        "(positive and finite)")
    parser.add_argument("--kernel", choices=list(KERNELS), default=None,
                        help="mode kernel (default gaussian)")


def _load_dataset(args):
    if args.random_walk:
        if args.instruments or args.with_const or args.cluster:
            raise argparse.ArgumentTypeError(
                "--random-walk builds its own dataset; do not combine it with "
                "--instruments/--with-const/--cluster"
            )
        return dataio.random_walk_forecasts(dataio.load_prices(args.input))
    columns = [c for c in args.instruments.split(",") if c]
    return dataio.load_csv(
        args.input, columns, cluster_column=args.cluster, with_const=args.with_const
    )


def _cmd_test(args) -> int:
    functional = Functional(args.functional)
    for name, value in (("--bandwidth", args.bandwidth), ("--kernel", args.kernel)):
        if value is not None and functional is not Functional.MODE:
            raise argparse.ArgumentTypeError(f"{name} applies to --functional mode only")
    dataset = _load_dataset(args)
    if args.cluster:
        print("centest: note: test does not apply --cluster yet; the single-functional "
              "tests use the unclustered covariance (cset --cluster applies the "
              "clusters)", file=sys.stderr)
    if functional is Functional.MODE:
        result = mode_test(dataset, delta=args.bandwidth,
                           kernel=KERNELS.get(args.kernel))
    else:
        result = instrument_moment_test(functional, dataset)
    payload = dataio.test_result_to_dict(result, args.alpha)
    payload["n_obs"] = dataset.n_obs
    if args.out_json:
        dataio.write_json(payload, args.out_json)
    print(
        f"{functional.value} test: J = {result.statistic:.6g}, "
        f"df = {result.df}, p = {result.p_value:.6g}"
    )
    return 0


def _cmd_cset(args) -> int:
    with _option_checks():
        _check_resolution(args.grid_m)
    dataset = _load_dataset(args)
    grid = confidence_set(
        dataset,
        m=args.grid_m,
        alpha_levels=args.alpha,
        delta=args.bandwidth,
        kernel=KERNELS.get(args.kernel),
    )
    dataio.emit_confidence_set(
        grid, json_path=args.out_json, csv_path=args.out_csv, svg_path=args.out_svg
    )
    for a, flags in zip(grid.alpha_levels, grid.member):
        members = int(flags.sum())
        label = f"{(1 - a) * 100:g}%"
        if members == 0:
            print(f"{label} confidence set: empty (rationality rejected for "
                  "the entire class)")
        else:
            print(f"{label} confidence set: {members} of {flags.size} grid points")
    return 0


def _given(**options) -> dict:
    """The options given, so that the library's defaults fill in the others."""
    return {name: value for name, value in options.items() if value is not None}


def _cmd_simulate(args) -> int:
    distortion = _given(distortion=args.distortion, kappa=args.kappa)
    if distortion and args.experiment != "power":
        raise argparse.ArgumentTypeError(
            "--distortion and --kappa apply to power experiments only"
        )
    if args.experiment == "coverage":
        scope, options = "size and power", {"--alpha-level": args.alpha_level}
    else:
        scope = "coverage"
        options = {"--beta": args.beta, "--level": args.level, "--draws": args.draws}
    stray = [name for name, value in options.items() if value is not None]
    if stray:
        verb = "applies" if len(stray) == 1 else "apply"
        raise argparse.ArgumentTypeError(
            f"{' and '.join(stray)} {verb} to {scope} experiments only"
        )
    if args.experiment == "power" and args.distortion is None:
        raise argparse.ArgumentTypeError("power experiments need --distortion")
    beta = _BETA_NAMES["mode"] if args.beta is None else args.beta
    with _option_checks():
        config = DgpConfig(
            dgp=args.dgp,
            skewness=args.gamma,
            n_obs=args.sample_size,
            seed=args.seed,
            **_given(burn_in=args.burn_in),
        )
        _check_replications(args.replications)
        _theta_array(beta)
        # an option left out takes the library's default, which is in range
        for check, value in ((_check_nominal_alpha, args.alpha_level),
                             (_check_level, args.level), (_check_draws, args.draws)):
            if value is not None:
                check(value)
        if args.kappa is not None:
            _check_kappa(args.distortion, args.kappa)
        instrument_set = _check_instrument_set(
            args.instrument_set, config, f"a {args.experiment} experiment")
    if args.out_dataset:  # replication 0, as the experiment scores it
        (y,), (x,), (h,) = _replication_maker(
            config, beta, instrument_set, **distortion)(range(1))
        names = ["const", "xinst", "extra"][: h.shape[0]]
        dataio.write_dataset_csv(ForecastDataset(y, x, h.T), args.out_dataset, names)
    kernel = KERNELS.get(args.kernel)
    if args.experiment == "coverage":
        report = run_coverage_experiment(
            config, beta, instrument_set, args.replications, kernel=kernel,
            **_given(level=args.level, draws=args.draws),
        )
    else:
        report = run_size_experiment(
            config, instrument_set, args.replications, kernel=kernel, **distortion,
            **_given(nominal_alpha=args.alpha_level),
        )
    payload = dataio.report_to_dict(report)
    if args.out_json:
        dataio.write_json(payload, args.out_json)
    name = "rejection" if report.kind in ("size", "power") else "coverage"
    print(
        f"{report.kind} experiment: {name} rate {report.rate:.4f} "
        f"(MC se {report.mc_standard_error:.4f}, "
        f"{report.successes}/{report.replications} replications)"
    )
    return 0


def _cmd_plot(args) -> int:
    payload = json.loads(Path(args.in_json).read_text(encoding="utf-8"))
    grid = dataio.grid_from_dict(payload)
    dataio.emit_confidence_set(grid, svg_path=args.out_svg)
    print(f"wrote {args.out_svg}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="centest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="run one rationality test")
    _add_dataset_arguments(p_test)
    p_test.add_argument("--functional", required=True,
                        choices=[f.value for f in Functional])
    p_test.add_argument("--alpha", type=_alpha_list, default=DEFAULT_ALPHA_LEVELS)
    p_test.add_argument("--out-json", default=None)
    p_test.set_defaults(func=_cmd_test)

    p_cset = sub.add_parser("cset", help="confidence set over centrality weights")
    _add_dataset_arguments(p_cset)
    p_cset.add_argument("--grid-m", type=int, default=DEFAULT_GRID_RESOLUTION)
    p_cset.add_argument("--alpha", type=_alpha_list, default=DEFAULT_ALPHA_LEVELS)
    p_cset.add_argument("--out-json", default=None)
    p_cset.add_argument("--out-csv", default=None)
    p_cset.add_argument("--out-svg", default=None)
    p_cset.set_defaults(func=_cmd_cset)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments")
    p_sim.add_argument("--experiment", required=True,
                       choices=["size", "power", "coverage"])
    p_sim.add_argument("--dgp", required=True, choices=[d.value for d in Dgp])
    p_sim.add_argument("--gamma", type=float, default=0.0)
    p_sim.add_argument("--sample-size", type=int, required=True)
    p_sim.add_argument("--replications", type=int, required=True)
    p_sim.add_argument("--instrument-set", type=int, default=2,
                       choices=[s.value for s in InstrumentSet])
    # None marks an option left out, so that one given to an experiment
    # that does not use it is rejected, and the library's defaults apply
    p_sim.add_argument("--alpha-level", type=float, default=None,
                       help="nominal test level for size/power (default 0.05)")
    p_sim.add_argument("--level", type=float, default=None,
                       help="confidence level for coverage (default 0.90)")
    p_sim.add_argument("--beta", type=_beta_triple, default=None,
                       help="forecast combination for coverage experiments "
                       "(default mode)")
    p_sim.add_argument("--distortion", choices=[d.value for d in Distortion])
    p_sim.add_argument("--kappa", type=float, default=None)
    p_sim.add_argument("--draws", type=int, default=None,
                       help="replications pooled for the implied theta in "
                       "coverage experiments (default 1000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--burn-in", type=int, default=None)
    p_sim.add_argument("--kernel", choices=list(KERNELS), default=None)
    p_sim.add_argument("--out-json", default=None)
    p_sim.add_argument("--out-dataset", default=None,
                       help="also write replication 0 as a CSV (in a power "
                       "experiment, with its distorted forecasts)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_plot = sub.add_parser("plot", help="render a stored confidence set as SVG")
    p_plot.add_argument("--in-json", required=True)
    p_plot.add_argument("--out-svg", required=True)
    p_plot.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except argparse.ArgumentTypeError as exc:
        print(f"centest: error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (
        DegenerateErrors,
        SingularMatrixError,
        MissingColumnError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"centest: error: {exc}", file=sys.stderr)
        return DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
