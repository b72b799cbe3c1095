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
from pathlib import Path

from . import dataio
from .central_tendency import confidence_set
from .errors import DegenerateErrors, MissingColumnError, SingularMatrixError
from .identification import ForecastDataset, Functional, _check_bandwidth
from .numerics import RandomStream, get_kernel
from .rationality import instrument_moment_test, mode_test
from .simulation import (
    DgpConfig,
    Distortion,
    InstrumentSet,
    build_instruments,
    distort_forecasts,
    optimal_forecasts,
    run_coverage_experiment,
    run_size_experiment,
    simulate_dgp,
)

USAGE_ERROR = 1
DATA_ERROR = 2

_BETA_NAMES = {
    "mean": (1.0, 0.0, 0.0),
    "median": (0.0, 1.0, 0.0),
    "mode": (0.0, 0.0, 1.0),
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
        levels = tuple(float(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}") from None
    if not levels or not all(0.0 < a < 1.0 for a in levels):
        raise argparse.ArgumentTypeError("alpha levels must lie in (0, 1)")
    return levels


def _bandwidth(text: str) -> float:
    try:
        value = float(text)
        _check_bandwidth(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad bandwidth {text!r}: {exc}") from None
    return value


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
    # options for mean and median; the commands fill in the gaussian kernel
    parser.add_argument("--bandwidth", type=_bandwidth, default=None,
                        help="override the rule-of-thumb mode bandwidth "
                        "(positive and finite)")
    parser.add_argument("--kernel", choices=["gaussian", "biweight"],
                        default=None, help="mode kernel (default gaussian)")


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
                           kernel=get_kernel(args.kernel or "gaussian"))
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
    dataset = _load_dataset(args)
    grid = confidence_set(
        dataset,
        m=args.grid_m,
        alpha_levels=args.alpha,
        delta=args.bandwidth,
        kernel=get_kernel(args.kernel or "gaussian"),
    )
    dataio.emit_confidence_set(
        grid, json_path=args.out_json, csv_path=args.out_csv, svg_path=args.out_svg
    )
    for a in grid.alpha_levels:
        members = len(grid.members(a))
        label = f"{(1 - a) * 100:g}%"
        if members == 0:
            print(f"{label} confidence set: empty (rationality rejected for "
                  "the entire class)")
        else:
            print(f"{label} confidence set: {members} of {len(grid.points)} "
                  "grid points")
    return 0


def _cmd_simulate(args) -> int:
    distorted = args.distortion is not None or args.kappa != 0.0
    if distorted and args.experiment != "power":
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
    alpha_level = 0.05 if args.alpha_level is None else args.alpha_level
    beta = _BETA_NAMES["mode"] if args.beta is None else args.beta
    config = DgpConfig(
        dgp=args.dgp,
        skewness=args.gamma,
        n_obs=args.sample_size,
        seed=args.seed,
        burn_in=args.burn_in,
    )
    instrument_set = InstrumentSet(args.instrument_set)
    if args.out_dataset:
        _write_example_dataset(args.out_dataset, config, beta, instrument_set,
                               args.distortion, args.kappa)
    if args.experiment == "size":
        report = run_size_experiment(
            config, instrument_set, args.replications, nominal_alpha=alpha_level,
            kernel=get_kernel(args.kernel),
        )
    elif args.experiment == "power":
        report = run_size_experiment(
            config, instrument_set, args.replications, nominal_alpha=alpha_level,
            distortion=Distortion(args.distortion), kappa=args.kappa,
            kernel=get_kernel(args.kernel),
        )
    else:
        report = run_coverage_experiment(
            config, beta, instrument_set, args.replications,
            level=0.90 if args.level is None else args.level,
            draws=1000 if args.draws is None else args.draws,
            kernel=get_kernel(args.kernel),
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


def _write_example_dataset(
    out_path, config: DgpConfig, beta, instrument_set, distortion, kappa: float
) -> None:
    """Replication 0 as a CSV: its path from stream 0 and, in a power
    experiment, its forecasts distorted with the noise of stream 1."""
    path = simulate_dgp(config, RandomStream(config.seed, 0))
    forecasts = optimal_forecasts(path, config, beta)
    if distortion is not None:
        forecasts = distort_forecasts(forecasts, distortion, kappa,
                                      RandomStream(config.seed, 1))
    instruments = build_instruments(path, forecasts, instrument_set)
    dataset = ForecastDataset(path.realizations, forecasts, instruments)
    names = ["const", "xinst", "extra"][: instruments.shape[1]]
    dataio.write_dataset_csv(dataset, out_path, instrument_names=names)


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
                        choices=["mean", "median", "mode"])
    p_test.add_argument("--alpha", type=_alpha_list, default=(0.05, 0.10))
    p_test.add_argument("--out-json", default=None)
    p_test.set_defaults(func=_cmd_test)

    p_cset = sub.add_parser("cset", help="confidence set over centrality weights")
    _add_dataset_arguments(p_cset)
    p_cset.add_argument("--grid-m", type=int, default=50)
    p_cset.add_argument("--alpha", type=_alpha_list, default=(0.05, 0.10))
    p_cset.add_argument("--out-json", default=None)
    p_cset.add_argument("--out-csv", default=None)
    p_cset.add_argument("--out-svg", default=None)
    p_cset.set_defaults(func=_cmd_cset)

    p_sim = sub.add_parser("simulate", help="Monte Carlo experiments")
    p_sim.add_argument("--experiment", required=True,
                       choices=["size", "power", "coverage"])
    p_sim.add_argument("--dgp", required=True, choices=[
        "homoskedastic-iid", "heteroskedastic", "ar1", "ar-garch"])
    p_sim.add_argument("--gamma", type=float, default=0.0)
    p_sim.add_argument("--sample-size", type=int, required=True)
    p_sim.add_argument("--replications", type=int, required=True)
    p_sim.add_argument("--instrument-set", type=int, default=2, choices=[1, 2, 3])
    # None marks an option left out, so that one given to an experiment
    # that does not use it is rejected; _cmd_simulate fills in the defaults
    p_sim.add_argument("--alpha-level", type=float, default=None,
                       help="nominal test level for size/power (default 0.05)")
    p_sim.add_argument("--level", type=float, default=None,
                       help="confidence level for coverage (default 0.90)")
    p_sim.add_argument("--beta", type=_beta_triple, default=None,
                       help="forecast combination for coverage experiments "
                       "(default mode)")
    p_sim.add_argument("--distortion", choices=["bias", "noise"], default=None)
    p_sim.add_argument("--kappa", type=float, default=0.0)
    p_sim.add_argument("--draws", type=int, default=None,
                       help="replications pooled for the implied theta in "
                       "coverage experiments (default 1000)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--burn-in", type=int, default=1000)
    p_sim.add_argument("--kernel", choices=["gaussian", "biweight"],
                       default="gaussian")
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
