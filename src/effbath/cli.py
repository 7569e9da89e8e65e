"""Command-line interface.

Subcommands: spectral | correlation | niba | wda | spectrum | figure | custom.
Analysis subcommands fall back to the strong-coupling figure parameter set
when no config file is given.  Exit codes: 0 success, 2 regime-flag
violation under --strict, 1 any other failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .errors import EffbathError
from .gme import DEFAULT_HORIZON_PERIODS, TimeSeries, default_step, simulate_population
from .params import build_params, load_config
from .scenarios import (
    FIGURE_PARAMS,
    Scenario,
    StrictRegimeError,
    check_strict,
    peak_entries,
    run_scenario,
    scenario_for_figure,
    wda_entries,
    write_correlation_csv,
    write_csv,
    write_spectral_csv,
    write_summary,
)
from .spectrum import fourier_spectrum
from .wda import build_wda_spectrum, wda_population


def _add_common(sub):
    sub.add_argument("--config", type=Path, default=None, help="flat key=value parameter file")
    sub.add_argument("--out", type=Path, default=Path("effbath_out"), help="output directory")
    sub.add_argument("--strict", action="store_true", help="fail on regime-flag violations")


def _params_from(args):
    raw = load_config(args.config) if args.config else dict(FIGURE_PARAMS["fig3"])
    return build_params(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="effbath", description=__doc__)
    # global forms of the common flags; the per-subcommand forms win
    parser.add_argument("--config", type=Path, default=None, dest="config_global",
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, default=None, dest="out_global",
                        help=argparse.SUPPRESS)
    parser.add_argument("--strict", action="store_true", dest="strict_global",
                        help=argparse.SUPPRESS)
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("spectral", help="spectral densities CSV")
    _add_common(sub)
    sub.add_argument("--omega-max", type=float, default=3.0, help="grid end in units of Omega")
    sub.add_argument("--points", type=int, default=1500)

    sub = commands.add_parser("correlation", help="bath correlation CSV (quadrature + closed forms)")
    _add_common(sub)
    sub.add_argument("--tau-max", type=float, default=30.0, help="grid end in units of 1/Omega")
    sub.add_argument("--points", type=int, default=121)

    sub = commands.add_parser("niba", help="numerical population trace CSV")
    _add_common(sub)
    sub.add_argument("--step", type=float, default=None)
    sub.add_argument("--horizon", type=float, default=None)
    sub.add_argument("--correlation", choices=("closed", "quadrature"), default="closed")
    sub.add_argument("--alpha-zero", action="store_true", help="linear-comparison run with alpha = 0")

    sub = commands.add_parser("wda", help="analytic population trace CSV + report")
    _add_common(sub)
    sub.add_argument("--step", type=float, default=None)
    sub.add_argument("--horizon", type=float, default=None)

    sub = commands.add_parser("spectrum", help="Fourier magnitude of a population CSV")
    sub.add_argument("input", type=Path, help="CSV with columns t,P")
    sub.add_argument("--out", type=Path, default=Path("effbath_out"))
    sub.add_argument("--window", choices=("none", "hann"), default="none")
    sub.add_argument("--pad", type=int, default=1)
    sub.add_argument("--peaks", type=int, default=0, help="also report the top-k peaks")

    sub = commands.add_parser("figure", help="regenerate one figure's data bundle")
    sub.add_argument("tag", choices=sorted(FIGURE_PARAMS))
    sub.add_argument("--out", type=Path, default=None, help="output directory (default: ./<tag>)")
    sub.add_argument("--strict", action="store_true")

    sub = commands.add_parser("custom", help="full pipeline on user parameters")
    sub.add_argument("--config", type=Path, required=True)
    sub.add_argument("--out", type=Path, default=Path("effbath_out"))
    sub.add_argument("--strict", action="store_true")

    return parser


def _run_spectral(args) -> int:
    params = _params_from(args)
    check_strict(params, args.strict)
    args.out.mkdir(parents=True, exist_ok=True)
    write_spectral_csv(args.out / "spectral.csv", params, omega_max=args.omega_max, points=args.points)
    return 0


def _run_correlation(args) -> int:
    params = _params_from(args)
    check_strict(params, args.strict)
    args.out.mkdir(parents=True, exist_ok=True)
    write_correlation_csv(args.out / "correlation.csv", params, tau_max=args.tau_max, points=args.points)
    return 0


def _run_niba(args) -> int:
    params = _params_from(args)
    if args.alpha_zero:
        params = params.with_alpha(0.0)
    check_strict(params, args.strict)
    args.out.mkdir(parents=True, exist_ok=True)
    series = simulate_population(
        params, step=args.step, horizon=args.horizon, correlation=args.correlation
    )
    write_csv(args.out / "P_niba.csv", ["t", "P"], [series.times, series.values])
    return 0


def _run_wda(args) -> int:
    params = _params_from(args)
    check_strict(params, args.strict)
    args.out.mkdir(parents=True, exist_ok=True)
    step = args.step if args.step is not None else default_step(params)
    horizon = args.horizon if args.horizon is not None else DEFAULT_HORIZON_PERIODS / params.Omega
    spectrum = build_wda_spectrum(params)
    t = step * np.arange(int(round(horizon / step)) + 1)
    write_csv(args.out / "P_wda.csv", ["t", "P"], [t, wda_population(t, spectrum)])
    write_summary(args.out / "wda_report.txt", wda_entries(spectrum, params))
    return 0


def _run_spectrum(args) -> int:
    data = np.genfromtxt(args.input, delimiter=",", names=True)
    t = np.asarray(data["t"], dtype=float)
    values = np.asarray(data["P"], dtype=float)
    series = TimeSeries(h=float(t[1] - t[0]), values=values)
    result = fourier_spectrum(series, window=args.window, zero_pad_factor=max(args.pad, 1))
    args.out.mkdir(parents=True, exist_ok=True)
    write_csv(args.out / "spectrum.csv", ["omega", "magnitude"], [result.omega, result.magnitude])
    if args.peaks > 0:
        write_summary(args.out / "peaks.txt", peak_entries(result, args.peaks))
    return 0


def _run_figure(args) -> int:
    outdir = args.out if args.out is not None else Path(args.tag)
    run_scenario(scenario_for_figure(args.tag, outdir, strict=args.strict))
    return 0


def _run_custom(args) -> int:
    params = build_params(load_config(args.config))
    sc = Scenario(name="custom", params=params, tag="custom", outdir=args.out, strict=args.strict)
    run_scenario(sc)
    return 0


_RUNNERS = {
    "spectral": _run_spectral,
    "correlation": _run_correlation,
    "niba": _run_niba,
    "wda": _run_wda,
    "spectrum": _run_spectrum,
    "figure": _run_figure,
    "custom": _run_custom,
}


def _merge_global_flags(args) -> None:
    if getattr(args, "config", None) is None and args.config_global is not None:
        args.config = args.config_global
    if args.out_global is not None and (
        not hasattr(args, "out") or args.out in (None, Path("effbath_out"))
    ):
        args.out = args.out_global
    if args.strict_global and hasattr(args, "strict"):
        args.strict = True


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _merge_global_flags(args)
    try:
        return _RUNNERS[args.command](args)
    except StrictRegimeError as exc:
        print(f"effbath: regime violation under --strict: {exc}", file=sys.stderr)
        return 2
    except (EffbathError, OSError, ValueError) as exc:
        print(f"effbath: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
