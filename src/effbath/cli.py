"""Command-line interface.

Subcommands: spectral | correlation | niba | wda | spectrum | figure | custom.
Analysis subcommands fall back to the strong-coupling figure parameter set
when no config file is given.  Exit codes: 0 success, 2 regime-flag
violation under --strict, 1 any other failure.
"""

from __future__ import annotations

import argparse
import io
import sys
from pathlib import Path

import numpy as np

from .errors import EffbathError, NegativeRateError, NonFiniteStateError, NonUniformGridError, TooShortError
from .gme import TimeSeries, simulate_population, time_grid
from .params import build_params, load_config
from .scenarios import (
    FIGURE_PARAMS,
    SPECTRUM_BAND,
    StrictRegimeError,
    check_strict,
    peak_entries,
    run_scenario,
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
    sub.add_argument("--omega-max", type=float, default=SPECTRUM_BAND,
                     help="band end, in the angular-frequency units of the t column")

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
    step, n_steps = time_grid(params, step=args.step, horizon=args.horizon)
    spectrum = build_wda_spectrum(params)
    t = step * np.arange(n_steps + 1)
    write_csv(args.out / "P_wda.csv", ["t", "P"], [t, wda_population(t, spectrum)])
    write_summary(args.out / "wda_report.txt", wda_entries(spectrum, params))
    return 0


def _read_trace(path: Path):
    """The ``t`` and ``P`` columns of a CSV trace, found by name in its header line."""
    with open(path, encoding="utf-8") as fh:
        names = [name.strip() for name in fh.readline().split(",")]
        body = fh.read()
    missing = [name for name in ("t", "P") if name not in names]
    if missing:
        raise ValueError(f"{path}: the header has no {' or '.join(missing)} column")
    if not body.strip():  # loadtxt would warn on empty input
        return np.empty(0), np.empty(0)
    columns = (names.index("t"), names.index("P"))
    data = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2, usecols=columns)
    return data[:, 0], data[:, 1]


def _run_spectrum(args) -> int:
    if args.peaks < 0:
        raise NegativeRateError(f"--peaks must be 0 or more, got {args.peaks}")
    t, values = _read_trace(args.input)
    if t.size < 2:
        raise TooShortError(f"{args.input} holds {t.size} samples; a step needs at least 2")
    steps = np.diff(t)
    h = float(steps[0])
    if not (h > 0.0 and np.abs(steps - h).max() <= 1e-9 * h):
        raise NonUniformGridError(f"{args.input}: the t column does not increase in even steps")
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        i = bad[0]
        raise NonFiniteStateError(f"{args.input}: P is not finite in data row {i + 1} (t = {t[i]:g})")
    result = fourier_spectrum(
        TimeSeries(h=h, values=values), window=args.window, zero_pad_factor=args.pad, omega_max=args.omega_max
    )
    peaks = peak_entries(result, args.peaks) if args.peaks > 0 else None
    args.out.mkdir(parents=True, exist_ok=True)
    write_csv(args.out / "spectrum.csv", ["omega", "magnitude"], [result.omega, result.magnitude])
    if peaks is not None:
        write_summary(args.out / "peaks.txt", peaks)
    return 0


def _run_figure(args) -> int:
    outdir = args.out if args.out is not None else Path(args.tag)
    run_scenario(args.tag, build_params(FIGURE_PARAMS[args.tag]), outdir, args.strict)
    return 0


def _run_custom(args) -> int:
    run_scenario("custom", build_params(load_config(args.config)), args.out, args.strict)
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
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
