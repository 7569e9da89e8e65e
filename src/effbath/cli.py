"""Command-line interface.

Subcommands: spectral | correlation | niba | wda | spectrum | figure | custom.
Analysis subcommands fall back to the strong-coupling figure parameter set
when no config file is given.  Every subcommand computes its whole bundle
of files first; only then is the output directory created and written, so
a failed run leaves nothing behind.  Exit codes: 0 success, 2 regime-flag
violation under --strict, 1 any other failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import sys
from pathlib import Path

import numpy as np

from .errors import EffbathError, NegativeRateError, NonFiniteStateError, NonUniformGridError, TooShortError
from .gme import TimeSeries, simulate_population, time_grid
from .params import SystemParams, build_params, load_config, regime_flags
from .scenarios import (
    FIGURE_PARAMS,
    SPECTRUM_BAND,
    correlation_table,
    peak_entries,
    run_scenario,
    spectral_table,
    wda_entries,
    write_csv,
    write_summary,
)
from .spectrum import fourier_spectrum
from .wda import build_wda_spectrum, wda_population


class StrictRegimeError(EffbathError):
    """Raised when --strict is set and a regime flag is violated."""


def _add_common(sub):
    sub.add_argument("--config", type=Path, default=None, help="flat key=value parameter file")
    sub.add_argument("--out", type=Path, default=Path("effbath_out"), help="output directory")
    sub.add_argument("--strict", action="store_true", help="fail on regime-flag violations")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every ``main`` call.

    ``parse_args`` fills a new Namespace on each call, so one call's
    arguments never reach the next; callers must not modify the parser.
    """
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
                     help="least band end, in the angular-frequency units of the t column;"
                     " widened by doubling until the band holds the trace")

    sub = commands.add_parser("figure", help="regenerate one figure's data bundle")
    sub.add_argument("tag", choices=sorted(FIGURE_PARAMS))
    sub.add_argument("--out", type=Path, default=None, help="output directory (default: ./<tag>)")
    sub.add_argument("--strict", action="store_true")

    sub = commands.add_parser("custom", help="full pipeline on user parameters")
    sub.add_argument("--config", type=Path, required=True)
    sub.add_argument("--out", type=Path, default=Path("effbath_out"))
    sub.add_argument("--strict", action="store_true")

    return parser


def _params(args) -> SystemParams:
    """The run's params: the figure tag's set, --config, or the fig3 set; then --alpha-zero and --strict."""
    if args.command == "figure":
        raw = FIGURE_PARAMS[args.tag]
    else:
        raw = load_config(args.config) if args.config else FIGURE_PARAMS["fig3"]
    params = build_params(raw)
    if getattr(args, "alpha_zero", False):
        params = params.with_alpha(0.0)
    flags = regime_flags(params) if args.strict else []
    if flags:
        raise StrictRegimeError("; ".join(flags))
    return params


def _spectral(args, params) -> dict:
    return {"spectral.csv": spectral_table(params, omega_max=args.omega_max, points=args.points)}


def _correlation(args, params) -> dict:
    return {"correlation.csv": correlation_table(params, tau_max=args.tau_max, points=args.points)}


def _niba(args, params) -> dict:
    series = simulate_population(params, step=args.step, horizon=args.horizon, correlation=args.correlation)
    return {"P_niba.csv": (["t", "P"], [series.times, series.values])}


def _wda(args, params) -> dict:
    spectrum = build_wda_spectrum(params)  # a Delta past the double range fails in its pole equation first
    step, n_steps = time_grid(params, step=args.step, horizon=args.horizon)
    t = step * np.arange(n_steps + 1)
    return {"P_wda.csv": (["t", "P"], [t, wda_population(t, spectrum)]),
            "wda_report.txt": wda_entries(spectrum, params)}


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


def _spectrum(args) -> dict:
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
    bundle = {"spectrum.csv": (["omega", "magnitude"], [result.omega, result.magnitude])}
    if args.peaks > 0:
        bundle["peaks.txt"] = peak_entries(result, args.peaks)
    return bundle


def _scenario(args, params) -> dict:
    return run_scenario(args.tag if args.command == "figure" else "custom", params)


_RUNNERS = {
    "spectral": _spectral,
    "correlation": _correlation,
    "niba": _niba,
    "wda": _wda,
    "figure": _scenario,
    "custom": _scenario,
}


def _write_bundle(bundle: dict, out: Path) -> None:
    """Create ``out`` and write each file of ``bundle`` into it.

    The one place that writes: a name ending in ``.txt`` maps to the
    entries of a key=value summary, any other name to the ``(header,
    columns)`` of a CSV.  Each file is written under a temporary name in
    ``out`` and renamed into place only once the last write has succeeded,
    so a failed write leaves every file of an earlier run as it was.  A
    failure removes the temporary files, any file of the bundle this call
    had already renamed into a new place, and every directory it made.
    """
    dirs = [path for path in (out, *out.parents) if not path.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    temp = {name: out / f".{name}.{os.getpid()}.tmp" for name in bundle}
    new = {name for name in bundle if not (out / name).exists()}
    placed = []
    try:
        for name, content in bundle.items():
            if name.endswith(".txt"):
                write_summary(temp[name], content)
            else:
                write_csv(temp[name], *content)
        for name in bundle:
            os.replace(temp[name], out / name)
            placed.append(name)
    except BaseException:
        for path in (*temp.values(), *(out / name for name in new.intersection(placed))):
            path.unlink(missing_ok=True)
        for path in dirs:
            path.rmdir()
        raise


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "spectrum":
            bundle = _spectrum(args)
        else:
            bundle = _RUNNERS[args.command](args, _params(args))
        _write_bundle(bundle, args.out if args.out is not None else Path(args.tag))
        return 0
    except StrictRegimeError as exc:
        print(f"effbath: regime violation under --strict: {exc}", file=sys.stderr)
        return 2
    except (EffbathError, OSError, ValueError) as exc:
        print(f"effbath: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
