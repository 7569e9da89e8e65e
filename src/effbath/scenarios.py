"""Figure-level scenario runner: parameter sets, CSV artifacts, summaries.

Every figure tag binds the exact caption parameter set; ``custom`` runs
the same pipeline on user-supplied parameters.  All outputs are plain
CSV/key=value text written with full double precision so repeated runs
are byte-identical.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .correlation import (
    closed_form_correlation,
    quadrature_correlation,
    wda_correlation,
    wda_split,
    wda_coefficients,
)
from .errors import EffbathError
from .gme import TimeSeries, simulate_population
from .params import SystemParams, build_params, derived_scales, regime_flags
from .spectral import (
    density_peak,
    geff,
    linear_effective_density,
    nonlinear_effective_density,
    ohmic_density,
    susceptibility_imag,
)
from .params import convert_couplings
from .spectrum import SpectrumResult, fourier_spectrum, peak_extract
from .wda import build_wda_spectrum, resonance_analysis, wda_population

__all__ = [
    "FIGURE_PARAMS",
    "FIGURE_TAGS",
    "Scenario",
    "StrictRegimeError",
    "scenario_for_figure",
    "run_scenario",
    "worker_count",
]

_FIG3 = {
    "Omega": 1.0,
    "M": 1.0,
    "mu": 1.0,
    "alpha": 0.02,
    "g": 0.18,
    "epsilon": 0.0,
    "gamma_over_2piOmega": 0.0154,
    "beta": 10.0,
    "Delta": 1.0,
}
_FIG5 = dict(_FIG3, g=0.0018)
# the density-comparison figure quotes the damping directly
_FIG2 = {
    "Omega": 1.0,
    "M": 1.0,
    "mu": 1.0,
    "alpha": 0.02,
    "g": 0.18,
    "epsilon": 0.0,
    "gamma": 0.097,
    "beta": 10.0,
    "Delta": 1.0,
}

FIGURE_PARAMS = {
    "fig2": _FIG2,
    "fig3": _FIG3,
    "fig4": _FIG3,
    "fig5": _FIG5,
    "fig6": _FIG5,
    "fig7": _FIG3,
    "fig8": _FIG3,
}
FIGURE_TAGS = tuple(FIGURE_PARAMS) + ("custom",)


class StrictRegimeError(EffbathError):
    """Raised when --strict is set and a regime flag is violated."""


@dataclass(frozen=True)
class Scenario:
    name: str
    params: SystemParams
    tag: str = "custom"
    outdir: Path = Path("effbath_out")
    step: float | None = None
    horizon: float | None = None
    correlation: str = "closed"
    window: str = "none"
    pad_factor: int = 8
    n_peaks: int = 2
    strict: bool = False
    extras: dict = field(default_factory=dict)


def worker_count() -> int:
    """Worker cap for concurrent twin runs (EFFBATH_THREADS, default 2)."""
    raw = os.environ.get("EFFBATH_THREADS", "").strip()
    if not raw:
        return 2
    count = int(raw)
    if count < 1:
        raise ValueError("EFFBATH_THREADS must be >= 1")
    return count


def scenario_for_figure(tag: str, outdir, strict: bool = False, **overrides) -> Scenario:
    if tag not in FIGURE_PARAMS:
        raise ValueError(f"unknown figure tag {tag!r}; expected one of {sorted(FIGURE_PARAMS)}")
    params = build_params(FIGURE_PARAMS[tag])
    return Scenario(name=tag, params=params, tag=tag, outdir=Path(outdir), strict=strict, **overrides)


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def write_summary(path: Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={_fmt(value)}\n")


def _base_summary(sc: Scenario) -> dict:
    p = sc.params
    scales = derived_scales(p)
    entries = {
        "scenario": sc.name,
        "tag": sc.tag,
        "Omega": p.Omega,
        "M": p.M,
        "mu": p.mu,
        "alpha": p.alpha,
        "g": p.g,
        "gamma": p.gamma,
        "beta": p.beta,
        "Delta": p.Delta,
        "epsilon": p.epsilon,
        "y0": scales.y0,
        "n1": scales.n1,
        "Omega1": scales.Omega1,
        "nth": scales.nth,
        "gammabar": scales.gammabar,
        "varsigma": scales.varsigma,
    }
    flags = regime_flags(p)
    entries["regime_flags"] = ";".join(flags) if flags else "none"
    return entries


def check_strict(p: SystemParams, strict: bool) -> None:
    """Raise StrictRegimeError if ``strict`` is set and a regime flag is violated."""
    if strict:
        flags = regime_flags(p)
        if flags:
            raise StrictRegimeError("; ".join(flags))


def _spectral_columns(p: SystemParams, omega: np.ndarray):
    scales = derived_scales(p)
    gbar, _ = convert_couplings(p)
    return [
        omega,
        ohmic_density(omega, p.M * p.gamma),
        linear_effective_density(omega, gbar, p.gamma, p.Omega, p.M),
        nonlinear_effective_density(omega, p, scales),
        susceptibility_imag(omega, p, scales),
        geff(omega, p, scales),
    ]


SPECTRAL_HEADER = ["omega", "J_ohmic", "J_linear_eff", "J_nonlinear_eff", "chi_imag", "G_eff"]


def write_spectral_csv(path: Path, p: SystemParams, omega_max: float = 3.0, points: int = 1500) -> None:
    omega = np.linspace(omega_max / points, omega_max, points) * p.Omega
    write_csv(path, SPECTRAL_HEADER, _spectral_columns(p, omega))


def write_correlation_csv(path: Path, p: SystemParams, tau_max: float = 30.0, points: int = 121) -> None:
    scales = derived_scales(p)
    tau = np.linspace(0.0, tau_max / p.Omega, points)
    s_quad, r_quad = quadrature_correlation(p, scales).pair(tau)
    s_closed, r_closed = closed_form_correlation(p, scales).pair(tau)
    s0, s1, r0, r1 = wda_split(tau, wda_coefficients(p, scales), scales)
    write_csv(
        path,
        ["tau", "S_quad", "R_quad", "S_closed", "R_closed", "S0", "S1", "R0", "R1"],
        [tau, s_quad, r_quad, s_closed, r_closed, s0, s1, r0, r1],
    )


def _population_pair(sc: Scenario, params: SystemParams):
    """NIBA trace and the matching analytic trace on the same grid."""
    series = simulate_population(
        params,
        step=sc.step,
        horizon=sc.horizon,
        correlation=sc.correlation,
    )
    spectrum = build_wda_spectrum(params)
    analytic = TimeSeries(h=series.h, values=wda_population(series.times, spectrum), meta={"kind": "wda"})
    return series, analytic, spectrum


def _spectrum(series: TimeSeries, sc: Scenario) -> SpectrumResult:
    return fourier_spectrum(series, window=sc.window, zero_pad_factor=sc.pad_factor)


def peak_entries(result: SpectrumResult, k: int, prefix: str = "") -> dict:
    """Summary entries for the top-k peaks of a spectrum, in ascending frequency."""
    peaks = peak_extract(result, k)
    entries = {f"{prefix}fft_bin": result.resolution}
    for i, peak in enumerate(sorted(peaks.peaks, key=lambda q: q.omega), start=1):
        entries[f"{prefix}peak{i}_omega"] = peak.omega
        entries[f"{prefix}peak{i}_height"] = peak.height
        entries[f"{prefix}peak{i}_half_width"] = peak.half_width
    entries[f"{prefix}peak_shortage"] = peaks.shortage
    return entries


def wda_entries(spectrum, p: SystemParams) -> dict:
    """Summary entries of the weak-damping solution for these params."""
    report = resonance_analysis(p)
    return {
        "omega_plus": spectrum.omega_plus,
        "omega_minus": spectrum.omega_minus,
        "bs_shift": report["bs_shift"],
        "kappa_plus": spectrum.kappa_plus,
        "kappa_minus": spectrum.kappa_minus,
        "u0_abs": abs(spectrum.u0),
        "weight_plus": spectrum.weight_plus,
        "weight_minus": spectrum.weight_minus,
        "expansion_branch": report["branch"],
    }


def run_scenario(sc: Scenario) -> dict:
    """Execute one scenario and write its artifact bundle.

    Returns a mapping of artifact names to paths; the summary dictionary
    is included under the key "summary_entries".
    """
    check_strict(sc.params, sc.strict)
    outdir = Path(sc.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    p = sc.params
    written: dict = {}
    summary = _base_summary(sc)

    if sc.tag == "fig2":
        path = outdir / "spectral.csv"
        write_spectral_csv(path, p)
        scales = derived_scales(p)
        loc, height = density_peak(
            lambda w: nonlinear_effective_density(w, p, scales), Omega=p.Omega
        )
        summary["jeff_peak_omega"] = loc
        summary["jeff_peak_height"] = height
        written["spectral"] = path

    elif sc.tag in ("fig3", "fig5", "fig4", "fig6", "custom"):
        series, analytic, spectrum = _population_pair(sc, p)
        summary.update(wda_entries(spectrum, p))
        if sc.tag in ("fig3", "fig5", "custom"):
            niba_path = outdir / "P_niba.csv"
            wda_path = outdir / "P_wda.csv"
            write_csv(niba_path, ["t", "P"], [series.times, series.values])
            write_csv(wda_path, ["t", "P"], [analytic.times, analytic.values])
            written["P_niba"] = niba_path
            written["P_wda"] = wda_path
        niba_result = _spectrum(series, sc)
        if sc.tag in ("fig4", "fig6", "custom"):
            for label, result in (("niba", niba_result), ("wda", _spectrum(analytic, sc))):
                path = outdir / f"spectrum_{label}.csv"
                write_csv(path, ["omega", "magnitude"], [result.omega, result.magnitude])
                written[f"spectrum_{label}"] = path
        if sc.tag == "custom":
            path = outdir / "spectral.csv"
            write_spectral_csv(path, p)
            written["spectral"] = path
        summary.update(peak_entries(niba_result, sc.n_peaks, "niba_"))

    elif sc.tag in ("fig7", "fig8"):
        variants = [("nonlinear", p), ("linear", p.with_alpha(0.0))]
        with ThreadPoolExecutor(max_workers=worker_count()) as pool:
            futures = [pool.submit(_population_pair, sc, prm) for _, prm in variants]
            results = [fut.result() for fut in futures]  # fixed merge order
        for (label, prm), (series, analytic, spectrum) in zip(variants, results):
            result = _spectrum(series, sc)
            if sc.tag == "fig7":
                for kind, trace in (("niba", series), ("wda", analytic)):
                    path = outdir / f"P_{kind}_{label}.csv"
                    write_csv(path, ["t", "P"], [trace.times, trace.values])
                    written[f"P_{kind}_{label}"] = path
            else:
                path = outdir / f"spectrum_niba_{label}.csv"
                write_csv(path, ["omega", "magnitude"], [result.omega, result.magnitude])
                written[f"spectrum_niba_{label}"] = path
            for key, value in wda_entries(spectrum, prm).items():
                summary[f"{label}_{key}"] = value
            summary.update(peak_entries(result, sc.n_peaks, f"{label}_"))
    else:
        raise ValueError(f"unknown scenario tag {sc.tag!r}")

    summary_path = outdir / "summary.txt"
    write_summary(summary_path, summary)
    written["summary"] = summary_path
    written["summary_entries"] = summary
    return written
