"""Figure-level scenarios: parameter sets, and the tables and summaries of each bundle.

Every figure tag binds the exact caption parameter set; ``custom`` runs
the same pipeline on user-supplied parameters.  This module computes
bundles and writes nothing itself: ``write_csv`` and ``write_summary``
format a table or a summary as plain CSV/key=value text with full double
precision, so repeated runs are byte-identical, and the CLI calls them
once a whole bundle exists.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .correlation import closed_form_correlation, quadrature_correlation, wda_coefficients, wda_split
from .errors import NonPositiveError, ZeroDampingError
from .gme import TimeSeries, simulate_population
from .params import SystemParams, convert_couplings, derived_scales, regime_flags
from .spectral import (
    density_peak,
    geff_function,
    linear_effective_density,
    nonlinear_effective_density,
    ohmic_density,
    susceptibility_imag,
)
from .spectrum import SpectrumResult, fourier_spectrum, peak_extract
from .wda import bloch_siegert_shift, build_wda_spectrum, expansion_branch, wda_population

__all__ = ["FIGURE_PARAMS", "SPECTRUM_BAND", "correlation_table", "peak_entries", "run_scenario", "spectral_table",
           "wda_entries", "write_correlation_csv", "write_csv", "write_summary"]

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


# every spectrum is zero padded 8x and summarized by its two tallest peaks
_PAD_FACTOR = 8
_N_PEAKS = 2
# spectra end at omega <= SPECTRUM_BAND*Omega, or further if fourier_spectrum widens the band to hold a line
SPECTRUM_BAND = 3.0

# what the bundle of each population tag holds: (P traces, spectra)
_CONTENTS = {"fig3": (True, False), "fig5": (True, False), "fig7": (True, False),
             "fig4": (False, True), "fig6": (False, True), "fig8": (False, True), "custom": (True, True)}


def _fmt(value) -> str:
    if isinstance(value, (bool, int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return format(float(value), ".17g")


# rows formatted by one % call; blocks bound the size of the string built at once
_CSV_BLOCK_ROWS = 4096


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    # "%.17g" % v and format(v, ".17g") run the same CPython routine, so the bytes match
    row_fmt = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, rows.shape[0], _CSV_BLOCK_ROWS):
            block = rows[start : start + _CSV_BLOCK_ROWS]
            fh.write(row_fmt * block.shape[0] % tuple(block.ravel().tolist()))


def write_summary(path: Path, entries: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in entries.items():
            fh.write(f"{key}={_fmt(value)}\n")


def _base_summary(tag: str, p: SystemParams) -> dict:
    scales = derived_scales(p)
    entries = {
        "scenario": tag,
        "tag": tag,
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


def _spectral_columns(p: SystemParams, omega: np.ndarray):
    scales = derived_scales(p)
    gbar, _ = convert_couplings(p)
    return [
        omega,
        ohmic_density(omega, p.M * p.gamma),
        linear_effective_density(omega, gbar, p.gamma, p.Omega, p.M),
        nonlinear_effective_density(omega, p, scales),
        susceptibility_imag(omega, p, scales),
        geff_function(p, scales)(omega),
    ]


def _check_grid(name: str, end: float, points: int) -> None:
    if not 0.0 < end < np.inf:
        raise NonPositiveError(f"{name} must be positive and finite, got {end}")
    if points < 1:
        raise NonPositiveError(f"points must be at least 1, got {points}")


def _check_damped(p: SystemParams) -> None:
    if p.gamma == 0.0:
        raise ZeroDampingError(f"gamma = {p.gamma}: undamped, each spectral density is a line, not a table")


SPECTRAL_HEADER = ["omega", "J_ohmic", "J_linear_eff", "J_nonlinear_eff", "chi_imag", "G_eff"]


def spectral_table(p: SystemParams, omega_max: float = 3.0, points: int = 1500) -> tuple[list, list]:
    """Header and columns of the spectral densities on ``points`` frequencies up to omega_max*Omega."""
    _check_grid("omega_max", omega_max, points)
    _check_damped(p)
    omega = np.linspace(omega_max / points, omega_max, points) * p.Omega
    return SPECTRAL_HEADER, _spectral_columns(p, omega)


def correlation_table(p: SystemParams, tau_max: float = 30.0, points: int = 121) -> tuple[list, list]:
    """Header and columns of S and R on ``points`` lags up to tau_max/Omega: quadrature, closed form, split."""
    _check_grid("tau_max", tau_max, points)
    scales = derived_scales(p)
    tau = np.linspace(0.0, tau_max / p.Omega, points)
    s_quad, r_quad = quadrature_correlation(p, scales).pair(tau)
    s_closed, r_closed = closed_form_correlation(p, scales).pair(tau)
    s0, s1, r0, r1 = wda_split(tau, wda_coefficients(p, scales), scales)
    return (
        ["tau", "S_quad", "R_quad", "S_closed", "R_closed", "S0", "S1", "R0", "R1"],
        [tau, s_quad, r_quad, s_closed, r_closed, s0, s1, r0, r1],
    )


# the benchmark's oracle workload times the correlation table and its CSV as one call
def write_correlation_csv(path: Path, p: SystemParams, tau_max: float = 30.0, points: int = 121) -> None:
    write_csv(path, *correlation_table(p, tau_max=tau_max, points=points))


def _population_pair(params: SystemParams):
    """NIBA trace and the matching analytic trace on the same grid."""
    series = simulate_population(params)
    spectrum = build_wda_spectrum(params)
    analytic = TimeSeries(h=series.h, values=wda_population(series.times, spectrum))
    return series, analytic, spectrum


def peak_entries(result: SpectrumResult, k: int, prefix: str = "") -> dict:
    """Summary entries for the top-k peaks of a spectrum, in ascending frequency."""
    peaks = peak_extract(result, k)
    entries = {f"{prefix}fft_bin": result.resolution}
    for i, peak in enumerate(sorted(peaks, key=lambda q: q.omega), start=1):
        entries[f"{prefix}peak{i}_omega"] = peak.omega
        entries[f"{prefix}peak{i}_height"] = peak.height
        entries[f"{prefix}peak{i}_half_width"] = peak.half_width
    entries[f"{prefix}peak_shortage"] = len(peaks) < k
    return entries


def wda_entries(spectrum, p: SystemParams) -> dict:
    """Summary entries of the weak-damping solution for these params."""
    return {
        "omega_plus": spectrum.omega_plus,
        "omega_minus": spectrum.omega_minus,
        "bs_shift": bloch_siegert_shift(p),
        "kappa_plus": spectrum.kappa_plus,
        "kappa_minus": spectrum.kappa_minus,
        "u0_abs": abs(spectrum.u0),
        "weight_plus": spectrum.weight_plus,
        "weight_minus": spectrum.weight_minus,
        "sine_plus": spectrum.sine_plus,
        "sine_minus": spectrum.sine_minus,
        "expansion_branch": expansion_branch(p),
    }


def run_scenario(tag: str, params: SystemParams) -> dict:
    """The artifact bundle of a figure tag, or of "custom", run on ``params``.

    The bundle maps each file name to its content: a ``.csv`` name to
    ``(header, columns)`` for ``write_csv``, and ``summary.txt`` to the
    entries for ``write_summary``.  Nothing is written here.

    fig2 holds the spectral densities and their peak.  Every other tag
    runs one loop over its variants: the params alone, or for the fig7/fig8
    twins the params and their alpha = 0 twin, whose files take a
    ``_{label}`` suffix and whose summary keys a ``{label}_`` prefix.
    ``_CONTENTS`` says whether a tag holds P traces, spectra or both; only
    a run without twins holds the WDA spectrum.  Every spectrum, kept or
    only picked for its peak keys, asks for the band omega <= 3*Omega;
    ``fourier_spectrum`` widens a band that leaves a line outside, so a
    run whose lines lie higher (a large Delta, or the multi-phonon lines
    of a strong g) ends further out.  The figure sets end at 3*Omega.
    An unknown tag raises ValueError before anything is computed, and so
    does "custom" at gamma = 0, whose spectral table it cannot hold
    (ZeroDampingError).
    """
    if tag != "fig2" and tag not in _CONTENTS:
        raise ValueError(f"unknown scenario tag {tag!r}; expected one of {sorted([*_CONTENTS, 'fig2'])}")
    bundle = {}
    summary = _base_summary(tag, params)

    if tag == "fig2":
        bundle["spectral.csv"] = spectral_table(params)
        scales = derived_scales(params)
        loc, height = density_peak(
            lambda w: nonlinear_effective_density(w, params, scales), Omega=params.Omega
        )
        summary["jeff_peak_omega"] = loc
        summary["jeff_peak_height"] = height
    else:
        traces, spectra = _CONTENTS[tag]
        if tag == "custom":
            _check_damped(params)  # the spectral table comes last; its input fails first
        twins = tag in ("fig7", "fig8")
        variants = (("nonlinear", params), ("linear", params.with_alpha(0.0))) if twins else (("", params),)
        for label, prm in variants:
            suffix, prefix = (f"_{label}", f"{label}_") if twins else ("", "")
            series, analytic, spectrum = _population_pair(prm)
            if traces:
                for kind, trace in (("niba", series), ("wda", analytic)):
                    bundle[f"P_{kind}{suffix}.csv"] = (["t", "P"], [trace.times, trace.values])
            band = SPECTRUM_BAND * prm.Omega
            result = fourier_spectrum(series, zero_pad_factor=_PAD_FACTOR, omega_max=band)
            if spectra:
                kinds = [("niba", result)]
                if not twins:
                    kinds.append(("wda", fourier_spectrum(analytic, zero_pad_factor=_PAD_FACTOR, omega_max=band)))
                for kind, spec in kinds:
                    bundle[f"spectrum_{kind}{suffix}.csv"] = (["omega", "magnitude"], [spec.omega, spec.magnitude])
            summary.update({prefix + key: value for key, value in wda_entries(spectrum, prm).items()})
            # a run without twins names its peak keys after the trace they come from
            summary.update(peak_entries(result, _N_PEAKS, prefix or "niba_"))
        if tag == "custom":
            bundle["spectral.csv"] = spectral_table(params)

    bundle["summary.txt"] = summary
    return bundle
