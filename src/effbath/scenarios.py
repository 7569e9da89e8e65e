"""Figure-level scenarios: parameter sets, and the tables and summaries of each bundle.

Every figure tag binds the exact caption parameter set; ``custom`` runs
the same pipeline on user-supplied parameters.  This module computes
bundles and writes nothing itself: ``write_csv`` and ``write_summary``
format a table or a summary as plain CSV/key=value text with full double
precision, each value as ``"%.17g"`` prints it, so repeated runs are
byte-identical, and the CLI calls them once a whole bundle exists.
``write_csv`` has one formatter for tables of every size: it forms the
text of a value in %g's fixed-notation range, 1e-4 <= |x| < 1e15, in
numpy from its exact 17 digits, and of any other value by ``"%.17g"``
itself.
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

import numpy as np

from .correlation import closed_form_correlation, quadrature_correlation, wda_coefficients, wda_split
from .errors import NonPositiveError, NoPeaksError, ZeroDampingError
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


# write_csv prints each value as "%.17g" does.  %g prints 1e-4 <= |x| < 1e15 in
# fixed notation, and _g17_text forms those values in numpy: the 17 correctly
# rounded digits D = round(|x|*10**(16 - E)) by an exact integer multiply and
# shift, as CPython's dtoa gets them (Adams, "Ryu revisited: printf floating
# point conversion", 2019).  Every other value, 0, -0.0, |x| < 1e-4,
# |x| >= 1e15, inf and nan, is formatted by "%.17g" itself and spliced in place.
_FIXED_MIN, _FIXED_END = 1e-4, 1e15
# a double in [1e-4, 1e15) is m*2**(e2 - 52) with 2**52 <= m < 2**53 and _E2_MIN <= e2 <= 49
_E2_MIN = -14
# the words of _g17_tables past the 4-digit ones
_MINUS, _POINT, _COMMA, _NEWLINE = 10_000, 10_001, 10_002, 10_003
# the keep row of a spliced text of length n is _SPLICED + n: the rows of the
# 19 decades, 17 last digits and two signs come first
_SPLICED = 19 * 17 * 2 - 1


def _least_double_from(exp10: int) -> float:
    """The least double >= 10**exp10 (exact integer comparison)."""
    value = float(10**exp10) if exp10 >= 0 else 1 / 10**-exp10
    num, den = value.as_integer_ratio()
    if exp10 < 0 and num * 10**-exp10 < den:
        value = math.nextafter(value, math.inf)
    return value


@functools.cache
def _g17_tables() -> tuple:
    """The read-only lookup tables of ``_g17_text``, built on first use.

    A process that writes no CSV never builds them.

    [2**e2, 2**(e2 + 1)) holds at most one power of ten, so the decade E of
    a double in it is ``decade[e2 - _E2_MIN]``, that of 2**e2,
    floor(e2*log10(2)) (exact in floats: e2*log10(2) is 0 or over 0.01 from
    an integer), or the next one from ``next_decade[e2 - _E2_MIN]`` on.
    ``pow5`` holds 5**k for k = 16 - E <= 20, so m*5**k < 2**100.
    ``words`` holds, as uint32, the 4 digits of 0..9999, then "-000",
    "000." and the two separators; ``trailing_zeros`` the trailing zeros
    of each 4-digit word, 4 for 0000.

    Let Z be "0000" and then the 17 digits of D.  Each value gets a 52-byte
    row of 13 words:

        bytes  0..3   "-000"      the sign, and Z[0] at byte 3
        bytes  4..23  Z[1..20]    so Z[c] is at byte 3 + c
        bytes 24..27  "000."      the point at byte 27
        bytes 28..47  Z[1..20]    again, so Z[c] is also at byte 27 + c
        bytes 48..51  the separator at byte 48

    %g prints the integer part Z[4 + min(E, 0) .. 4 + E] (a single 0 when
    E < 0) and, when the last nonzero digit Z[4 + L] lies past it (L > E),
    the point and the fraction Z[5 + E .. 4 + L].  ``keep`` marks those
    bytes, the sign's when negative and the separator's, per (E, L, sign)
    for E in -4..14 and L in 0..16.  Its last 24 rows keep the first 1..24
    bytes and the separator, for the text "%.17g" gives a value outside
    the range, written over the row's first bytes.
    """
    decade = np.array([math.floor(e2 * math.log10(2.0)) for e2 in range(_E2_MIN, 50)])
    next_decade = np.array([_least_double_from(exp10 + 1) for exp10 in decade.tolist()])
    pow5 = np.array([5**k for k in range(21)], dtype=np.uint64)
    four = np.arange(10_000, dtype=np.uint16)
    words = np.concatenate([
        np.stack([four // 10**j % 10 for j in (3, 2, 1, 0)], axis=1).astype(np.uint8) + np.uint8(ord("0")),
        np.frombuffer(b"-000000.,   \n   ", dtype=np.uint8).reshape(4, 4),
    ]).view(np.uint32).ravel()
    trailing_zeros = sum((four % 10**j == 0).astype(np.intp) for j in range(1, 5))
    row = np.arange(52)
    E = np.arange(-4, 15)[:, None, None, None]
    L = np.arange(17)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    integer = (row >= 7 + np.minimum(E, 0)) & (row <= 7 + E)
    fraction = (L > E) & (((row >= 32 + E) & (row <= 31 + L)) | (row == 27))
    fixed = integer | fraction | (row == 48) | ((row == 0) & (negative == 1))
    spliced = (row < np.arange(1, 25)[:, None]) | (row == 48)
    keep = np.concatenate([fixed.reshape(-1, row.size), spliced])
    tables = (decade, next_decade, pow5, words, trailing_zeros, keep)
    for table in tables:
        table.flags.writeable = False
    return tables


def _g17_text(block: np.ndarray) -> np.ndarray:
    """The CSV text of a 2-D float block, as uint8: each value as "%.17g", then "," or a newline."""
    decade, next_decade, pow5, words, trailing_zeros, keep = _g17_tables()
    n = block.size
    x = block.ravel()
    ax = np.abs(x)
    fixed = (ax >= _FIXED_MIN) & (ax < _FIXED_END)
    a = np.where(fixed, ax, 1.0)  # the rest is computed on a stand-in and overwritten below
    bits = a.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    biased = (bits >> np.uint64(52)).astype(np.intp)
    at = biased - (1023 + _E2_MIN)
    E = decade.take(at) + (a >= next_decade.take(at))
    k = 16 - E
    # |x|*10**k = m*5**k / 2**s, with 1 <= s <= 46
    s = (1075 - biased - k).astype(np.uint64)
    # m*5**k in two words (high, low), from 32-bit halves so no partial product wraps
    p5 = pow5.take(k)
    ph, pl = p5 >> np.uint64(32), p5 & np.uint64(0xFFFFFFFF)
    mh, ml = m >> np.uint64(32), m & np.uint64(0xFFFFFFFF)
    lo = ml * pl
    mid = ml * ph + mh * pl
    low = lo + (mid << np.uint64(32))
    high = mh * ph + (mid >> np.uint64(32)) + (low < lo)
    # D = (m*5**k) / 2**s rounded half to even, as dtoa rounds
    q = (high << (np.uint64(64) - s)) | (low >> s)
    r = low & ((np.uint64(1) << s) - np.uint64(1))
    half = np.uint64(1) << (s - np.uint64(1))
    # 10**16 <= D < 10**17: the double below each power of ten 1e-3..1e15 lies at least
    # 8.7 units of its 17th digit below it, so no D rounds up into the next decade
    D = q + ((r > half) | ((r == half) & (q & np.uint64(1)).astype(bool)))
    # the 17 digits: the leading one, then two halves of eight, four to a word
    top = D // np.uint64(10**8)
    bottom = (D - top * np.uint64(10**8)).astype(np.uint32)
    top = top.astype(np.uint32)
    lead = top // np.uint32(10**8)
    top -= lead * np.uint32(10**8)
    w = np.empty((n, 13), np.intp)
    w[:, 0] = _MINUS
    w[:, 1] = lead
    for col, eight in ((2, top), (4, bottom)):
        head = eight // np.uint32(10**4)
        w[:, col] = head
        w[:, col + 1] = eight - head * np.uint32(10**4)
    w[:, 6] = _POINT
    w[:, 7:12] = w[:, 1:6]
    sep = w.reshape(*block.shape, 13)[:, :, 12]
    sep[:, :-1] = _COMMA
    sep[:, -1] = _NEWLINE
    text = words.take(w).view(np.uint8)
    # trailing zeros of D: word j's count is added while every word after it is 0000
    zeros = trailing_zeros.take(w[:, 5])
    for j in (4, 3, 2):
        zeros += (zeros == 4 * (5 - j)) * trailing_zeros.take(w[:, j])
    key = ((E + 4) * 17 + 16 - zeros) * 2 + (x < 0)
    spliced = np.flatnonzero(~fixed)
    if spliced.size:
        texts = ["%.17g" % v for v in x[spliced].tolist()]
        text[spliced, :24] = np.array(texts, dtype="S24").view(np.uint8).reshape(-1, 24)
        key[spliced] = [_SPLICED + len(t) for t in texts]
    return text[keep.take(key, axis=0)]


# values formatted at once; a block's byte tables take about 300 bytes a value,
# and blocks of 8,192 values ran slower per value than 2,048 or 4,096 (2-vCPU Xeon)
_CSV_BLOCK_VALUES = 4096


def write_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    """Write ``columns`` under ``header`` as CSV, each value as ``"%.17g" % value``.

    The rows are formatted in blocks of about ``_CSV_BLOCK_VALUES`` values
    by ``_g17_text``, whatever the table's size: it computes each in-range
    value's 17 digits in numpy and splices in ``"%.17g"`` for the rest.
    """
    rows = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    step = max(1, _CSV_BLOCK_VALUES // rows.shape[1])
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        for start in range(0, rows.shape[0], step):
            fh.write(_g17_text(rows[start : start + step]))


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
    of a strong g) ends further out.  The figure sets end at 3*Omega.  A
    spectrum without a line, as at Delta = 0, where P stays 1, keeps its
    ``fft_bin`` and a ``peak_shortage`` of 1 and names no peak.
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
            peak_prefix = prefix or "niba_"
            try:
                summary.update(peak_entries(result, _N_PEAKS, peak_prefix))
            except NoPeaksError:
                summary.update({f"{peak_prefix}fft_bin": result.resolution, f"{peak_prefix}peak_shortage": True})
        if tag == "custom":
            bundle["spectral.csv"] = spectral_table(params)

    bundle["summary.txt"] = summary
    return bundle
