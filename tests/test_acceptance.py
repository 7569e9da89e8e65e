"""Acceptance suite: one check per headline claim, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass/fail
lines.  Checks that carry a runtime budget time their own fresh pipeline
run (after a tiny warm-up run so first-call overhead is not billed as
runtime).
"""

import math
import time

import numpy as np
import pytest

from oracles import quadpack_correlation

from effbath.correlation import (
    closed_form_correlation,
    wda_coefficients,
    wda_split,
)
from effbath.gme import simulate_population
from effbath.params import build_params, convert_couplings, derived_scales
from effbath.scenarios import FIGURE_PARAMS
from effbath.spectral import (
    density_peak,
    linear_effective_density,
    nonlinear_effective_density,
    susceptibility_imag,
)
from effbath.spectrum import fourier_spectrum, peak_extract
from effbath.wda import bloch_siegert_shift, build_wda_spectrum, wda_population

from test_correlation import matsubara_envelope


def _report(num: str, description: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    extra = f" | {detail}" if detail else ""
    print(f"[{tag}] criterion {num}: {description}{extra}")
    return ok


@pytest.fixture(scope="module")
def fig3():
    return build_params(FIGURE_PARAMS["fig3"])


@pytest.fixture(scope="module")
def fig5():
    return build_params(FIGURE_PARAMS["fig5"])


@pytest.fixture(scope="module")
def fig3_run(fig3):
    return simulate_population(fig3)


@pytest.fixture(scope="module")
def fig5_run(fig5):
    return simulate_population(fig5)


@pytest.fixture(scope="module")
def fig3_linear_run(fig3):
    return simulate_population(fig3.with_alpha(0.0))


def _warm_up_solver():
    p = build_params({"Omega": 1, "alpha": 0, "g": 0, "gamma": 0, "beta": 10,
                      "Delta": 1, "epsilon": 0})
    simulate_population(p, horizon=1.0)


def test_criterion_01_mapping_identity():
    """Direct density equals the susceptibility route to 1e-12 everywhere."""
    start = time.perf_counter()
    worst = 0.0
    for tag in ("fig2", "fig3", "fig5"):
        p = build_params(FIGURE_PARAMS[tag])
        s = derived_scales(p)
        gbar, _ = convert_couplings(p)
        w = np.linspace(1e-3, 3.0, 1000)
        direct = nonlinear_effective_density(w, p, s)
        via_chi = -(gbar**2) * susceptibility_imag(w, p, s)
        worst = max(worst, float(np.max(np.abs(direct - via_chi) / np.abs(via_chi))))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    assert _report("01", "mapping identity (two density routes)", ok,
                   f"worst rel dev {worst:.2e}, {elapsed:.3f} s")


def test_criterion_02_peak_location():
    """The density maximum sits at the shifted frequency within 1e-3."""
    p = build_params(FIGURE_PARAMS["fig2"])
    s = derived_scales(p)
    loc, _ = density_peak(lambda w: nonlinear_effective_density(w, p, s), Omega=p.Omega)
    dev = abs(loc - 1.06)
    assert _report("02", "density peaked at the shifted frequency", dev < 1e-3,
                   f"peak at {loc:.6f}, |dev| {dev:.2e}")


def test_criterion_03_linear_limit():
    """alpha -> 0 at low temperature reproduces the harmonic-oscillator
    density near resonance.

    The 5 percent band is taken relative to the resonance height (the two
    densities differ by up to 15 percent pointwise at three linewidths,
    where both are two orders of magnitude below the peak), and the
    on-resonance height ratio is the squared thermal weight exactly.
    """
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        p = build_params({"Omega": 1, "alpha": 0.0, "g": 0.18, "gamma": 0.097,
                          "beta": 200, "Delta": 1, "epsilon": 0})
    s = derived_scales(p)
    gbar, _ = convert_couplings(p)
    w = np.linspace(1 - 3 * p.gamma, 1 + 3 * p.gamma, 601)
    jeff = nonlinear_effective_density(w, p, s)
    jho = linear_effective_density(w, gbar, p.gamma, p.Omega, p.M)
    shape_dev = float(np.abs(jeff - jho).max() / jho.max())

    ratio = float(nonlinear_effective_density(1.0, p, s)
                  / linear_effective_density(1.0, gbar, p.gamma, p.Omega, p.M))
    ratio_dev = abs(ratio - 1.0 / (2 * s.nth + 1) ** 2)
    ok = shape_dev <= 0.05 and ratio_dev <= 1e-10
    assert _report("03", "linear limit matches the harmonic density", ok,
                   f"shape dev {shape_dev:.3%} of peak, height-ratio dev {ratio_dev:.1e}")


def test_criterion_04_correlation_oracle(fig3):
    """Closed-form correlation vs adaptive quadrature of the defining
    integral, within the percent band plus the envelope of the neglected
    thermal-pole terms (the closed form drops them by construction)."""
    s = derived_scales(fig3)
    start = time.perf_counter()
    tau = np.linspace(0.0, 30.0, 121)
    quad = quadpack_correlation(fig3, s)
    s_q, r_q = quad.pair(tau)
    elapsed = time.perf_counter() - start
    closed = closed_form_correlation(fig3, s)
    s_c = np.asarray(closed.S(tau))
    r_c = np.asarray(closed.R(tau))
    envelope = matsubara_envelope(fig3, s)
    tol = np.maximum.reduce([0.02 * np.abs(s_q), 0.02 * np.abs(r_q),
                             np.full_like(tau, 1e-4)]) + envelope
    worst = float(max((np.abs(s_c - s_q) / tol).max(), (np.abs(r_c - r_q) / tol).max()))
    ok = worst <= 1.0 and elapsed < 30.0
    assert _report("04", "correlation closed form vs quadrature oracle", ok,
                   f"worst dev/tol {worst:.2f}, envelope {envelope:.1e}, {elapsed:.1f} s")


def test_criterion_05_damping_order(fig3):
    """(S - S0 - S1) is second order in the damping: halving gamma must
    shrink the residual at least 3.5x."""
    residuals = []
    for factor in (1.0, 0.5):
        raw = dict(FIGURE_PARAMS["fig3"])
        raw.pop("gamma_over_2piOmega")
        raw["gamma"] = fig3.gamma * factor
        p = build_params(raw)
        s = derived_scales(p)
        corr = closed_form_correlation(p, s)
        coeffs = wda_coefficients(p, s)
        tau = np.linspace(0.0, 10.0, 401)
        s0, s1, _, _ = wda_split(tau, coeffs, s)
        residuals.append(float(np.abs(np.asarray(corr.S(tau)) - s0 - s1).max()))
    ratio = residuals[0] / residuals[1]
    assert _report("05", "weak-damping split residual is second order", ratio >= 3.5,
                   f"halving ratio {ratio:.2f}")


def test_criterion_06_free_qubit():
    """Decoupled, undamped qubit: the solver reproduces the cosine to 1e-3
    over ten periods and converges at second order."""
    p = build_params({"Omega": 1, "alpha": 0, "g": 0, "gamma": 0, "beta": 10,
                      "Delta": 1, "epsilon": 0})
    horizon = 10 * 2 * math.pi
    series = simulate_population(p, horizon=horizon)
    err = float(np.abs(series.values - np.cos(series.times)).max())
    half = simulate_population(p, step=series.h / 2, horizon=horizon)
    err_half = float(np.abs(half.values - np.cos(half.times)).max())
    order = math.log2(err / err_half)
    ok = err <= 1e-3 and order >= 1.9
    assert _report("06", "free-qubit cosine limit", ok,
                   f"max err {err:.2e}, halving order {order:.2f}")


def test_criterion_07_frequency_splitting(fig3):
    """Strong-coupling trace shows two dominant peaks split by the
    lowest-order level repulsion within 5 percent plus one bin."""
    _warm_up_solver()
    start = time.perf_counter()
    series = simulate_population(fig3)
    result = fourier_spectrum(series, zero_pad_factor=8)
    peaks = peak_extract(result, 2)
    elapsed = time.perf_counter() - start
    locs = sorted(q.omega for q in peaks)
    separation = locs[1] - locs[0]
    target = bloch_siegert_shift(fig3)
    tol = 0.05 * target + result.resolution
    ok = (len(peaks) == 2 and abs(separation - target) <= tol and elapsed < 60.0)
    assert _report("07", "two-peak splitting matches the dressed-shift formula", ok,
                   f"sep {separation:.4f} vs {target:.4f} (tol {tol:.4f}), {elapsed:.1f} s")


def test_criterion_08_weak_coupling_frequencies(fig5, fig5_run):
    """Weak coupling: transition frequencies collapse onto the bare and
    shifted oscillator frequencies.

    Checked on the analytic pole frequencies (sub-bin agreement) and on
    the trace spectrum: every dominant spectral feature lies within one
    bin of a predicted transition.  At the default horizon the two
    frequencies are one bin apart, so this is a resolution-level check;
    the second spectral component carries less than 0.1 percent of the
    weight and is not separately resolvable.
    """
    spectrum = build_wda_spectrum(fig5)
    result = fourier_spectrum(fig5_run, zero_pad_factor=8)
    bin_width = result.resolution
    analytic_ok = (abs(spectrum.omega_plus - 1.0) <= bin_width
                   and abs(spectrum.omega_minus - 1.06) <= bin_width)
    peaks = peak_extract(result, 2)
    targets = (spectrum.omega_plus, spectrum.omega_minus)
    spectral_ok = all(min(abs(q.omega - t) for t in targets) <= bin_width for q in peaks)
    dominant = max(peaks, key=lambda q: q.height)
    spectral_ok = spectral_ok and abs(dominant.omega - spectrum.omega_plus) <= bin_width
    ok = analytic_ok and spectral_ok
    assert _report("08", "weak-coupling frequencies at the bare/shifted pair", ok,
                   f"poles ({spectrum.omega_plus:.5f}, {spectrum.omega_minus:.5f}), bin {bin_width:.4f}")


def test_criterion_09a_cross_solver_strong_coupling(fig3, fig3_run):
    """Analytic vs numerical trace at strong coupling, 0.1 band.

    The analytic poles and residues are first order in the damping.  At
    beat nodes the two components nearly cancel, so this check fails if
    either pole's decay rate or residue phase is wrong at that order.
    """
    spectrum = build_wda_spectrum(fig3)
    mask = fig3_run.times <= 50.0
    diff = float(np.abs(wda_population(fig3_run.times[mask], spectrum)
                        - fig3_run.values[mask]).max())
    ok = diff <= 0.1
    assert _report("09a", "analytic vs numerical trace (strong coupling)", ok,
                   f"max diff {diff:.4f} (band 0.1)")


def test_criterion_09b_cross_solver_weak_coupling(fig5, fig5_run):
    spectrum = build_wda_spectrum(fig5)
    mask = fig5_run.times <= 50.0
    diff = float(np.abs(wda_population(fig5_run.times[mask], spectrum)
                        - fig5_run.values[mask]).max())
    ok = diff <= 0.02
    assert _report("09b", "analytic vs numerical trace (weak coupling)", ok,
                   f"max diff {diff:.4f} (band 0.02)")


def test_criterion_10_nonlinearity_regression(fig3, fig3_run, fig3_linear_run):
    """Both dominant resonances move up when the nonlinearity is switched
    on, and the analytic output keeps its exact normalization."""
    def top_two(series):
        result = fourier_spectrum(series, zero_pad_factor=8)
        return sorted(q.omega for q in peak_extract(result, 2))

    nonlinear = top_two(fig3_run)
    linear = top_two(fig3_linear_run)
    shifts_up = nonlinear[0] > linear[0] and nonlinear[1] > linear[1]

    spectrum = build_wda_spectrum(fig3)
    exact = (spectrum.weight_plus + spectrum.weight_minus == 1.0
             and wda_population(0.0, spectrum) == 1.0)
    ok = shifts_up and exact
    assert _report("10", "nonlinearity raises both resonances; normalization exact", ok,
                   f"nonlinear {nonlinear[0]:.4f}/{nonlinear[1]:.4f} vs linear {linear[0]:.4f}/{linear[1]:.4f}")
