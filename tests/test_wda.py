import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from effbath import wda
from effbath.correlation import wda_coefficients, wda_split
from effbath.errors import ComplexFrequencyError, RegimeWarning
from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS
from effbath.wda import (
    ExpSum,
    _i0,
    _kernel,
    bloch_siegert_shift,
    build_wda_spectrum,
    decay_rates,
    effective_tunneling,
    first_order_pole,
    kernel_laplace,
    pole_frequencies,
    resonance_analysis,
    truncation_ratio_n2,
    wda_population,
)

FIG3 = {"Omega": 1, "alpha": 0.02, "g": 0.18, "gamma_over_2piOmega": 0.0154,
        "beta": 10, "Delta": 1, "epsilon": 0}


def _tunneling(params):
    scales = derived_scales(params)
    coeffs = wda_coefficients(params, scales)
    return coeffs, scales, effective_tunneling(coeffs, scales, params.Delta, params.beta)


def test_effective_tunneling_decoupled(free_params):
    _, _, tun = _tunneling(free_params)
    assert tun.u0 == 0.0
    assert tun.delta0c == free_params.Delta
    assert tun.delta1c == 0.0 and tun.delta1s == 0.0


def test_effective_tunneling_strong_coupling_values(fig3_params):
    coeffs, _, tun = _tunneling(fig3_params)
    # quoted dressing of the zeroth amplitude: exp(-4*g^2*n1^6) ~ 0.8977
    assert tun.delta0c**2 == pytest.approx(0.8977, rel=1e-3)
    assert tun.delta1c**2 == pytest.approx(tun.delta0c**2 * 4 * 0.18**2 * 0.97**6, rel=5e-3)
    # Bessel correction of the zeroth harmonic is bounded by |u0|^2/4
    gap = (tun.delta0c**2 - fig3_params.Delta**2 * math.exp(coeffs.Y)) / (
        fig3_params.Delta**2 * math.exp(coeffs.Y)
    )
    assert 0.0 <= gap <= abs(tun.u0) ** 2 / 4 * 1.001
    assert abs(tun.u0) < 1.0


def test_truncation_warning_and_strict_error():
    p = build_params({"Omega": 1, "alpha": 0.0, "g": 0.7, "gamma": 0.05,
                      "beta": 0.5, "Delta": 1, "epsilon": 0})
    scales = derived_scales(p)
    coeffs = wda_coefficients(p, scales)
    with pytest.warns(RegimeWarning, match="truncation"):
        tun = effective_tunneling(coeffs, scales, p.Delta, p.beta)
    assert abs(tun.u0) >= 1.0


def test_pole_frequencies_quartic_residual(fig3_params, fig5_params):
    for p in (fig3_params, fig5_params):
        _, scales, tun = _tunneling(p)
        w_plus, w_minus = pole_frequencies(tun.delta0c, tun.delta1c, scales.Omega1)
        assert w_minus > w_plus > 0.0
        b = tun.delta0c**2 + tun.delta1c**2 + scales.Omega1**2
        c = tun.delta0c**2 * scales.Omega1**2
        for lam2 in (-w_plus**2, -w_minus**2):
            assert abs(lam2**2 + b * lam2 + c) < 1e-10


def test_pole_frequencies_degenerate_error():
    # Omega_plus is taken from the product of the roots, so a tiny delta0c keeps its
    # root; no oscillation at all, or squares past the double range, raise
    assert pole_frequencies(1e-9, 0.0, 1.0) == (1e-9, 1.0)
    for degenerate in ((0.0, 0.0, 0.0), (1e200, 0.0, 1.0)):
        with pytest.raises(ComplexFrequencyError):
            pole_frequencies(*degenerate)


@pytest.mark.parametrize("delta", [1.0, 1e-5, 1e-7, 1e-9, 1e-12, 0.0])
def test_pole_frequencies_match_a_60_digit_root_as_delta_vanishes(delta):
    # Omega_plus ~ Delta: the difference -half_sum + root would cancel to nothing here
    mp = pytest.importorskip("mpmath")
    _, scales, tun = _tunneling(build_params(dict(FIG3, Delta=delta)))
    w_plus, w_minus = pole_frequencies(tun.delta0c, tun.delta1c, scales.Omega1)
    with mp.workdps(60):
        d0, d1, om1 = (mp.mpf(x) ** 2 for x in (tun.delta0c, tun.delta1c, scales.Omega1))
        half_sum = (d0 + d1 + om1) / 2
        root = mp.sqrt(half_sum**2 - d0 * om1)
        ref_plus, ref_minus = float(mp.sqrt(half_sum - root)), float(mp.sqrt(half_sum + root))
    assert abs(w_plus - ref_plus) <= 2 * math.ulp(ref_plus)
    assert abs(w_minus - ref_minus) <= 2 * math.ulp(ref_minus)
    assert math.copysign(1.0, w_plus) == 1.0
    if delta == 0.0:  # without tunneling the poles are exactly +0 and Omega1
        assert (w_plus, w_minus) == (0.0, scales.Omega1)


def test_dressed_resonance_exact_splitting(fig3_params):
    # at the dressed resonance the splitting equals the first-harmonic
    # amplitude exactly, and the lowest-order frequencies are symmetric
    scales = derived_scales(fig3_params)
    coeffs = wda_coefficients(fig3_params, scales)
    # the bare Delta whose dressed zeroth amplitude hits Omega1; the
    # dressing factor does not depend on Delta
    beta = fig3_params.beta
    dressing = effective_tunneling(coeffs, scales, 1.0, beta).delta0c
    tun = effective_tunneling(coeffs, scales, scales.Omega1 / dressing, beta)
    omega_plus_exact, omega_minus_exact = pole_frequencies(tun.delta0c, tun.delta1c, scales.Omega1)
    assert tun.delta0c == pytest.approx(scales.Omega1, rel=1e-12)
    assert omega_minus_exact - omega_plus_exact == pytest.approx(tun.delta1c, rel=1e-12)
    # lowest-order values sit within Delta1c^2/(4*Omega1) of the exact roots
    omega_plus = scales.Omega1 - tun.delta1c / 2
    assert abs(omega_plus - omega_plus_exact) <= tun.delta1c**2 / (4 * scales.Omega1)


def test_bloch_siegert_shift_value(fig3_params):
    assert bloch_siegert_shift(fig3_params) == pytest.approx(0.3492, rel=1e-12)


def test_resonance_analysis_strong_coupling(fig3_params):
    report = resonance_analysis(fig3_params)
    assert report["branch"] == "coupling-dominated"
    assert report["omega_minus"] == pytest.approx(1.2046, rel=1e-12)
    assert report["omega_plus"] == pytest.approx(0.8554, rel=1e-12)


def test_resonance_analysis_weak_coupling(fig5_params):
    report = resonance_analysis(fig5_params)
    assert report["branch"] == "nonlinearity-dominated"
    assert report["omega_plus"] == pytest.approx(1.0, abs=1e-14)
    assert report["omega_minus"] == pytest.approx(1.06, abs=1e-14)
    # full pole equation reproduces the degenerate pair to sub-bin accuracy
    assert report["omega_plus_exact"] == pytest.approx(1.0, abs=1e-3)
    assert report["omega_minus_exact"] == pytest.approx(1.06, abs=1e-3)


def test_resonance_analysis_linear_limit():
    p = build_params({"Omega": 1, "alpha": 0.0, "g": 0.18, "gamma": 0.097,
                      "beta": 10, "Delta": 1, "epsilon": 0})
    report = resonance_analysis(p)
    assert report["bs_shift"] == pytest.approx(2 * 0.18, rel=1e-14)
    assert report["omega_plus"] == pytest.approx(1 - 0.18, rel=1e-14)
    assert report["omega_minus"] == pytest.approx(1 + 0.18, rel=1e-14)


def test_expansion_consistency_envelope():
    # lowest-order frequencies track the exact roots within
    # C*(alpha^2 + g^2 + alpha*g); C fitted over the regime grid at 13.5
    worst = 0.0
    for alpha in (0.0, 0.01, 0.02, 0.03, 0.05):
        for g in (0.02, 0.05, 0.1, 0.18, 0.25):
            if g < alpha:
                continue
            p = build_params({"Omega": 1, "alpha": alpha, "g": g,
                              "gamma_over_2piOmega": 0.0154, "beta": 10,
                              "Delta": 1, "epsilon": 0})
            report = resonance_analysis(p)
            scale = alpha**2 + g**2 + alpha * g
            err = max(abs(report["omega_plus"] - report["omega_plus_exact"]),
                      abs(report["omega_minus"] - report["omega_minus_exact"]))
            worst = max(worst, err / scale)
    assert worst <= 20.0


def _kernel_time(tau, coeffs, scales, tun, damped=1):
    """The truncated kernel from the correlation pieces; damped=0 gives K0, where S1 = R1 = 0."""
    tau = np.asarray(tau, dtype=float)
    _, s1, _, r1 = wda_split(tau, coeffs, scales)
    s1, r1 = damped * s1, damped * r1
    phase = scales.Omega1 * tau
    return (tun.delta0c**2 * (1 - s1)
            + tun.delta1c**2 * np.cos(phase) * (1 - s1)
            - tun.delta1s**2 * np.sin(phase) * r1)


def test_exp_sum_evaluates_the_kernel(fig3_params):
    # real rates taken once, conjugate pairs as 2*Re, tau powers applied
    coeffs, scales, tun = _tunneling(fig3_params)
    undamped, kernel = (_kernel(tun, coeffs, scales.Omega1, damped) for damped in (False, True))
    tau = np.linspace(0.0, 50.0, 1001)
    np.testing.assert_allclose(kernel(tau), _kernel_time(tau, coeffs, scales, tun), rtol=0, atol=1e-13)
    np.testing.assert_allclose(undamped(tau), _kernel_time(tau, coeffs, scales, tun, 0), rtol=0, atol=1e-15)


def test_kernel_laplace_matches_numerical_transform(fig3_params):
    # the value, the derivative -L[tau*K] and the undamped curvature
    # L[tau^2*K0], which together feed every sine amplitude
    coeffs, scales, tun = _tunneling(fig3_params)
    undamped = _kernel(tun, coeffs, scales.Omega1, damped=False)
    for lam in (0.3 + 0.9j, 0.8 + 1.7j):
        value, deriv = kernel_laplace(lam, tun, coeffs, scales.Omega1)
        for analytic, tau_power, sign, damped in ((value, 0, 1, 1), (deriv, 1, -1, 1),
                                                  (undamped.laplace(lam, 2), 2, 1, 0)):
            def integrand(t, part):
                return float(part(sign * t**tau_power * _kernel_time(t, coeffs, scales, tun, damped) * np.exp(-lam * t)))

            numeric = (quad(integrand, 0, 200, args=(np.real,), limit=400)[0]
                       + 1j * quad(integrand, 0, 200, args=(np.imag,), limit=400)[0])
            assert analytic == pytest.approx(numeric, abs=1e-8)


def test_decay_rates_zero_damping(free_params):
    coeffs, scales, tun = _tunneling(free_params)
    w_plus, w_minus = pole_frequencies(tun.delta0c, tun.delta1c, scales.Omega1)
    kp, km, root_p, root_m = decay_rates(tun, coeffs, scales.Omega1, w_plus, w_minus,
                                         0.0, free_params.Delta, free_params.Omega)
    assert kp == 0.0 and km == 0.0
    assert root_p == 1j * w_plus and root_m == 1j * w_minus


def test_decay_rates_strong_coupling(fig3_params):
    spectrum = build_wda_spectrum(fig3_params)
    assert spectrum.kappa_plus > 0.0 and spectrum.kappa_minus > 0.0
    # converged imaginary parts stay within O(gamma^2) of the undamped poles
    coeffs, scales, tun = _tunneling(fig3_params)
    _, _, root_p, root_m = decay_rates(
        tun, coeffs, scales.Omega1, spectrum.omega_plus, spectrum.omega_minus,
        fig3_params.gamma, fig3_params.Delta, fig3_params.Omega,
    )
    bound = 1.5 * fig3_params.gamma**2
    assert abs(root_p.imag - spectrum.omega_plus) <= bound
    assert abs(root_m.imag - spectrum.omega_minus) <= bound


def test_decay_rates_first_order_scaling(fig3_params):
    # halving the damping halves both rates within 5 percent once the base
    # damping is modest (half the strong-coupling figure value)
    rates = {}
    for factor in (0.5, 0.25):
        raw = dict(FIG3)
        raw.pop("gamma_over_2piOmega")
        raw["gamma"] = fig3_params.gamma * factor
        p = build_params(raw)
        spectrum = build_wda_spectrum(p)
        rates[factor] = (p.gamma * spectrum.kappa_plus, p.gamma * spectrum.kappa_minus)
    assert rates[0.25][0] / rates[0.5][0] == pytest.approx(0.5, rel=0.05)
    assert rates[0.25][1] / rates[0.5][1] == pytest.approx(0.5, rel=0.05)


def test_decay_rates_match_population_envelope(fig3_params, fig3_series):
    # fit a single exponential through the |P| maxima of both traces over the
    # same window; the rates must agree well inside the 20 percent gate
    spectrum = build_wda_spectrum(fig3_params)
    analytic = wda_population(fig3_series.times, spectrum)

    def fitted_rate(values):
        mags = np.abs(values)
        idx = np.nonzero((mags[1:-1] > mags[:-2]) & (mags[1:-1] >= mags[2:]))[0] + 1
        t = fig3_series.times[idx]
        keep = (t >= 5.0) & (t <= 60.0)
        slope = np.polyfit(t[keep], np.log(mags[idx][keep]), 1)[0]
        return -slope

    assert fitted_rate(fig3_series.values) == pytest.approx(fitted_rate(analytic), rel=0.2)


def test_a_spectrum_builds_its_kernel_once(fig3_params):
    # K and K0 are built by the first pole and taken again by the second
    _kernel.cache_clear()
    build_wda_spectrum(fig3_params)
    info = _kernel.cache_info()
    assert (info.misses, info.hits) == (2, 2)


def test_kept_kernels_give_the_spectrum_of_rebuilt_ones(monkeypatch):
    # 64 points drawn as the benchmark sweep draws them at seed 1, and every
    # figure set with its linear twin: every field bit for bit
    rng = np.random.default_rng(1)
    raws = [dict(FIGURE_PARAMS["fig3"], g=rng.uniform(0.002, 0.2), alpha=rng.uniform(0.0, 0.05),
                 beta=rng.uniform(5.0, 20.0), Delta=rng.uniform(0.8, 1.2)) for _ in range(64)]
    params = [build_params(raw) for raw in raws]
    params += [q for raw in FIGURE_PARAMS.values() for q in (build_params(raw), build_params(raw).with_alpha(0.0))]
    kept = [repr(dataclasses.astuple(build_wda_spectrum(p))) for p in params]
    monkeypatch.setattr(wda, "_kernel", _kernel.__wrapped__)
    assert [repr(dataclasses.astuple(build_wda_spectrum(p))) for p in params] == kept


def test_first_order_pole_is_the_slope_of_the_exact_root(fig3_params):
    # scaling the damping amplitudes A, B, C, V by eps scales K1 by eps, so
    # the exact root and residue of 1/(lam + K0 + eps*K1) must leave the
    # undamped ones along the first-order shift and residue correction
    coeffs, scales, tun = _tunneling(fig3_params)
    spectrum = build_wda_spectrum(fig3_params)
    eps = 1e-4
    scaled = dataclasses.replace(coeffs, A=eps * coeffs.A, B=eps * coeffs.B,
                                 C=eps * coeffs.C, V=eps * coeffs.V)
    _, _, root_p, root_m = decay_rates(
        tun, scaled, scales.Omega1, spectrum.omega_plus, spectrum.omega_minus,
        fig3_params.gamma, fig3_params.Delta, fig3_params.Omega,
    )
    for root, omega, weight in ((root_p, spectrum.omega_plus, spectrum.weight_plus),
                                (root_m, spectrum.omega_minus, spectrum.weight_minus)):
        kappa, sine = first_order_pole(tun, coeffs, scales.Omega1, omega, weight, fig3_params.gamma)
        residue = 1.0 / (1.0 + kernel_laplace(root, tun, scaled, scales.Omega1)[1])
        assert (root - 1j * omega) / eps == pytest.approx(-fig3_params.gamma * kappa, rel=1e-3)
        assert (residue - 0.5 * weight) / eps == pytest.approx(-0.5j * sine, rel=1e-3)


def _matrix_pencil(times, values, n_poles):
    """The sum of damped exponentials fitted to a trace (Hua & Sarkar 1990)."""
    step = times[1] - times[0]
    rows = len(values) // 2
    hankel = np.array([values[i:i + rows + 1] for i in range(len(values) - rows)])
    basis = np.linalg.svd(hankel, full_matrices=False)[2][:n_poles].conj().T
    poles = np.log(np.linalg.eigvals(np.linalg.pinv(basis[:-1]) @ basis[1:])) / step
    residues = np.linalg.lstsq(np.exp(np.outer(times, poles)), values, rcond=None)[0]
    return ExpSum(tuple(poles.tolist()), tuple(residues.tolist()), (0,) * n_poles)


def test_first_order_poles_match_the_march(fig3_params, fig3_series):
    # the march's dominant poles and residues, fitted by a matrix pencil,
    # against the analytic ones: rates to relative O(gamma), and residue
    # phases to O(gamma^2) (a real-weight trace misses them by O(gamma))
    analytic = build_wda_spectrum(fig3_params).poles()
    gamma = fig3_params.gamma
    fit = _matrix_pencil(fig3_series.times[::20], fig3_series.values[::20], 8)
    for rate, amp in zip(analytic.rates, analytic.amps):
        k = np.argmin(np.abs(np.array(fit.rates) - rate))
        assert abs(fit.rates[k].imag - rate.imag) < 0.01
        assert fit.rates[k].real == pytest.approx(rate.real, rel=gamma)
        assert abs(np.angle(fit.amps[k]) - np.angle(amp)) <= gamma**2


def _times(f, g):
    """Product of two exponential sums held as lists of (tau power, rate, amplitude)."""
    return [(m1 + m2, s1 + s2, c1 * c2) for m1, s1, c1 in f for m2, s2, c2 in g]


def _first_order_pole_reference(mp, tun, coeffs, omega1, omega, weight, gamma):
    """``first_order_pole``'s formula at 50 digits on the same inputs.

    The kernel is expanded from its product form
    d0c^2*(1 - S1) + d1c^2*cos(w1 t)*(1 - S1) - d1s^2*sin(w1 t)*R1.
    """
    with mp.workdps(50):
        d0, d1c, d1s = (mp.mpf(x) ** 2 for x in (tun.delta0c, tun.delta1c, tun.delta1s))
        a, b, c, v, w = (mp.mpf(x) for x in (coeffs.A, coeffs.B, coeffs.C, coeffs.V, omega1))
        iw, half, halfj = mp.mpc(0, w), mp.mpf(0.5), mp.mpc(0, 0.5)
        cos = [(0, iw, half), (0, -iw, half)]
        sin = [(0, iw, -halfj), (0, -iw, halfj)]
        # 1 - S1 and R1 as correlation.wda_split writes them
        one_minus_s1 = [(0, 0, 1), (1, iw, -a / 2), (1, -iw, -a / 2), (1, 0, -b),
                        (0, iw, c * halfj), (0, -iw, -c * halfj)]
        r1 = [(0, 0, v), (0, iw, -v / 2), (0, -iw, -v / 2), (1, iw, v * w * halfj / 2), (1, -iw, -v * w * halfj / 2)]
        undamped = [(0, 0, d0), *((m, s, d1c * x) for m, s, x in cos)]
        kernel = [(m, s, d0 * x) for m, s, x in one_minus_s1]
        kernel += [(m, s, d1c * x) for m, s, x in _times(cos, one_minus_s1)]
        kernel += [(m, s, -d1s * x) for m, s, x in _times(sin, r1)]
        lam = mp.mpc(0, omega)

        def transform(terms, order):  # d^order/dlam^order of the Laplace transform
            return sum(x * (-1) ** order * mp.factorial(m + order) / (lam - s) ** (m + order + 1)
                       for m, s, x in terms)

        r0 = mp.mpf(weight) / 2
        shift = transform(kernel, 0).real
        sine = 2 * r0**2 * (transform(kernel, 1).imag - r0 * shift * transform(undamped, 2).imag)
        return float(r0 * shift / gamma), float(sine)


def test_first_order_pole_matches_a_50_digit_reference(fig3_params, fig5_params):
    # at fig5 omega_minus lies 4.6e-5 from Omega1, where the transform
    # lam/(lam^2 + w^2) of a kernel harmonic loses digits to cancellation
    mp = pytest.importorskip("mpmath")
    for p in (fig3_params, fig5_params):
        coeffs, scales, tun = _tunneling(p)
        spectrum = build_wda_spectrum(p)
        for omega, weight in ((spectrum.omega_plus, spectrum.weight_plus),
                              (spectrum.omega_minus, spectrum.weight_minus)):
            kappa, sine = first_order_pole(tun, coeffs, scales.Omega1, omega, weight, p.gamma)
            ref_kappa, ref_sine = _first_order_pole_reference(mp, tun, coeffs, scales.Omega1, omega, weight, p.gamma)
            assert abs(kappa - ref_kappa) <= 1e-14 * abs(ref_kappa)
            assert abs(sine - ref_sine) <= 1e-12 * abs(ref_sine)


def test_weights_sum_to_one_exactly(fig3_params, fig5_params):
    for p in (fig3_params, fig5_params):
        spectrum = build_wda_spectrum(p)
        assert spectrum.weight_plus + spectrum.weight_minus == 1.0


def test_population_initial_value_exact(fig3_params):
    spectrum = build_wda_spectrum(fig3_params)
    assert wda_population(0.0, spectrum) == 1.0


def test_population_decoupled_cosine(free_params):
    spectrum = build_wda_spectrum(free_params)
    t = np.linspace(0.0, 40.0, 500)
    np.testing.assert_allclose(wda_population(t, spectrum), np.cos(t), rtol=0, atol=1e-12)


@pytest.mark.parametrize("delta", [1.0, 1.06], ids=["delta_1", "delta_Omega1"])
def test_damped_decoupled_qubit_has_a_silent_second_pole(delta):
    # g = 0 with gamma > 0: W = 0, and the second pole sits at Omega1 on the kernel's own pole
    p = build_params({"Omega": 1, "alpha": 0.02, "g": 0.0, "gamma": 0.097, "beta": 10, "Delta": delta, "epsilon": 0})
    assert derived_scales(p).Omega1 == 1.06
    spectrum = build_wda_spectrum(p)
    assert spectrum.weight_minus == spectrum.kappa_minus == spectrum.sine_minus == 0.0
    t = np.linspace(0.0, 40.0, 500)
    np.testing.assert_allclose(wda_population(t, spectrum), np.cos(delta * t), rtol=0, atol=1e-12)


def test_truncation_ratio_second_harmonic_small(fig3_params):
    coeffs, scales, tun = _tunneling(fig3_params)
    ratio = truncation_ratio_n2(tun, coeffs, fig3_params.beta, scales.Omega1)
    assert 0.0 < ratio < 0.1
    # a cold bath, beta*Omega1 = 1060: 1/sinh^2 underflows instead of sinh^2 overflowing
    cold = dataclasses.replace(fig3_params, beta=1000.0)
    coeffs, scales, tun = _tunneling(cold)
    assert 0.0 < truncation_ratio_n2(tun, coeffs, cold.beta, scales.Omega1) < 0.1


def test_i0_is_within_its_error_bound_of_a_40_digit_reference(fig3_params, fig5_params):
    # term k of the power series carries about 3k roundings and the largest
    # terms sit near k = x/2, so the bound is (1.5*x + 1) ulp; 713 lies near
    # the double range's end, and the |u0| the figures evaluate (each set
    # with and without its nonlinearity) come out correctly rounded
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    x = [0.0, 8.0, 700.0, 713.0, *rng.uniform(0.0, 1.0, 500).tolist(), *rng.uniform(0.0, 700.0, 1000).tolist()]
    u0 = [abs(build_wda_spectrum(q).u0) for p in (fig3_params, fig5_params) for q in (p, p.with_alpha(0.0))]
    with mp.workdps(40):
        for v in x:
            ref = mp.besseli(0, v)
            assert abs(mp.mpf(_i0(v)) - ref) <= (1.5 * v + 1.0) * math.ulp(float(ref)), v
        assert [_i0(v) for v in u0] == [float(mp.besseli(0, v)) for v in u0]


def test_i0_limits_and_parity():
    # the series stops on a comparison that is false for nan, and a sum past
    # the double range is inf rather than fsum's OverflowError: from the first
    # double whose running sum overflows, all of whose terms are finite, and
    # at 720, where the largest terms overflow too
    assert _i0(0.0) == 1.0
    edge = 713.9869085439683
    assert _i0(math.nextafter(edge, 0.0)) < math.inf
    assert _i0(edge) == _i0(720.0) == _i0(math.inf) == math.inf
    assert math.isnan(_i0(math.nan))
    x = np.random.default_rng(9).uniform(0.0, 700.0, 200).tolist() + [1e-300, 0.5, 8.0, 713.0, 720.0]
    assert [_i0(-v) for v in x] == [_i0(v) for v in x]
