import math

import numpy as np
import pytest

from effbath import correlation
from effbath.correlation import (
    closed_form_coefficients,
    closed_form_correlation,
    correlation_closed_form,
    correlation_quadrature,
    quadrature_correlation,
    wda_coefficients,
    wda_split,
)
from effbath.errors import QuadratureNonConvergence, ZeroDampingError
from effbath.gme import niba_kernels
from effbath.params import build_params, derived_scales
from effbath.scenarios import write_correlation_csv

FIG3 = {"Omega": 1, "alpha": 0.02, "g": 0.18, "gamma_over_2piOmega": 0.0154,
        "beta": 10, "Delta": 1, "epsilon": 0}


def matsubara_envelope(p, s, nmax=50):
    """Magnitude sum of the thermal-pole residues dropped by the closed form."""
    pref = 4.0 * s.varsigma * p.Omega**2 * s.Omega1
    total = 0.0
    for n in range(1, nmax + 1):
        w = 1j * (2.0 * math.pi * n / p.beta)
        total += abs(pref / (w * (w + s.Omega1) * (s.gammabar**2 + (w - s.Omega1) ** 2)))
    return 4.0 * math.pi / p.beta * total


def test_coefficients_identities(fig3_params, fig3_scales):
    c = closed_form_coefficients(fig3_params, fig3_scales)
    assert c.X == pytest.approx(2.0 * c.I / fig3_params.beta, rel=1e-15)
    expected_i = 2 * math.pi * fig3_scales.varsigma / (1.06**2 + fig3_scales.gammabar**2)
    assert c.I == pytest.approx(expected_i, rel=1e-14)
    assert c.I > 0.0
    assert c.N == pytest.approx(
        -c.I * (fig3_scales.Omega1 / fig3_scales.gammabar - fig3_scales.gammabar / fig3_scales.Omega1),
        rel=1e-14,
    )


@pytest.mark.filterwarnings("ignore::effbath.errors.RegimeWarning")
def test_coefficients_zero_temperature_limits():
    p = build_params(dict(FIG3, beta=400))
    s = derived_scales(p)
    c = closed_form_coefficients(p, s)
    assert c.L == pytest.approx(-c.I * s.Omega1 / s.gammabar, rel=1e-6)
    assert c.Z == pytest.approx(-c.I, rel=1e-6)


def test_coefficients_zero_damping():
    p = build_params(dict(FIG3, gamma=0.0))  # direct value wins over the scaled key
    with pytest.raises(ZeroDampingError):
        closed_form_coefficients(p, derived_scales(p))


def test_closed_form_boundary_values(fig3_params, fig3_scales):
    c = closed_form_coefficients(fig3_params, fig3_scales)
    s0, r0 = correlation_closed_form(0.0, c, fig3_scales)
    assert s0 == 0.0 and r0 == 0.0
    _, r_late = correlation_closed_form(200.0, c, fig3_scales)
    assert r_late == pytest.approx(c.I, abs=1e-5)


@pytest.mark.parametrize("raw", [
    {"Omega": 1, "alpha": 0.02, "g": 0.18, "gamma": 0.097, "beta": 10, "Delta": 1, "epsilon": 0},
    FIG3,
    dict(FIG3, g=0.0018),
])
def test_closed_form_s_nonnegative(raw):
    p = build_params(raw)
    s = derived_scales(p)
    corr = closed_form_correlation(p, s)
    tau = np.linspace(0.0, 60.0, 2400)
    assert np.asarray(corr.S(tau)).min() >= 0.0


def test_quadrature_at_zero():
    assert correlation_quadrature(0.0, lambda w: w, 10.0) == (0.0, 0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
def test_quadrature_rejects_a_bad_tau_before_integrating(tau):
    def never(w):
        raise AssertionError("integrand called")

    with pytest.raises(ValueError, match="finite"):
        correlation_quadrature(tau, never, 10.0)


def test_quadrature_ohmic_cutoff_oracle():
    # exponential-cutoff Ohmic weight: R has an elementary closed form and S
    # an independent series representation; R saturates, S keeps growing
    strength, cutoff, beta = 0.05, 50.0, 10.0

    def weight(w):
        return 2.0 * strength * w * np.exp(-w / cutoff)

    values = {}
    for tau in (0.5, 2.0):
        s_val, r_val = correlation_quadrature(tau, weight, beta, omega_max=2000.0)
        assert r_val == pytest.approx(2 * strength * math.atan(cutoff * tau), abs=1e-8)
        series = strength * math.log1p((cutoff * tau) ** 2)
        for n in range(1, 200_000):
            a = n * beta + 1.0 / cutoff
            series += 2.0 * strength * math.log1p(tau**2 / a**2)
        assert s_val == pytest.approx(series, abs=1e-6)
        values[tau] = (s_val, r_val)
    assert values[2.0][0] > values[0.5][0]


def test_quadrature_vs_closed_form_single_point(fig3_params, fig3_scales):
    # deviation must stay inside the percent band plus the envelope of the
    # neglected thermal-pole terms
    tau = 2.0 * math.pi
    quad = quadrature_correlation(fig3_params, fig3_scales)
    closed = closed_form_correlation(fig3_params, fig3_scales)
    s_q, r_q = quad.pair(tau)
    bound = 0.02 * max(abs(s_q), abs(r_q)) + matsubara_envelope(fig3_params, fig3_scales)
    assert abs(float(closed.S(tau)) - s_q) <= bound
    assert abs(float(closed.R(tau)) - r_q) <= bound


@pytest.mark.parametrize("tau", [1.0, 2.0 * math.pi, 12.0])
def test_quadrature_float_integrand_matches_array_path(fig3_params, fig3_scales, tau):
    # the evaluator's per-node G runs in floats; an integrand through geff's
    # numpy path must give the same S and R bit for bit.  At tau = 12 the
    # first knot is 2*pi/tau, below the peak window, so a0 moves.
    p, s = fig3_params, fig3_scales
    if tau == 12.0:
        assert tau > 2.0 * math.pi / (s.Omega1 - 5.0 * s.gammabar)
    from effbath.spectral import geff

    def array_path(w):
        return geff(np.array([w]), p, s)[0]

    expected = correlation_quadrature(tau, array_path, p.beta, peak=s.Omega1, peak_width=s.gammabar)
    assert quadrature_correlation(p, s).pair(tau) == expected


def test_every_evaluator_returns_the_shape_of_tau(fig3_params, fig3_scales):
    from effbath.correlation import wda_correlation

    grid = np.array([[0.0, 0.5], [1.5, 3.0]])
    for fn in (quadrature_correlation(fig3_params, fig3_scales),
               closed_form_correlation(fig3_params, fig3_scales),
               wda_correlation(fig3_params, fig3_scales)):
        s_flat, r_flat = fn.pair(grid.ravel())
        s_val, r_val = fn.pair(grid)
        assert np.shape(s_val) == np.shape(r_val) == grid.shape, fn.kind
        np.testing.assert_array_equal(s_val, s_flat.reshape(grid.shape))
        np.testing.assert_array_equal(r_val, r_flat.reshape(grid.shape))
        s_val, r_val = fn.pair(np.array([]))
        assert np.shape(s_val) == np.shape(r_val) == (0,), fn.kind


def test_quadrature_integrates_each_tau_once(fig3_params, fig3_scales, monkeypatch, tmp_path):
    calls = []
    original = correlation.correlation_quadrature

    def counted(tau, *args, **kwargs):
        calls.append(tau)
        return original(tau, *args, **kwargs)

    monkeypatch.setattr(correlation, "correlation_quadrature", counted)
    niba_kernels(quadrature_correlation(fig3_params, fig3_scales), fig3_params.Delta, 0.0, 0.1, 4)
    assert len(calls) == 5
    calls.clear()
    write_correlation_csv(tmp_path / "correlation.csv", fig3_params, points=7)
    assert len(calls) == 7


def test_quadrature_nonconvergence_reports_achieved(fig3_params, fig3_scales):
    from functools import partial
    from effbath.spectral import geff

    fn = partial(geff, p=fig3_params, scales=fig3_scales)
    with pytest.raises(QuadratureNonConvergence) as err:
        correlation_quadrature(2.0, fn, fig3_params.beta, atol=1e-16,
                               peak=fig3_scales.Omega1, peak_width=fig3_scales.gammabar)
    assert err.value.achieved is not None and err.value.achieved > 1e-16


def test_wda_coefficients_fig3(fig3_params, fig3_scales):
    c = wda_coefficients(fig3_params, fig3_scales)
    s = fig3_scales
    p = fig3_params
    expected_w = 4 * p.g**2 * s.n1_pow4_first_order / (s.Omega1 * p.Omega * (2 * s.nth + 1))
    assert c.W == pytest.approx(expected_w, rel=1e-12)
    assert c.W > 0.0 and c.Y < 0.0
    assert c.A == pytest.approx(-s.gammabar * c.Y, rel=1e-14)
    assert c.B == pytest.approx(2 * c.V / p.beta, rel=1e-14)


def test_wda_split_vanishes_at_zero(fig3_params, fig3_scales):
    c = wda_coefficients(fig3_params, fig3_scales)
    parts = wda_split(0.0, c, fig3_scales)
    assert all(value == 0.0 for value in parts)


def test_wda_split_second_order_residual():
    # (S - S0 - S1) must shrink by ~4x when the damping is halved
    residuals = []
    for factor in (1.0, 0.5):
        raw = dict(FIG3)
        raw.pop("gamma_over_2piOmega")
        raw["gamma"] = 0.0154 * 2 * math.pi * factor
        p = build_params(raw)
        s = derived_scales(p)
        corr = closed_form_correlation(p, s)
        coeffs = wda_coefficients(p, s)
        tau = np.linspace(0.0, 10.0, 401)
        s0, s1, _, _ = wda_split(tau, coeffs, s)
        residuals.append(np.abs(np.asarray(corr.S(tau)) - s0 - s1).max())
    assert residuals[0] / residuals[1] >= 3.5


def test_zero_damping_routes_to_undamped_limit():
    raw = dict(FIG3)
    raw.pop("gamma_over_2piOmega")
    raw["gamma"] = 0.0
    p = build_params(raw)
    s = derived_scales(p)
    corr = closed_form_correlation(p, s)
    coeffs = wda_coefficients(p, s)
    tau = np.linspace(0.0, 20.0, 200)
    np.testing.assert_allclose(corr.S(tau), coeffs.Y * (np.cos(s.Omega1 * tau) - 1.0), rtol=1e-14)
    np.testing.assert_allclose(corr.R(tau), coeffs.W * np.sin(s.Omega1 * tau), rtol=1e-14)


def test_decoupled_correlation_vanishes(free_params):
    s = derived_scales(free_params)
    corr = closed_form_correlation(free_params, s)
    tau = np.linspace(0.0, 10.0, 50)
    np.testing.assert_array_equal(corr.S(tau), 0.0)
    np.testing.assert_array_equal(corr.R(tau), 0.0)


def test_correlation_fn_kinds(fig3_params, fig3_scales):
    assert closed_form_correlation(fig3_params, fig3_scales).kind == "closed-form"
    assert quadrature_correlation(fig3_params, fig3_scales).kind == "quadrature"
    from effbath.correlation import wda_correlation

    w = wda_correlation(fig3_params, fig3_scales)
    assert w.kind == "wda-split"
    c = wda_coefficients(fig3_params, fig3_scales)
    tau = np.linspace(0.0, 5.0, 40)
    s0, s1, r0, r1 = wda_split(tau, c, fig3_scales)
    np.testing.assert_allclose(w.S(tau), s0 + s1, rtol=1e-14)
    np.testing.assert_allclose(w.R(tau), r0 + r1, rtol=1e-14)
