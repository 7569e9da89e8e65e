import math
import warnings

import numpy as np
import oracles
import pytest
from oracles import QuadratureNonConvergence, correlation_quadrature, quadpack_correlation, residues_mpmath
from scipy.integrate import IntegrationWarning

from effbath import correlation
from effbath.correlation import (
    closed_form_correlation,
    exp_tables,
    quadrature_correlation,
    residue_sums,
    wda_coefficients,
    wda_split,
)
from effbath.errors import AccuracyError, ZeroDampingError
from effbath.gme import niba_kernels, simulate_population, time_grid
from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS, spectral_table, write_correlation_csv

FIG3 = {"Omega": 1, "alpha": 0.02, "g": 0.18, "gamma_over_2piOmega": 0.0154,
        "beta": 10, "Delta": 1, "epsilon": 0}
FIG3_UNDAMPED = dict(FIG3, gamma=0.0)  # the direct value wins over the scaled key


def closed_form_amplitudes(p, s):
    """Amplitudes I, N, X, L, Z of the closed form, read back from its evaluator.

    S = X*tau + L*(e^{-gb*tau}*cos(Om1*tau) - 1) + Z*e^{-gb*tau}*sin(Om1*tau) and
    R = I - e^{-gb*tau}*(N*sin(Om1*tau) + I*cos(Om1*tau)).  At tau = 2000 and 4000
    the envelope underflows against 1, so R = I and S = X*tau - L; at
    Om1*tau = pi/2 the N and Z terms separate.
    """
    pair = closed_form_correlation(p, s).pair
    s_far, r_far = pair(np.array([2000.0, 4000.0]))
    coef_x = (s_far[1] - s_far[0]) / 2000.0
    coef_l = 2000.0 * coef_x - s_far[0]
    tau = 0.5 * math.pi / s.Omega1
    s_q, r_q = pair(tau)
    envelope = np.exp(-s.gammabar * tau)
    coef_n = (r_far[0] - r_q) / envelope
    coef_z = (s_q - coef_x * tau + coef_l) / envelope
    return {"I": r_far[0], "N": coef_n, "X": coef_x, "L": coef_l, "Z": coef_z}


def matsubara_envelope(p, s, nmax=50):
    """Magnitude sum of the thermal-pole residues dropped by the closed form."""
    pref = 4.0 * s.varsigma * p.Omega**2 * s.Omega1
    total = 0.0
    for n in range(1, nmax + 1):
        w = 1j * (2.0 * math.pi * n / p.beta)
        total += abs(pref / (w * (w + s.Omega1) * (s.gammabar**2 + (w - s.Omega1) ** 2)))
    return 4.0 * math.pi / p.beta * total


def test_coefficients_identities(fig3_params, fig3_scales):
    c = closed_form_amplitudes(fig3_params, fig3_scales)
    assert c["X"] == pytest.approx(2.0 * c["I"] / fig3_params.beta, rel=1e-15)
    expected_i = 2 * math.pi * fig3_scales.varsigma / (1.06**2 + fig3_scales.gammabar**2)
    assert c["I"] == pytest.approx(expected_i, rel=1e-14)
    assert c["I"] > 0.0
    assert c["N"] == pytest.approx(
        -c["I"] * (fig3_scales.Omega1 / fig3_scales.gammabar - fig3_scales.gammabar / fig3_scales.Omega1),
        rel=1e-14,
    )


@pytest.mark.filterwarnings("ignore::effbath.errors.RegimeWarning")
def test_coefficients_zero_temperature_limits():
    p = build_params(dict(FIG3, beta=400))
    s = derived_scales(p)
    c = closed_form_amplitudes(p, s)
    assert c["L"] == pytest.approx(-c["I"] * s.Omega1 / s.gammabar, rel=1e-6)
    assert c["Z"] == pytest.approx(-c["I"], rel=1e-6)


def test_quadrature_and_spectral_table_reject_zero_damping():
    # undamped, each density is a line: a table does not resolve it, and the poles at
    # Omega1 +- i*gammabar meet on the real axis, where the residue sums do not hold
    p = build_params(FIG3_UNDAMPED)
    with pytest.raises(ZeroDampingError, match="gamma = 0"):
        quadrature_correlation(p, derived_scales(p))
    with pytest.raises(ZeroDampingError, match="gamma = 0"):
        spectral_table(p)


def test_closed_form_boundary_values(fig3_params, fig3_scales):
    pair = closed_form_correlation(fig3_params, fig3_scales).pair
    s0, r0 = pair(0.0)
    assert s0 == 0.0 and r0 == 0.0
    _, r_late = pair(200.0)
    assert r_late == pytest.approx(closed_form_amplitudes(fig3_params, fig3_scales)["I"], abs=1e-5)


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


def _grid_calls(monkeypatch) -> list:
    """Record each ``exp_tables`` call of the closed form's grid path."""
    calls = []

    def counted(exponent, count):
        calls.append(count)
        return exp_tables(exponent, count)

    monkeypatch.setattr(correlation, "exp_tables", counted)
    return calls


def _per_sample(pair, t: np.ndarray):
    """The per-sample path: a 2-D ``t`` never takes the grid path."""
    s_val, r_val = pair(t[None, :])
    return s_val[0], r_val[0]


@pytest.mark.parametrize("name", ["fig3", "fig5", "biased"])
def test_the_closed_form_on_a_grid_agrees_with_the_per_sample_path(monkeypatch, name):
    # e^{z*tau}, z = -gb + i*Om1, from the exp tables or from exp, cos and sin per sample:
    # each path rounds the phase once or twice, and exp, cos, sin or the tables' products a
    # few times, at most 16 eps * (1 + |z|*tau) * e^{-gb*tau}; S and R take it times the
    # amplitudes (L, Z and I, N), and their sums round within 16 eps of the terms' sizes
    raw = dict(FIGURE_PARAMS["fig3"], epsilon=0.1) if name == "biased" else FIGURE_PARAMS[name]
    p = build_params(raw)
    s = derived_scales(p)
    h, n_steps = time_grid(p, s)
    t = h * np.arange(156_560 if name == "biased" else n_steps + 1)  # the benchmark's longest grid
    amp = {key: abs(value) for key, value in closed_form_amplitudes(p, s).items()}
    pair = closed_form_correlation(p, s).pair
    calls = _grid_calls(monkeypatch)
    s_grid, r_grid = pair(t)
    assert calls == [t.size]
    s_ref, r_ref = _per_sample(pair, t)
    eps16 = 16.0 * np.finfo(float).eps
    wave = eps16 * np.max((1.0 + abs(complex(s.gammabar, s.Omega1)) * t) * np.exp(-s.gammabar * t))
    bound_s = wave * (amp["L"] + amp["Z"]) + eps16 * (amp["X"] * t[-1] + 2.0 * amp["L"] + amp["Z"])
    bound_r = wave * (amp["I"] + amp["N"]) + eps16 * (2.0 * amp["I"] + amp["N"])
    assert np.abs(s_grid - s_ref).max() <= bound_s
    assert np.abs(r_grid - r_ref).max() <= bound_r
    assert s_grid[0] == r_grid[0] == 0.0


def test_only_a_grid_from_zero_takes_the_closed_form_tables(monkeypatch, fig3_params, fig3_scales):
    pair = closed_form_correlation(fig3_params, fig3_scales).pair
    h, n_steps = time_grid(fig3_params, fig3_scales)
    times = h * np.arange(n_steps + 1)
    nudged = times.copy()
    nudged[5000] = np.nextafter(nudged[5000], np.inf)
    spaced = np.linspace(0.0, 40.0, 526)
    assert spaced[-1] != spaced[1] * 525  # its end is the given 40, not 525 steps
    calls = _grid_calls(monkeypatch)
    for t in (spaced, nudged, times[100:], times[:1]):
        for value, ref in zip(pair(t), _per_sample(pair, t)):
            assert value.tobytes() == ref.tobytes()
    for value, ref in zip(pair(0.75), _per_sample(pair, np.array([0.75]))):
        assert value.shape == () and value.tobytes() == ref.tobytes()
    assert calls == []


def test_quadrature_at_zero(fig3_params, fig3_scales):
    # S(0) = R(0) = 0 exactly: alone, inside a grid, and with no bound; the oracle agrees
    s_val, r_val, bound = residue_sums(fig3_params, fig3_scales)(np.array([0.0, 1.0, 0.0]))
    assert s_val[0] == r_val[0] == bound[0] == s_val[2] == r_val[2] == 0.0 < s_val[1]
    s_val, r_val = quadrature_correlation(fig3_params, fig3_scales).pair(0.0)
    assert s_val.shape == r_val.shape == () and s_val == r_val == 0.0
    assert correlation_quadrature(0.0, lambda w: w, 10.0) == (0.0, 0.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1.0])
def test_quadrature_rejects_a_bad_tau_before_integrating(monkeypatch, fig3_params, fig3_scales, tau):
    def never(*args):
        raise AssertionError("a sum ran")

    sums = residue_sums(fig3_params, fig3_scales)
    for name in ("exp_e1", "exp_e1_real", "exp_ei"):
        monkeypatch.setattr(correlation, name, never)
    with pytest.raises(ValueError, match="finite"):
        sums(np.array([1.0, tau]))
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


@pytest.mark.parametrize("tau", [1.0, 2.0 * math.pi, 3.0, 12.0, 20.0])
def test_quadrature_float_integrand_matches_array_path(fig3_params, fig3_scales, tau):
    # the evaluator's per-node G runs in floats; an integrand through G's
    # numpy path must give the same S and R bit for bit, over both knot
    # layouts: past 2*pi/(Omega1 - 5*gammabar), at tau = 12 and 20, the first
    # knot is 2*pi/tau, below the peak window, so a0 moves
    p, s = fig3_params, fig3_scales
    assert (tau > 2.0 * math.pi / (s.Omega1 - 5.0 * s.gammabar)) == (tau >= 12.0)
    from effbath.spectral import geff_function

    def array_path(w):
        return geff_function(p, s)(np.array([w]))[0]

    expected = correlation_quadrature(tau, array_path, p.beta, peak=s.Omega1, peak_width=s.gammabar)
    assert quadpack_correlation(p, s).pair(tau) == expected


def test_quadpack_refuses_a_g_it_cannot_integrate():
    # QUADPACK runs out of subdivisions on w*sin(1e4*w): its first warning fails a suite
    # that turns warnings into errors, and without that filter the summed estimate passes atol
    def rough(w):
        return w * math.sin(1e4 * w)

    with pytest.raises(IntegrationWarning, match=r"maximum number of subdivisions \(400\)"):
        correlation_quadrature(1.0, rough, 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        with pytest.raises(QuadratureNonConvergence, match="at tau = 1 reached abs error") as err:
            correlation_quadrature(1.0, rough, 10.0)
    assert err.value.achieved > oracles.QUADRATURE_ATOL


def test_every_evaluator_returns_the_shape_of_tau(fig3_params, fig3_scales):
    undamped = build_params(FIG3_UNDAMPED)
    grid = np.array([[0.0, 0.5], [1.5, 3.0]])
    for fn in (quadrature_correlation(fig3_params, fig3_scales),
               closed_form_correlation(fig3_params, fig3_scales),
               closed_form_correlation(undamped, derived_scales(undamped))):
        s_flat, r_flat = fn.pair(grid.ravel())
        s_val, r_val = fn.pair(grid)
        assert np.shape(s_val) == np.shape(r_val) == grid.shape, fn.kind
        np.testing.assert_array_equal(s_val, s_flat.reshape(grid.shape))
        np.testing.assert_array_equal(r_val, r_flat.reshape(grid.shape))
        s_val, r_val = fn.pair(np.array([]))
        assert np.shape(s_val) == np.shape(r_val) == (0,), fn.kind


def test_quadrature_integrates_each_tau_once(fig3_params, fig3_scales, monkeypatch, tmp_path):
    # each tau > 0 takes its three exponential integrals at f's poles once, in one call
    # holding a stack of the three arguments, a row of n taus each
    calls = []
    original = correlation.exp_e1

    def counted(z):
        calls.append(np.shape(z))
        return original(z)

    monkeypatch.setattr(correlation, "exp_e1", counted)
    niba_kernels(quadrature_correlation(fig3_params, fig3_scales), fig3_params.Delta, 0.0, 0.1, 4)
    assert calls == [(3, 4)]
    calls.clear()
    write_correlation_csv(tmp_path / "correlation.csv", fig3_params, points=7)
    assert calls == [(3, 6)]
    calls.clear()
    write_correlation_csv(tmp_path / "correlation.csv", fig3_params)
    assert calls == [(3, 120)]
    # the march on the oracle benchmark's grid, 31 tau, evaluates each of them
    calls.clear()
    simulate_population(fig3_params, step=0.1, horizon=3.0, correlation="quadrature")
    assert calls == [(3, 30)]


def _cut_tail(p, s, omega_max=1000.0):
    """Bound on the part of S or R that QUADPACK's cut at omega_max drops.

    Past the cut f = G/w^2 <= 2*A*Om1/(w^2*(w - Om1)^2) (A = 2*varsigma*Omega^2),
    |1 - cos| <= 2 and coth <= coth(beta*omega_max/2), so each drop is at most
    2*coth*2*A*Om1/(3*(omega_max - Om1)^3).
    """
    coth = 1.0 / math.tanh(0.5 * p.beta * omega_max)
    return 2.0 * coth * 4.0 * s.varsigma * p.Omega**2 * s.Omega1 / (3.0 * (omega_max - s.Omega1) ** 3)


_QUADPACK_SETS = {"fig3": FIGURE_PARAMS["fig3"], "fig5": FIGURE_PARAMS["fig5"],
                  "beta1": dict(FIGURE_PARAMS["fig3"], beta=1.0)}


# QUADPACK at atol 1e-11 (2e-11 on criterion 04's grid, where it reaches 1.2e-11 at
# tau = 3.5 and no less), its cut at w = 1000 (1.2e-12 of S at fig3, 2.5e-12 as bounded)
# and the sums' own bound fit in 1e-10; they meet within 2e-12.  Criterion 04's grid,
# 150 points of each set's march grid to tau = 100, and three taus below 40/(nu_1*2^16),
# where the explicit Matsubara terms stop at 2^16 and the rest is bounded
@pytest.mark.parametrize("tag", ["fig3", "fig5", "beta1", "criterion04"])
def test_exact_sums_match_a_tight_quadrature(tag):
    p = build_params(_QUADPACK_SETS.get(tag, FIGURE_PARAMS["fig3"]))
    s = derived_scales(p)
    if tag == "criterion04":
        tau = np.linspace(0.0, 30.0, 121)
    else:
        h, n_steps = time_grid(p, s)
        t = h * np.arange(n_steps + 1)
        assert t[-1] <= 100.0 + h
        capped = 40.0 * p.beta / (2.0 * math.pi * 2**16) * np.array([1e-5, 1e-2, 0.5])
        tau = np.concatenate([capped, t[np.random.default_rng(21).choice(t.size, 150, replace=False)]])
    s_val, r_val, bound = residue_sums(p, s)(tau)
    atol = 2e-11 if tag == "criterion04" else 1e-11
    s_ref, r_ref = quadpack_correlation(p, s, atol=atol).pair(tau)
    allowed = atol + _cut_tail(p, s) + bound
    assert allowed.max() <= 1e-10
    assert np.all(np.abs(s_val - s_ref) <= allowed)
    assert np.all(np.abs(r_val - r_ref) <= allowed)


# the residues at 30 digits; gamma = 1e-4 and 1e-6 are the damping at which QUADPACK failed
_MPMATH_SETS = {
    "fig3": FIGURE_PARAMS["fig3"],
    "fig5": FIGURE_PARAMS["fig5"],
    "beta1": dict(FIGURE_PARAMS["fig3"], beta=1.0),
    "gamma1e-4": dict(FIGURE_PARAMS["fig3"], gamma=1e-4),
    "gamma1e-6": dict(FIGURE_PARAMS["fig3"], gamma=1e-6),
}


@pytest.mark.parametrize("tag", sorted(_MPMATH_SETS))
def test_exact_sums_lie_within_their_bound_of_30_digits(tag):
    p = build_params(_MPMATH_SETS[tag])
    s = derived_scales(p)
    tau = np.array([0.05, 2.0, 30.0])
    s_val, r_val, bound = residue_sums(p, s)(tau)
    for i, (s_ref, r_ref) in enumerate(residues_mpmath(p, s, tau.tolist())):
        assert abs(s_val[i] - s_ref) <= bound[i], (tau[i], float(s_val[i] - s_ref), bound[i])
        assert abs(r_val[i] - r_ref) <= bound[i], (tau[i], float(r_val[i] - r_ref), bound[i])


def test_quadrature_nonconvergence_reports_achieved(fig3_params, fig3_scales):
    # an atol below the sums' own bound raises, carrying the bound, and never truncates to meet it
    _, _, bound = residue_sums(fig3_params, fig3_scales)(np.array([2.0]))
    with pytest.raises(AccuracyError, match="at tau = 2 carry an error bound") as err:
        quadrature_correlation(fig3_params, fig3_scales, atol=1e-16).pair(2.0)
    assert err.value.achieved == bound[0] > 1e-16
    assert quadrature_correlation(fig3_params, fig3_scales, atol=bound[0]).pair(2.0)[0] > 0.0
    from effbath.spectral import geff_function

    fn = geff_function(fig3_params, fig3_scales)
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
    p = build_params(FIG3_UNDAMPED)
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
    assert quadrature_correlation(fig3_params, fig3_scales).kind == "exact"
    p = build_params(FIG3_UNDAMPED)
    s = derived_scales(p)
    w = closed_form_correlation(p, s)
    assert w.kind == "wda-split"
    tau = np.linspace(0.0, 5.0, 40)
    s0, s1, r0, r1 = wda_split(tau, wda_coefficients(p, s), s)
    np.testing.assert_allclose(w.S(tau), s0 + s1, rtol=1e-14)
    np.testing.assert_allclose(w.R(tau), r0 + r1, rtol=1e-14)
