import collections
import gc
import math
import weakref

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning

from effbath import correlation
from effbath.correlation import (
    QUADRATURE_ATOL,
    closed_form_correlation,
    correlation_quadrature,
    interpolated_correlation,
    quadrature_correlation,
    wda_coefficients,
    wda_split,
)
from effbath.errors import QuadratureNonConvergence, ZeroDampingError
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
    # undamped, each density is a line that neither a table nor a quadrature resolves
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
    # the evaluator's per-node G runs in floats; an integrand through G's
    # numpy path must give the same S and R bit for bit.  At tau = 12 the
    # first knot is 2*pi/tau, below the peak window, so a0 moves.
    p, s = fig3_params, fig3_scales
    if tau == 12.0:
        assert tau > 2.0 * math.pi / (s.Omega1 - 5.0 * s.gammabar)
    from effbath.spectral import geff_function

    def array_path(w):
        return geff_function(p, s)(np.array([w]))[0]

    expected = correlation_quadrature(tau, array_path, p.beta, peak=s.Omega1, peak_width=s.gammabar)
    assert quadrature_correlation(p, s).pair(tau) == expected


def test_one_evaluator_over_a_grid_matches_the_array_path(fig3_params, fig3_scales):
    # one evaluator reuses its tau-independent pieces across the grid, over both
    # knot layouts (tau = 12 and 20 lie past 2*pi/(Omega1 - 5*gammabar)); S and R
    # must equal, bit for bit, a fresh integration of each tau through G's numpy path
    p, s = fig3_params, fig3_scales
    grid = np.array([1.0, 2.0 * math.pi, 12.0, 20.0, 3.0])
    assert (grid > 2.0 * math.pi / (s.Omega1 - 5.0 * s.gammabar)).sum() == 2
    from effbath.spectral import geff_function

    def array_path(w):
        return geff_function(p, s)(np.array([w]))[0]

    s_val, r_val = quadrature_correlation(p, s).pair(grid)
    for i, tau in enumerate(grid.tolist()):
        expected = correlation_quadrature(tau, array_path, p.beta, peak=s.Omega1, peak_width=s.gammabar)
        assert (s_val[i], r_val[i]) == expected, tau


def test_a_second_tau_reuses_the_smooth_pieces(fig3_params, fig3_scales, monkeypatch):
    # tau = 1 and 2 share their knots, so the second starts no unweighted
    # quadrature above the first knot; a fresh evaluator gives the same bits
    import scipy.integrate

    calls = []
    real = scipy.integrate.quad

    def counted(fn, a, b, **kwargs):
        calls.append((a, "weight" in kwargs))
        return real(fn, a, b, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counted)
    warm = quadrature_correlation(fig3_params, fig3_scales)
    warm.pair(1.0)
    assert sum(a > 0.0 and not weighted for a, weighted in calls) == 2
    calls.clear()
    reused = warm.pair(2.0)
    assert sum(a > 0.0 and not weighted for a, weighted in calls) == 0
    assert len(calls) == 6  # [0, a0] for S and R, two cos- and two sin-weighted pieces
    assert quadrature_correlation(fig3_params, fig3_scales).pair(2.0) == reused
    # past 2*pi/(Omega1 - 5*gammabar) a first piece from 2*pi/tau joins the
    # knots (and a smaller epsabs, a new layout); it serves that tau alone, so a
    # second tau = 20 integrates it again and reuses the other two
    starts = []
    for _ in range(2):
        calls.clear()
        warm.pair(20.0)
        starts.append([a for a, weighted in calls if a > 0.0 and not weighted])
    assert len(starts[0]) == 3 and starts[1] == [2.0 * math.pi / 20.0] == starts[0][:1]


def test_quadpack_warnings_join_the_error_or_are_issued_again():
    # a G that QUADPACK finds slowly convergent: past atol its message is in the
    # typed error; within atol its warning is issued again, once the integrals are done
    def rough(w):
        return w * math.sin(1e4 * w)

    with pytest.raises(QuadratureNonConvergence, match="QUADPACK: The integral is probably divergent"):
        correlation_quadrature(1.0, rough, 10.0)
    with pytest.warns(IntegrationWarning, match="probably divergent"):
        correlation_quadrature(1.0, rough, 10.0, atol=10.0)


def test_a_smooth_piece_that_warned_is_integrated_again():
    # of the two smooth pieces past the knots, QUADPACK warns on one: the memo
    # keeps only the other, and a second tau warns again with the same bits
    def steep(w):
        return w**3 * math.sin(1e5 * w)

    steep.smooth_pieces = {}
    results = []
    for _ in range(2):
        with pytest.warns(IntegrationWarning, match="probably divergent"):
            results.append(correlation_quadrature(1.0, steep, 10.0, atol=1e6, peak=5.0, peak_width=0.1))
    assert results[0] == results[1] and len(steep.smooth_pieces) == 1


def counting_geff(monkeypatch):
    """Give each new evaluator a G that records its nodes; returns (nodes, each G made)."""
    nodes, made = [], []
    real = correlation.geff_function

    def make(p, s):
        g = real(p, s)

        def counted(w):
            nodes.append(w)
            return g(w)

        made.append(counted)
        return counted

    monkeypatch.setattr(correlation, "geff_function", make)
    return nodes, made


def test_one_evaluator_calls_g_once_per_node(fig3_params, fig3_scales, monkeypatch):
    # the oracle's 31-tau grid.  Below 2*pi/(Omega1 - 5*gammabar) every piece is
    # tau-independent, and G runs once per distinct node.  Past it, a node
    # repeats only where the pieces of two tau alone meet: at some 2*pi/tau, or
    # at Omega1 - 5*gammabar as two Clenshaw-Curtis rules round it
    nodes, _ = counting_geff(monkeypatch)
    p, s = fig3_params, fig3_scales
    edge = s.Omega1 - 5.0 * s.gammabar
    grid = np.linspace(0.0, 30.0, 31)
    shared_only = grid < 2.0 * math.pi / edge
    fn = quadrature_correlation(p, s)
    fn.pair(grid[shared_only])
    assert len(nodes) == len(set(nodes)) > 0
    fn.pair(grid[~shared_only])
    repeated = [w for w, n in collections.Counter(nodes).items() if n > 1]
    assert len(nodes) - len(set(nodes)) < 0.01 * len(nodes)
    assert all(w <= edge * (1.0 + 1e-15) for w in repeated)


def test_deleting_an_evaluator_frees_its_g_without_the_cyclic_gc(fig3_params, fig3_scales, monkeypatch):
    # the node tables G carries hold G weakly, so no reference cycle waits for the collector
    _, made = counting_geff(monkeypatch)
    gc.disable()
    try:
        fn = quadrature_correlation(fig3_params, fig3_scales)
        fn.pair(1.0)
        geff = made.pop()
        f, f_coth = geff.node_values[fig3_params.beta]
        assert len(f) > 0 and len(f_coth) > 0
        alive = weakref.ref(geff)
        del geff, f, f_coth, fn
        assert alive() is None
    finally:
        gc.enable()


def test_the_shared_tables_keep_no_node_of_a_tau_alone(fig3_params, fig3_scales, monkeypatch):
    # every tau past 2*pi/(Omega1 - 5*gammabar) starts its pieces at 2*pi/tau,
    # below Omega1 - 5*gammabar, in tables of its own; the shared ones keep only the rest
    _, made = counting_geff(monkeypatch)
    p, s = fig3_params, fig3_scales
    edge = s.Omega1 - 5.0 * s.gammabar
    grid = np.linspace(12.0, 30.0, 10)
    assert grid.min() > 2.0 * math.pi / edge
    quadrature_correlation(p, s).pair(grid)
    f, f_coth = made[0].node_values[p.beta]
    assert len(f) > 0 and len(f_coth) > 0
    assert min(f) >= edge and min(f_coth) >= edge


def test_every_evaluator_returns_the_shape_of_tau(fig3_params, fig3_scales):
    undamped = build_params(FIG3_UNDAMPED)
    grid = np.array([[0.0, 0.5], [1.5, 3.0]])
    for fn in (quadrature_correlation(fig3_params, fig3_scales),
               interpolated_correlation(fig3_params, fig3_scales),
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
    # the correlation CSV never interpolates: its default 121 tau take one integral each
    calls.clear()
    write_correlation_csv(tmp_path / "correlation.csv", fig3_params)
    assert len(calls) == 121
    # the march on the oracle benchmark's grid, 31 tau, stops at 17 Chebyshev nodes
    calls.clear()
    simulate_population(fig3_params, step=0.1, horizon=3.0, correlation="quadrature")
    assert len(calls) == 17


# The tail rule accepts a fit once the last three Chebyshev coefficients of
# each difference are at most QUADRATURE_ATOL.  Over 9 to 257 nodes at fig3, fig5 and the
# oracle grid the true error stayed within 9 times that tail (7.6 at fig3 with
# 33 nodes, 8.8 with 257) wherever the tail lay above the quadrature's own
# error; that error, 2.0e-8 at fig5 also for the per-tau path at atol 1e-8,
# lies inside the same band
KERNEL_PATH_BAND = 10.0 * QUADRATURE_ATOL


@pytest.mark.parametrize("tag, step, horizon", [("fig3", None, None), ("fig5", None, None), ("fig3", 0.1, 3.0)])
def test_interpolated_kernels_match_a_tight_quadrature(tag, step, horizon):
    p = build_params(FIGURE_PARAMS[tag])
    s = derived_scales(p)
    h, n_steps = time_grid(p, s, step, horizon)
    t = h * np.arange(n_steps + 1)
    s_val, r_val = interpolated_correlation(p, s).pair(t)
    rows = np.random.default_rng(21).choice(t.size, min(150, t.size), replace=False)
    s_ref, r_ref = quadrature_correlation(p, s, atol=1e-11).pair(t[rows])
    assert np.abs(s_val[rows] - s_ref).max() <= KERNEL_PATH_BAND
    assert np.abs(r_val[rows] - r_ref).max() <= KERNEL_PATH_BAND


def test_interpolated_correlation_integrates_each_tau_of_a_short_or_bad_grid(fig3_params, fig3_scales):
    # 9 tau or fewer, a negative tau and a grid of zeros take the per-tau path
    fn = interpolated_correlation(fig3_params, fig3_scales)
    quad = quadrature_correlation(fig3_params, fig3_scales)
    grid = np.linspace(0.0, 3.0, 9)
    np.testing.assert_array_equal(fn.pair(grid), quad.pair(grid))
    np.testing.assert_array_equal(fn.pair(np.zeros(12)), np.zeros((2, 12)))
    with pytest.raises(ValueError, match="tau must be finite"):
        fn.pair(np.linspace(-1.0, 3.0, 12))


def test_interpolated_correlation_warns_when_it_gives_up_the_fit(fig3_params, fig3_scales, monkeypatch):
    # 12 tau over fig3's horizon: 9 nodes leave a tail far above
    # QUADRATURE_ATOL and 17 would not be below 12, so after the rejected
    # fit each tau is integrated as the per-tau path does
    calls = []
    original = correlation.correlation_quadrature

    def counted(tau, *args, **kwargs):
        calls.append(tau)
        return original(tau, *args, **kwargs)

    monkeypatch.setattr(correlation, "correlation_quadrature", counted)
    grid = np.linspace(0.0, 100.0, 12)
    with pytest.warns(RuntimeWarning, match="no Chebyshev fit of up to 9 nodes met the tail rule"):
        values = interpolated_correlation(fig3_params, fig3_scales).pair(grid)
    assert len(calls) == 9 + 12
    np.testing.assert_array_equal(values, quadrature_correlation(fig3_params, fig3_scales).pair(grid))


def test_quadrature_nonconvergence_reports_achieved(fig3_params, fig3_scales):
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
    assert quadrature_correlation(fig3_params, fig3_scales).kind == "quadrature"
    assert interpolated_correlation(fig3_params, fig3_scales).kind == "quadrature-chebyshev"
    p = build_params(FIG3_UNDAMPED)
    s = derived_scales(p)
    w = closed_form_correlation(p, s)
    assert w.kind == "wda-split"
    tau = np.linspace(0.0, 5.0, 40)
    s0, s1, r0, r1 = wda_split(tau, wda_coefficients(p, s), s)
    np.testing.assert_allclose(w.S(tau), s0 + s1, rtol=1e-14)
    np.testing.assert_allclose(w.R(tau), r0 + r1, rtol=1e-14)
