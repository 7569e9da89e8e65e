"""Invariances of the model: changes of the inputs that must leave P(t) bit for bit as it is,
and the limits P(t) must approach continuously."""

import math
from dataclasses import replace

import numpy as np
import pytest

from effbath.correlation import residue_sums, wda_coefficients
from effbath.gme import simulate_population
from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS
from effbath.wda import build_wda_spectrum, effective_tunneling, first_order_pole, wda_population

_INPUTS = ("Omega", "alpha", "g", "gamma", "Delta", "beta")


def _traces(p):
    series = simulate_population(p)
    return series.values, wda_population(series.times, build_wda_spectrum(p))


def _units(p, c):
    # Omega, the couplings and the qubit in units c times as small, beta c times as large:
    # every product of a frequency and a time is unchanged
    return replace(p, Omega=c * p.Omega, alpha=c * p.alpha, g=c * p.g, gamma=c * p.gamma,
                   Delta=c * p.Delta, epsilon=c * p.epsilon, beta=p.beta / c)


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
@pytest.mark.parametrize("change", [
    lambda p: replace(p, g=-p.g),  # the coupling enters P through g**2 alone
    lambda p: _units(p, 2),  # scaling by 2 is exact
    lambda p: replace(p, M=3.7, q0=0.4, mu=9.0),  # bare-unit inputs reach only the bare-unit columns
], ids=["g_sign", "units_times_2", "bare_units"])
def test_p_is_bit_identical_under(tag, change):
    p = build_params(FIGURE_PARAMS[tag])
    niba, wda = _traces(p)
    niba_changed, wda_changed = _traces(change(p))
    assert niba_changed.shape == niba.shape  # the same number of steps
    assert niba_changed.tobytes() == niba.tobytes()
    assert wda_changed.tobytes() == wda.tobytes()


def _condition_numbers(p, series, wda):
    """(NIBA, WDA) sums of max_t |dP/d ln x| on the run's grid, by finite differences.

    x runs over the inputs, and for the WDA also over its two pole
    frequencies, which round on their own: moving one moves its kappa and
    sine amplitude, which near resonance carry Omega1/|omega - Omega1|.
    """
    h, n_steps = series.h, series.values.size - 1
    cond_niba = cond_wda = 0.0
    for name in _INPUTS:
        moved = replace(p, **{name: getattr(p, name) * (1.0 + 1e-7)})
        cond_niba += np.abs(simulate_population(moved, step=h, horizon=n_steps * h).values - series.values).max() / 1e-7
        cond_wda += np.abs(wda_population(series.times, build_wda_spectrum(moved)) - wda).max() / 1e-7
    scales = derived_scales(p)
    coeffs = wda_coefficients(p, scales)
    tun = effective_tunneling(coeffs, scales, p.Delta, p.beta)
    spectrum = build_wda_spectrum(p)
    for pole in ("plus", "minus"):
        omega = getattr(spectrum, f"omega_{pole}") * (1.0 + 1e-9)
        kappa, sine = first_order_pole(tun, coeffs, scales.Omega1, omega, getattr(spectrum, f"weight_{pole}"), p.gamma)
        moved = replace(spectrum, **{f"omega_{pole}": omega, f"kappa_{pole}": kappa, f"sine_{pole}": sine})
        cond_wda += np.abs(wda_population(series.times, moved) - wda).max() / 1e-9
    return cond_niba, cond_wda


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
def test_p_moves_by_rounding_alone_in_other_units(tag):
    # at c = 3 and 0.7 each scaled input, the grid step and each quantity computed from
    # them round differently: up to 16 eps relative in each, taken through P's condition
    # numbers.  fig5 lies omega_minus - Omega1 = 4.6e-5 from resonance, where the WDA's
    # pole frequencies carry most of it (about 7e4 against 1e2 from the inputs)
    p = build_params(FIGURE_PARAMS[tag])
    series = simulate_population(p)
    wda = wda_population(series.times, build_wda_spectrum(p))
    cond_niba, cond_wda = _condition_numbers(p, series, wda)
    eps16 = 16.0 * np.finfo(float).eps
    for c in (3.0, 0.7):
        niba_changed, wda_changed = _traces(_units(p, c))
        assert niba_changed.shape == series.values.shape  # the same number of steps
        assert np.abs(niba_changed - series.values).max() <= eps16 * cond_niba
        assert np.abs(wda_changed - wda).max() <= eps16 * cond_wda


def _sums_condition(p, tau):
    """Sum of max over tau of |d(S, R)/d ln y| for y in Omega1, gammabar, varsigma, beta and tau.

    The exact sums read only these, and each rounds on its own in other
    units; by finite differences, each y moved by 1e-7 of itself.
    """
    scales = derived_scales(p)
    base = np.array(residue_sums(p, scales)(tau)[:2])
    moves = [(p, replace(scales, **{name: getattr(scales, name) * (1.0 + 1e-7)}), tau)
             for name in ("Omega1", "gammabar", "varsigma")]
    moves += [(replace(p, beta=p.beta * (1.0 + 1e-7)), scales, tau), (p, scales, tau * (1.0 + 1e-7))]
    return sum(np.abs(np.array(residue_sums(q, s)(t)[:2]) - base).max() / 1e-7 for q, s, t in moves)


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
def test_the_exact_correlation_moves_by_rounding_alone_in_other_units(tag):
    # frequencies times c, tau and beta over c: S and R are dimensionless, so they move only
    # as the inputs and the quantities computed from them round, up to 16 eps relative in
    # each, taken through their condition number, and by each evaluation's own stated bound,
    # 32 ulps of its terms' magnitudes, where the residues at Omega1 +- i*gammabar carry 1/gammabar
    p = build_params(FIGURE_PARAMS[tag])
    tau = np.concatenate([[0.01, 0.3], np.linspace(1.0, 100.0, 60)])
    s_val, r_val, bound = residue_sums(p, derived_scales(p))(tau)
    allowed = 16.0 * np.finfo(float).eps * _sums_condition(p, tau)
    for c in (3.0, 0.7):
        q = _units(p, c)
        s_new, r_new, bound_new = residue_sums(q, derived_scales(q))(tau / c)
        assert np.all(np.abs(s_new - s_val) <= allowed + bound + bound_new)
        assert np.all(np.abs(r_new - r_val) <= allowed + bound + bound_new)


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
def test_p_stays_one_without_tunneling(tag):
    # Delta = 0: the qubit cannot leave its well, the kernels vanish, and the
    # march and the weak-damping solution (its static pole at 0 with weight 1) give P = 1 exactly
    p = replace(build_params(FIGURE_PARAMS[tag]), Delta=0.0)
    niba, wda = _traces(p)
    assert (niba == 1.0).all() and (wda == 1.0).all()
    spectrum = build_wda_spectrum(p)
    assert (spectrum.weight_plus, spectrum.kappa_plus, spectrum.sine_plus) == (1.0, 0.0, 0.0)
    assert math.copysign(1.0, spectrum.omega_plus) == 1.0  # 0, not -0, in the summary


def test_vanishing_damping_is_continuous_and_first_order():
    # P(gamma) = P(0) + gamma*c(t) + O(gamma**2), so r = max|P(gamma) - P(0)|/gamma is
    # r0 + O(gamma), and its successive differences at gamma, gamma/10, gamma/100 shrink
    # tenfold (a Richardson check on the order); at 1e-6 rounding moves r by about 1e-10
    fig3 = {key: value for key, value in FIGURE_PARAMS["fig3"].items() if key != "gamma_over_2piOmega"}

    def traces(gamma):
        p = build_params(dict(fig3, gamma=gamma))
        series = simulate_population(p, horizon=30.0)
        return series.values, wda_population(series.times, build_wda_spectrum(p))

    gammas = (1e-3, 1e-4, 1e-5, 1e-6)
    undamped = traces(0.0)
    ratios = np.array([[np.abs(p - p0).max() / gamma for p, p0 in zip(traces(gamma), undamped)]
                       for gamma in gammas])
    steps = np.diff(ratios, axis=0)  # one column per solution: NIBA, then the WDA
    assert (np.abs(steps[:-1] / steps[1:] - 10.0) <= 1.0).all(), ratios
