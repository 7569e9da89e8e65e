"""Exact invariances of the model: changes of the inputs that must leave P(t) bit for bit as it is."""

import math
from dataclasses import replace

import pytest

from effbath.gme import simulate_population
from effbath.params import build_params
from effbath.scenarios import FIGURE_PARAMS
from effbath.wda import build_wda_spectrum, wda_population


def _traces(p):
    series = simulate_population(p)
    return series.values, wda_population(series.times, build_wda_spectrum(p))


def _units_times_2(p):
    # Omega, the couplings and the qubit in units twice as small, beta twice as large:
    # every product of a frequency and a time is unchanged, and scaling by 2 is exact
    return replace(p, Omega=2 * p.Omega, alpha=2 * p.alpha, g=2 * p.g, gamma=2 * p.gamma,
                   Delta=2 * p.Delta, epsilon=2 * p.epsilon, beta=p.beta / 2)


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
@pytest.mark.parametrize("change", [
    lambda p: replace(p, g=-p.g),  # the coupling enters P through g**2 alone
    _units_times_2,
    lambda p: replace(p, M=3.7, q0=0.4, mu=9.0),  # bare-unit inputs reach only the bare-unit columns
], ids=["g_sign", "units_times_2", "bare_units"])
def test_p_is_bit_identical_under(tag, change):
    p = build_params(FIGURE_PARAMS[tag])
    niba, wda = _traces(p)
    niba_changed, wda_changed = _traces(change(p))
    assert niba_changed.shape == niba.shape  # the same number of steps
    assert niba_changed.tobytes() == niba.tobytes()
    assert wda_changed.tobytes() == wda.tobytes()


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
