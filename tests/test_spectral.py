import math

import numpy as np
import pytest

from effbath.params import build_params, convert_couplings, derived_scales
from effbath.spectral import (
    density_peak,
    geff_function,
    linear_effective_density,
    nonlinear_effective_density,
    ohmic_density,
    susceptibility_imag,
)


def test_ohmic_density_values():
    assert ohmic_density(1.0, 0.0968) == pytest.approx(0.0968)
    assert ohmic_density(0.0, 3.7) == 0.0
    assert ohmic_density(-1.0, 1.0) == -1.0
    # J/omega is the damping eta at every frequency
    w = np.linspace(0.1, 3.0, 50)
    np.testing.assert_allclose(ohmic_density(w, 0.3) / w, 0.3, rtol=1e-14)


def test_linear_effective_density_shape():
    gbar, gamma, Omega, M = 0.4, 0.097, 1.0, 1.0
    # Ohmic low-frequency slope gbar^2*gamma/(M*Omega^4)
    w = 1e-6
    slope = linear_effective_density(w, gbar, gamma, Omega, M) / w
    assert slope == pytest.approx(gbar**2 * gamma / (M * Omega**4), rel=1e-9)
    # peak value at the bare resonance
    assert linear_effective_density(Omega, gbar, gamma, Omega, M) == pytest.approx(
        gbar**2 / (M * gamma * Omega), rel=1e-12
    )
    assert linear_effective_density(0.0, gbar, gamma, Omega, M) == 0.0


def test_susceptibility_imag_at_resonance(fig3_params, fig3_scales):
    # at the shifted frequency the detuning term vanishes and the value
    # collapses to -1/(M*gamma*Omega1*(2*nth+1)^2)
    p, s = fig3_params, fig3_scales
    expected = -1.0 / (p.M * p.gamma * s.Omega1 * (2 * s.nth + 1) ** 2)
    assert susceptibility_imag(s.Omega1, p, s) == pytest.approx(expected, rel=1e-12)


def test_susceptibility_imag_low_frequency_linear(fig3_params, fig3_scales):
    p, s = fig3_params, fig3_scales
    ratios = [susceptibility_imag(w, p, s) / w for w in (1e-4, 1e-5, 1e-6)]
    assert ratios[0] == pytest.approx(ratios[2], rel=1e-3)
    assert ratios[2] < 0.0


def test_susceptibility_imag_odd(fig3_params, fig3_scales):
    w = np.linspace(0.01, 3.0, 400)
    chi = susceptibility_imag(w, fig3_params, fig3_scales)
    chi_neg = susceptibility_imag(-w, fig3_params, fig3_scales)
    np.testing.assert_array_equal(chi_neg, -chi)
    assert np.all(chi <= 0.0)


@pytest.mark.parametrize("figkey", ["fig2_params", "fig3_params", "fig5_params"])
def test_mapping_identity_two_routes(figkey, request):
    # the two implementations (direct vs susceptibility route) must agree to
    # machine precision; this is the permanent self-test of the mapping
    p = request.getfixturevalue(figkey)
    s = derived_scales(p)
    gbar, _ = convert_couplings(p)
    w = np.linspace(1e-3, 3.0, 1000)
    direct = nonlinear_effective_density(w, p, s)
    via_chi = -(gbar**2) * susceptibility_imag(w, p, s)
    np.testing.assert_allclose(direct, via_chi, rtol=1e-12)


@pytest.mark.filterwarnings("ignore::effbath.errors.RegimeWarning")
def test_nonlinear_density_positive_and_odd(rng):
    for _ in range(20):
        raw = {"Omega": 1.0, "alpha": rng.uniform(0, 0.05), "g": rng.uniform(0.001, 0.5),
               "gamma": rng.uniform(0.01, 0.3), "beta": rng.uniform(2, 40),
               "Delta": 1.0, "epsilon": 0.0}
        p = build_params(raw)
        s = derived_scales(p)
        w = np.linspace(1e-3, 3.0, 300)
        j = nonlinear_effective_density(w, p, s)
        assert np.all(j > 0.0)
        np.testing.assert_array_equal(nonlinear_effective_density(-w, p, s), -j)


def test_peak_at_shifted_frequency(fig2_params):
    s = derived_scales(fig2_params)
    loc, height = density_peak(
        lambda w: nonlinear_effective_density(w, fig2_params, s), Omega=fig2_params.Omega
    )
    assert abs(loc - s.Omega1) < 1e-3
    assert height > 0.0


def test_density_float_path_matches_array_path(fig2_params):
    # a float is computed in floats, an array in numpy; both square by a
    # product, so every point of the peak search's grid gives the same bits
    p = fig2_params
    s = derived_scales(p)
    ws = np.concatenate([np.arange(1, 4001) / 2000.0, [0.0, s.Omega1, -s.Omega1, -0.3, 900.0]])
    as_array = nonlinear_effective_density(ws, p, s)
    for w, expected in zip(ws.tolist(), as_array):
        value = nonlinear_effective_density(w, p, s)
        assert type(value) is float
        assert value == expected, w
    # the golden-section search lands on the same bits either way
    by_float = density_peak(lambda w: nonlinear_effective_density(w, p, s), Omega=p.Omega)
    by_array = density_peak(lambda w: nonlinear_effective_density(np.asarray(w), p, s), Omega=p.Omega)
    assert by_float == by_array


def test_peak_shift_monotone_in_nonlinearity():
    locs = []
    for alpha in np.linspace(0.0, 0.05, 6):
        p = build_params({"Omega": 1, "alpha": alpha, "g": 0.18, "gamma": 0.097,
                          "beta": 10, "Delta": 1, "epsilon": 0})
        s = derived_scales(p)
        loc, _ = density_peak(lambda w: nonlinear_effective_density(w, p, s), Omega=1.0)
        locs.append(loc)
    assert np.all(np.diff(locs) >= 0.0)


def _scipy_density_peak(density, Omega):
    """The same grid scan, refined by scipy's golden section to xtol 1e-12."""
    from scipy.optimize import minimize_scalar

    step = Omega / 2000.0
    grid = np.arange(step, 2.0 * Omega + 0.5 * step, step)
    i = int(np.argmax(density(grid)))
    res = minimize_scalar(lambda w: -float(density(w)), bracket=tuple(grid[i - 1 : i + 2]),
                          method="golden", options={"xtol": 1e-12})
    return float(res.x), float(density(res.x))


def test_density_peak_matches_scipy_golden_section(rng):
    # a flat maximum fixes its location only to about sqrt(eps) of the
    # peak width, so the two searches agree in the height, not to 12 digits
    # in the location
    for _ in range(64):
        p = build_params({"Omega": 1.0, "alpha": rng.uniform(0.0, 0.05), "g": rng.uniform(0.002, 0.2),
                          "gamma_over_2piOmega": 0.0154, "beta": rng.uniform(5.0, 20.0),
                          "Delta": rng.uniform(0.8, 1.2), "epsilon": 0.0})
        s = derived_scales(p)

        def density(w):
            return nonlinear_effective_density(w, p, s)

        loc, height = density_peak(density, Omega=p.Omega)
        ref_loc, ref_height = _scipy_density_peak(density, p.Omega)
        assert abs(loc - ref_loc) <= 1e-7 * p.Omega
        assert height == pytest.approx(ref_height, rel=1e-12)


def test_linear_limit_lorentzian_equivalence():
    # alpha = 0 at low temperature: shapes agree near resonance at the few
    # percent level of the peak height, and the on-resonance height ratio is
    # exactly the thermal weight factor
    with pytest.warns(UserWarning):
        p = build_params({"Omega": 1, "alpha": 0.0, "g": 0.18, "gamma": 0.097,
                          "beta": 200, "Delta": 1, "epsilon": 0})
    s = derived_scales(p)
    gbar, _ = convert_couplings(p)
    w = np.linspace(1 - 3 * p.gamma, 1 + 3 * p.gamma, 601)
    jeff = nonlinear_effective_density(w, p, s)
    jho = linear_effective_density(w, gbar, p.gamma, p.Omega, p.M)
    assert np.abs(jeff - jho).max() <= 0.05 * jho.max()

    ratio = nonlinear_effective_density(1.0, p, s) / linear_effective_density(
        1.0, gbar, p.gamma, p.Omega, p.M
    )
    assert abs(ratio - 1.0 / (2 * s.nth + 1) ** 2) < 1e-10


def test_height_ratio_thermal_factor_finite_temperature():
    p = build_params({"Omega": 1, "alpha": 0.0, "g": 0.18, "gamma": 0.097,
                      "beta": 10, "Delta": 1, "epsilon": 0})
    s = derived_scales(p)
    gbar, _ = convert_couplings(p)
    ratio = nonlinear_effective_density(1.0, p, s) / linear_effective_density(
        1.0, gbar, p.gamma, 1.0, 1.0
    )
    assert abs(ratio - 1.0 / (2 * s.nth + 1) ** 2) < 1e-10


def test_geff_values(fig3_params, fig3_scales):
    p, s = fig3_params, fig3_scales
    assert geff_function(p, s)(s.Omega1) == pytest.approx(
        2 * s.varsigma * p.Omega**2 * s.Omega1 / s.gammabar**2, rel=1e-12
    )
    assert geff_function(p, s)(0.0) == 0.0


def test_geff_float_path_matches_array_path(fig3_params, fig3_scales):
    # a float is computed in floats, an array in numpy; at these points both
    # give the same bits
    p, s = fig3_params, fig3_scales
    ws = [0.0, s.Omega1, -s.Omega1, -0.3, 900.0]
    as_array = geff_function(p, s)(np.array(ws))
    for w, expected in zip(ws, as_array):
        value = geff_function(p, s)(w)
        assert type(value) is float
        assert value == expected


def test_geff_matches_scaled_density(fig3_params, fig3_scales):
    # q0^2*J_eff/pi reduces to the correlation weight up to the first-order
    # frequency reduction; measured 1.2% on the figure sets, frozen at 2%
    p, s = fig3_params, fig3_scales
    w = np.linspace(0.01, 2.0, 500)
    q0 = s.y0
    reduced = q0**2 * nonlinear_effective_density(w, p, s) / math.pi
    np.testing.assert_allclose(geff_function(p, s)(w), reduced, rtol=0.02)
