import dataclasses
import math
import re

import numpy as np
import pytest

from effbath.errors import (
    MissingKeyError,
    NegativeRateError,
    NonPositiveError,
    RegimeWarning,
    UnknownKeyError,
    ZeroLengthError,
)
from effbath.params import (
    bose_occupation,
    build_params,
    convert_couplings,
    derived_scales,
    load_config,
    regime_flags,
)

FIG3 = {"Omega": 1, "alpha": 0.02, "g": 0.18, "gamma_over_2piOmega": 0.0154,
        "beta": 10, "Delta": 1, "epsilon": 0}


def test_build_params_fig3_caption_set():
    p = build_params(FIG3)
    assert p.gamma == pytest.approx(0.0154 * 2 * math.pi, rel=1e-15)
    assert p.M == 1.0 and p.mu == 1.0 and p.q0 is None


def test_build_params_free_qubit_limit():
    p = build_params({"Omega": 1, "alpha": 0, "g": 0, "gamma": 0, "beta": 10,
                      "Delta": 1, "epsilon": 0})
    assert p.g == 0.0 and p.gamma == 0.0


def test_build_params_missing_key():
    with pytest.raises(MissingKeyError):
        build_params({"Omega": 1, "alpha": 0, "g": 0, "gamma": 0, "beta": 10, "Delta": 1})
    with pytest.raises(MissingKeyError, match="gamma"):
        build_params({"Omega": 1, "alpha": 0, "g": 0, "beta": 10, "Delta": 1, "epsilon": 0})


@pytest.mark.parametrize("typo", ["Mass", "q_0", "omega"])
def test_build_params_rejects_an_unknown_key(typo):
    with pytest.raises(UnknownKeyError, match=typo):
        build_params(dict(FIG3, **{typo: 3.0}))
    # every key the model reads is accepted
    every = dict(FIG3, M=2.0, mu=0.5, gamma=0.1, q0=1.5)
    assert len(every) == 11
    assert build_params(every).q0 == 1.5


@pytest.mark.parametrize("key,bad,exc", [
    ("Omega", -1.0, NonPositiveError),
    ("beta", 0.0, NonPositiveError),
    ("M", -2.0, NonPositiveError),
    ("gamma", -0.1, NegativeRateError),
    ("alpha", -0.01, NegativeRateError),
    ("Delta", -1.0, NegativeRateError),
])
def test_build_params_validation(key, bad, exc):
    raw = dict(FIG3)
    raw.pop("gamma_over_2piOmega")
    raw["gamma"] = 0.1
    raw[key] = bad
    with pytest.raises(exc):
        build_params(raw)


@pytest.mark.parametrize("q0", [0.0, -1.5])
def test_build_params_rejects_a_non_positive_q0(q0):
    # q0 is the double-well separation: a length, so neither zero nor negative
    with pytest.raises(NonPositiveError, match="q0"):
        build_params(dict(FIG3, q0=q0))


@pytest.mark.filterwarnings("ignore::effbath.errors.RegimeWarning")
def test_direct_gamma_wins_on_conflict():
    raw = dict(FIG3, gamma=0.5)
    assert build_params(raw).gamma == 0.5


def test_derived_scales_nonlinearity_shift():
    p = build_params(FIG3)
    s = derived_scales(p)
    assert s.n1 == pytest.approx(0.97, abs=1e-14)
    assert s.Omega1 == pytest.approx(1.06, abs=1e-14)
    assert s.n1_pow4 == pytest.approx(0.97**4, rel=1e-14)
    assert s.n1_pow4_first_order == pytest.approx(1 - 6 * 0.02, rel=1e-14)


def test_derived_scales_linear_limit():
    p = build_params({"Omega": 1, "alpha": 0, "g": 0.1, "gamma": 0.1, "beta": 10,
                      "Delta": 1, "epsilon": 0})
    s = derived_scales(p)
    assert s.n1 == 1.0 and s.Omega1 == 1.0 and s.n1_pow4 == 1.0


def test_alpha_at_omega_over_6_is_accepted_however_the_factor_rounds():
    # at alpha = Omega/6 the factor 1 - 6*alpha/Omega rounds below 0 at 103
    # of these Omega, the first at 0.406; the next float up is still rejected
    base = build_params(FIG3)
    rounded_below = 0
    for omega in np.linspace(0.3, 3.0, 2701).tolist():
        edge = omega / 6.0
        rounded_below += 1.0 - 6.0 * edge / omega < 0.0
        factor = derived_scales(dataclasses.replace(base, Omega=omega, alpha=edge)).n1_pow4_first_order
        assert 0.0 <= factor < 1e-15, omega
        with pytest.raises(NonPositiveError, match="exceeds Omega/6"):
            derived_scales(dataclasses.replace(base, Omega=omega, alpha=math.nextafter(edge, math.inf)))
    assert rounded_below == 103


def test_bose_occupation_value():
    # independent evaluation of the occupation at the shifted frequency
    p = build_params(FIG3)
    s = derived_scales(p)
    assert s.nth == pytest.approx(1.0 / math.expm1(10.6), rel=1e-13)
    assert s.nth == pytest.approx(2.5e-5, rel=2e-2)
    assert s.gammabar == pytest.approx(0.5 * (2 * s.nth + 1) * p.gamma, rel=1e-14)


def test_bose_occupation_overflow_safe():
    assert bose_occupation(1.06, 1000.0) == 0.0
    with pytest.raises(NonPositiveError):
        bose_occupation(-1.0, 10.0)


def test_varsigma_uses_first_order_fourth_power():
    p = build_params(FIG3)
    s = derived_scales(p)
    expected = p.g**2 * p.gamma * (1 - 6 * p.alpha) / math.pi
    assert s.varsigma == pytest.approx(expected, rel=1e-14)


def test_scale_covariance():
    # doubling Omega with all inputs fixed in units of Omega leaves the
    # dimensionless ratios untouched
    a = derived_scales(build_params(FIG3))
    raw2 = {"Omega": 2.0, "alpha": 0.04, "g": 0.36,
            "gamma": 2 * 0.0154 * 2 * math.pi, "beta": 5.0, "Delta": 2.0, "epsilon": 0}
    b = derived_scales(build_params(raw2))
    assert b.n1 == pytest.approx(a.n1, rel=1e-14)
    assert b.nth == pytest.approx(a.nth, rel=1e-12)
    assert b.varsigma == pytest.approx(a.varsigma, rel=1e-12)


def test_shifted_frequency_consistency_quadratic_in_alpha():
    # |Omega1*n1^2 - Omega| <= C*alpha^2; C fitted at 6.75, frozen with margin
    for alpha in np.linspace(1e-4, 0.05, 20):
        p = build_params({"Omega": 1, "alpha": alpha, "g": 0.1, "gamma": 0.05,
                          "beta": 10, "Delta": 1, "epsilon": 0})
        s = derived_scales(p)
        assert abs(s.Omega1 * s.n1**2 - 1.0) <= 7.5 * alpha**2


def test_convert_couplings_zero_and_identity():
    p = build_params(dict(FIG3, g=0.0))
    gbar, _ = convert_couplings(p)
    assert gbar == 0.0

    p = build_params(FIG3)
    gbar, alphabar = convert_couplings(p)
    # M = Omega = 1 gives y0 = 1 and alphabar = 4*alpha
    assert alphabar == pytest.approx(4 * p.alpha, rel=1e-14)
    # back to the scaled couplings: hbar*g = gbar*q0*y0/(2*sqrt(2)) with
    # q0 defaulting to y0, and alpha = alphabar*y0^4/4
    y0 = derived_scales(p).y0
    assert gbar * y0 * y0 / (2 * math.sqrt(2)) == pytest.approx(p.g, rel=1e-14)
    assert alphabar * y0**4 / 4 == pytest.approx(p.alpha, rel=1e-14)


@pytest.mark.filterwarnings("ignore::effbath.errors.RegimeWarning")
def test_convert_couplings_round_trip_random(rng):
    for _ in range(25):
        raw = {"Omega": rng.uniform(0.5, 3), "M": rng.uniform(0.3, 2),
               "alpha": rng.uniform(0, 0.05), "g": rng.uniform(0, 0.3),
               "gamma": rng.uniform(0, 0.2), "beta": rng.uniform(2, 50),
               "Delta": 1.0, "epsilon": 0.0, "q0": rng.uniform(0.2, 4)}
        p = build_params(raw)
        gbar, alphabar = convert_couplings(p)
        y0 = derived_scales(p).y0
        assert gbar * p.q0 * y0 / (2 * math.sqrt(2)) == pytest.approx(p.g, rel=1e-14, abs=1e-300)
        assert alphabar * y0**4 / 4 == pytest.approx(p.alpha, rel=1e-14, abs=1e-300)


def test_convert_couplings_zero_length():
    # build_params rejects q0 = 0, so only params built around it reach here
    p = dataclasses.replace(build_params(FIG3), q0=0.0)
    with pytest.raises(ZeroLengthError):
        convert_couplings(p)


def test_regime_warnings():
    with pytest.warns(RegimeWarning, match="weak-coupling"):
        build_params(dict(FIG3, g=1.5))
    with pytest.warns(RegimeWarning, match="matsubara"):
        build_params(dict(FIG3, beta=200))
    assert regime_flags(build_params(FIG3)) == []


def test_params_immutable(fig3_params):
    with pytest.raises(dataclasses.FrozenInstanceError):
        fig3_params.g = 0.5


def test_load_config(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nOmega = 1.0\nalpha=0.02  # inline\n\ng=0.18\n")
    raw = load_config(cfg)
    assert raw == {"Omega": 1.0, "alpha": 0.02, "g": 0.18}
    bad = tmp_path / "bad.cfg"
    bad.write_text("Omega 1.0\n")
    with pytest.raises(ValueError, match="key=value"):
        load_config(bad)
    # a repeated key, and a value that is not a number, name the file and line
    twice = tmp_path / "twice.cfg"
    twice.write_text("g=0.18\nOmega=1\ng=0.018\n")
    with pytest.raises(ValueError, match=re.escape(f"{twice}:3: g is set twice")):
        load_config(twice)
    word = tmp_path / "word.cfg"
    word.write_text("Omega=1\ng = abc\n")
    with pytest.raises(ValueError, match=re.escape(f"{word}:2: g = 'abc' is not a number")):
        load_config(word)

    # editors that save "UTF-8 with BOM" put U+FEFF before the first key; it is not part of it
    bom = tmp_path / "bom.cfg"
    bom.write_bytes("\ufeffOmega = 1.0\ng=0.18\n".encode("utf-8"))
    assert load_config(bom) == {"Omega": 1.0, "g": 0.18}
