"""The exponential integrals against mpmath at 40 digits, each within ulps times its condition number.

Each form's bound follows from how it is summed, not from the measured
error.  A power series carries about three roundings per term, and its
largest terms sit near k = |z|, so it is off by (2|z| + 8) ulp of the
summed magnitudes gamma + |ln z| + sum_k |z|^k/(k*k!) (times |e^z|);
that sum over the value is the condition number, large only near a
zero of Ei.  The backward continued fraction damps each step's rounding
and stops within eps/2 of its limit: 16 ulp.  The asymptotic series
stops within eps/2 and its terms carry a few roundings each: 16 ulp,
times csc|arg z| past the imaginary axis, as its remainder bound.

The one-loop forms must also return, bit for bit, what the banded loops
they replaced return (``oracles.banded_*``), and so must the residue sums
built on them.
"""

import math

import numpy as np
import pytest

from effbath import correlation
from effbath.expint import EULER_GAMMA, exp_e1, exp_e1_real, exp_ei
from effbath.params import build_params, derived_scales
from effbath.scenarios import FIGURE_PARAMS
from oracles import banded_exp_e1, banded_exp_e1_real, banded_exp_ei

mp = pytest.importorskip("mpmath")
EPS = np.finfo(float).eps


def _ein(r: float) -> float:
    """sum_{k>=1} r^k/(k*k!) for r >= 0, to a few ulps: its terms are all positive."""
    term = total = r
    k = 1
    while term > 1e-18 * total:
        k += 1
        term *= r * (k - 1) / (k * k)
        total += term
    return total


def _complex_bound(z: complex, ref: complex) -> float:
    size = abs(z)
    if size < 40.0 and size + z.real <= 2.0:
        summed = abs(math.exp(z.real)) * (EULER_GAMMA + abs(np.log(z)) + _ein(size))
        return (2.0 * size + 8.0) * EPS * summed
    if size >= 40.0:
        angle = abs(np.angle(z))
        return 16.0 * EPS * abs(ref) * (1.0 / math.sin(angle) if angle > 0.5 * math.pi else 1.0)
    return 16.0 * EPS * abs(ref)


def _check_complex(points):
    z = np.asarray(points, dtype=complex)
    values = exp_e1(z)
    with mp.workdps(40):
        for w, value in zip(z.tolist(), values.tolist()):
            ref = mp.exp(w) * mp.e1(w)
            err = abs(mp.mpc(value) - ref)
            assert err <= _complex_bound(w, complex(ref)), (w, float(err) / abs(complex(ref)) / EPS)


def _ring(rng, radius, count=24):
    """Points on |z| = radius just inside and just outside it, at seeded angles."""
    angle = rng.uniform(-math.pi, math.pi, count)
    scale = np.repeat([1.0 - 1e-9, 1.0 + 1e-9], count // 2)
    return radius * scale * np.exp(1j * angle)


def test_exp_e1_on_both_sides_of_each_switch():
    rng = np.random.default_rng(31)
    # the continued fraction's bands and the asymptotic series' start
    points = [z for radius in (2.0, 4.0, 8.0, 16.0, 24.0, 40.0) for z in _ring(rng, radius)]
    # the series' edge |z| + Re z = 2: z = r*e^{i*t} with r = 2/(1 + cos t), just in and out
    angle = rng.uniform(0.3, 2.8, 30) * rng.choice([-1.0, 1.0], 30)
    edge = 2.0 / (1.0 + np.cos(angle))
    points += (np.concatenate([edge * (1.0 - 1e-9), edge * (1.0 + 1e-9)]) * np.tile(np.exp(1j * angle), 2)).tolist()
    # and a spread over the plane from 1e-3 to 300
    radius = np.exp(rng.uniform(math.log(1e-3), math.log(300.0), 300))
    points += (radius * np.exp(1j * rng.uniform(-math.pi, math.pi, 300))).tolist()
    _check_complex(points)


def test_exp_e1_beside_the_branch_cut():
    # a hair above and below the negative axis, and on it with a signed zero
    rng = np.random.default_rng(32)
    radius = np.exp(rng.uniform(math.log(1e-2), math.log(200.0), 40))
    points = []
    for gap in (1e-2, 1e-5, 1e-9):
        for sign in (1.0, -1.0):
            points += (radius * np.exp(1j * sign * (math.pi - gap))).tolist()
    _check_complex(points)
    # on the cut, below |z| = 40, the sign of a zero imaginary part picks the side, as in np.log
    x = np.array([0.5, 3.0, 30.0])
    with mp.workdps(40):
        above = np.array([complex(mp.exp(-v) * (-mp.ei(v) - 1j * mp.pi)) for v in x.tolist()])
    np.testing.assert_allclose(exp_e1(-x + 0j), above, rtol=64 * EPS)
    np.testing.assert_allclose(exp_e1(np.conj(-x + 0j)), np.conj(above), rtol=64 * EPS)


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
def test_exp_e1_on_the_rays_of_the_poles(tag):
    # z = i*q*tau for q = -Omega1, p and conj(p), and both signs of tau, up to tau = 100
    p = build_params(FIGURE_PARAMS[tag])
    s = derived_scales(p)
    tau = np.exp(np.random.default_rng(33).uniform(math.log(1e-3), math.log(100.0), 40))
    pole = complex(s.Omega1, s.gammabar)
    points = [1j * q * sign * t for q in (-s.Omega1, pole, pole.conjugate()) for sign in (1.0, -1.0) for t in tau]
    _check_complex(points)


def _real_bound(x: float, ref: float, sign: float) -> float:
    """Bound on e^x*E1(x) (sign -1) or e^-x*Ei(x) (sign +1) at x > 0."""
    series = x <= 1.0 if sign < 0 else x < 40.0
    if series:
        summed = math.exp(-sign * x) * (EULER_GAMMA + abs(math.log(x)) + _ein(x))
        return (2.0 * x + 8.0) * EPS * summed
    return 16.0 * EPS * abs(ref)


def _check_real(x):
    x = np.asarray(x, dtype=float)
    e1_values, ei_values = exp_e1_real(x), exp_ei(x)
    with mp.workdps(40):
        for v, e1_value, ei_value in zip(x.tolist(), e1_values.tolist(), ei_values.tolist()):
            ref = mp.exp(v) * mp.e1(v)
            assert abs(e1_value - ref) <= _real_bound(v, float(ref), -1.0), ("e1", v)
            ref = mp.exp(-v) * mp.ei(v)
            assert abs(ei_value - ref) <= _real_bound(v, float(ref), 1.0), ("ei", v)


def test_real_exponential_integrals_on_both_sides_of_each_switch():
    rng = np.random.default_rng(34)
    # e^x*E1(x): the series to 1, the fraction's bands at 2, 4, 8 and 16; e^-x*Ei(x): the
    # series' bands at 2, 6, 12, 20 and 30, the asymptotic series from 40; Ei's zero at 0.3725
    edges = [1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 30.0, 40.0, 0.37250741078136663]
    x = [e * f for e in edges for f in (1.0 - 1e-9, 1.0, 1.0 + 1e-9)]
    x += np.exp(rng.uniform(math.log(1e-4), math.log(400.0), 300)).tolist()
    _check_real(x)


@pytest.mark.parametrize("tag", ["fig3", "fig5"])
def test_real_exponential_integrals_on_the_matsubara_rays(tag):
    # x = nu_n*tau at q = +-i*nu_n: the first 60 Matsubara frequencies at seeded tau
    p = build_params(FIGURE_PARAMS[tag])
    tau = np.exp(np.random.default_rng(35).uniform(math.log(1e-3), math.log(100.0), 8))
    nu = 2.0 * math.pi / p.beta * np.arange(1, 61)
    x = np.outer(nu, tau).ravel()
    _check_real(x[x < 400.0])


def test_a_nan_comes_back_as_nan():
    # a nan lies in no band of |z| and meets no stopping rule: the continued fraction takes
    # it, or the asymptotic series stops its run at once, and it comes back nan
    with np.errstate(invalid="ignore"):
        assert np.isnan(exp_e1(np.array([complex(np.nan, 0.0), complex(0.5, np.nan), complex(50.0, np.nan)]))).all()
        assert np.isnan(exp_e1_real(np.array([np.nan]))).all()
        values = exp_ei(np.array([np.nan, 50.0, 3.0]))
    assert np.isnan(values[0]) and np.isfinite(values[1:]).all()

def _switches(rng):
    """Complex and real points on, just inside and just outside each switch of the three functions."""
    sides = np.array([1.0 - 1e-9, 1.0, 1.0 + 1e-9])
    # the continued fraction's bands of |z| and the asymptotic series' start, at seeded angles
    rings = np.array([2.0, 4.0, 8.0, 16.0, 24.0, 40.0])
    angle = rng.uniform(-math.pi, math.pi, (rings.size, sides.size, 4))
    points = (rings[:, None, None] * sides[None, :, None] * np.exp(1j * angle)).ravel()
    # the series' edge |z| + Re z = 2: z = r*e^{i*t} with r = 2/(1 + cos t)
    angle = rng.uniform(0.3, 2.8, 8) * rng.choice([-1.0, 1.0], 8)
    edge = np.outer(2.0 / (1.0 + np.cos(angle)) * np.exp(1j * angle), sides).ravel()
    # e^x*E1(x): the series to 1, the fraction's bands at 2, 4, 8 and 16; e^-x*Ei(x):
    # the series' bands at 2, 6, 12, 20 and 30, the asymptotic series from 40
    edges = np.array([1.0, 2.0, 4.0, 6.0, 8.0, 12.0, 16.0, 20.0, 30.0, 40.0])
    return np.concatenate([points, edge]), np.outer(edges, sides).ravel()


def _same_bits(value, reference, what):
    assert value.shape == reference.shape and value.tobytes() == reference.tobytes(), what


def test_the_one_loop_forms_return_the_banded_loops_bits(monkeypatch):
    rng = np.random.default_rng(36)
    switch_z, switch_x = _switches(rng)
    calls = [[z] for z in switch_z] + [[x] for x in switch_x]  # size 1: each switch alone
    for size in (31, 93, 20_000):
        for _ in range(3 if size < 20_000 else 1):
            # seeded values over every band, mixed with the switches, in a seeded order
            radius = np.exp(rng.uniform(math.log(1e-3), math.log(300.0), size))
            z = np.concatenate([switch_z, radius * np.exp(1j * rng.uniform(-math.pi, math.pi, size))])
            x = np.concatenate([switch_x, np.exp(rng.uniform(math.log(1e-4), math.log(400.0), size))])
            calls += [rng.permutation(z)[:size], rng.permutation(x)[:size]]
    for values in calls:
        values = np.asarray(values)
        # and a stack of three calls, as residue_sums makes: each keeps its own stopping
        # rules; were they shared, the rows a few percent apart would move bits (tens here)
        stack = np.stack([values, 1.05 * values[::-1], 1j * values if np.iscomplexobj(values) else values])
        for arg in (values, stack):
            if np.iscomplexobj(values):
                _same_bits(exp_e1(arg), banded_exp_e1(arg), values)
            else:
                _same_bits(exp_e1_real(arg), banded_exp_e1_real(arg), values)
                _same_bits(exp_ei(arg), banded_exp_ei(arg), values)
    # the residue sums on the correlation CSV's 121 lags, built on either implementation
    for settings in (FIGURE_PARAMS["fig3"], FIGURE_PARAMS["fig5"], dict(FIGURE_PARAMS["fig3"], beta=1.0)):
        p = build_params(settings)
        tau = np.linspace(0.0, 30.0 / p.Omega, 121)
        one_loop = correlation.residue_sums(p, derived_scales(p))(tau)
        with monkeypatch.context() as patch:
            for name, banded in (("exp_e1", banded_exp_e1), ("exp_e1_real", banded_exp_e1_real),
                                 ("exp_ei", banded_exp_ei)):
                patch.setattr(correlation, name, banded)
            banded_sums = correlation.residue_sums(p, derived_scales(p))(tau)
        for value, reference, name in zip(one_loop, banded_sums, ("S", "R", "bound")):
            _same_bits(value, reference, name)
