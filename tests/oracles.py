"""The tests' references for the bath correlation S(tau) + i*R(tau), independent of the package's sums.

* ``quadpack_correlation`` / ``correlation_quadrature``: QUADPACK, by
  scipy, of the defining integrals
  S = int_0^inf G(w)/w^2 * coth(beta*w/2) * (1 - cos(w*tau)) dw and
  R = int_0^inf G(w)/w^2 * sin(w*tau) dw, piece by piece, cut at
  ``omega_max`` (1000 by default): the cut drops about
  2*A*Om1/(3*omega_max^3) of S and of R, 1.2e-12 at fig3.  Nothing is
  kept between nodes, pieces or tau.  Criterion 04 and the accuracy
  tests of the residue sums of ``effbath.correlation`` read it.
* ``residues_mpmath``: the same residues as ``correlation.residue_sums``,
  each summed by mpmath at 30 digits, its Matsubara series by ``nsum``.
* ``banded_exp_e1``, ``banded_exp_e1_real`` and ``banded_exp_ei``: the
  exponential integrals of ``effbath.expint`` with one numpy loop per band
  of |z| and per call, as they were first written; the package's one-loop
  forms must return their bits.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad

from effbath.correlation import CorrelationFn
from effbath.errors import ZeroDampingError
from effbath.expint import (_ASYMPTOTIC, _CF_DEPTHS, _CF_DEPTHS_REAL, _CF_UPPERS, _CF_UPPERS_REAL, _EI_BANDS, _EPS4,
                            EULER_GAMMA)
from effbath.params import DerivedScales, SystemParams
from effbath.spectral import geff_function

# absolute tolerance of each quadrature
QUADRATURE_ATOL = 1e-8


class QuadratureNonConvergence(RuntimeError):
    """Adaptive quadrature failed to reach the requested tolerance.

    Carries the achieved absolute-error estimate in ``achieved``.
    """

    def __init__(self, message, achieved=None):
        super().__init__(message)
        self.achieved = achieved


def _coth(x: float) -> float:
    # 1 + 2/(e^{2x}-1), exact for x > 0 and overflow-safe
    if x > 350.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * x)


def correlation_quadrature(
    tau: float,
    geff_fn: Callable,
    beta: float,
    atol: float = QUADRATURE_ATOL,
    peak: float | None = None,
    peak_width: float | None = None,
    omega_max: float = 1000.0,
):
    """S(tau), R(tau) by adaptive quadrature of the defining integrals.

    S = int_0^inf dw G(w)/w^2 * coth(beta*w/2) * (1 - cos(w*tau)),
    R = int_0^inf dw G(w)/w^2 * sin(w*tau).

    ``geff_fn`` takes one float node and must be Ohmic-like (G(w)/w^2
    finite*1/w as w -> 0).  The oscillatory factors are handled with
    Clenshaw-Curtis weighted quadrature; the integration range is split
    at the spectral peak (when given) and at w = 2*pi/tau.  ``tau`` must
    be finite and >= 0; anything else raises ValueError before any
    integral runs.  Raises QuadratureNonConvergence with the achieved
    error estimate when the summed estimate exceeds ``atol``.  QUADPACK's
    IntegrationWarning propagates as scipy issues it, so a suite that
    turns warnings into errors fails on it.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    if tau == 0.0:
        return 0.0, 0.0

    # knots: stay below one oscillation period before splitting off cos/sin;
    # the [0, a0] pieces use plain quadrature (interior nodes only) because
    # f itself is 1/w-singular at the origin even though the integrands are
    # finite there
    a0 = min(2.0 * math.pi / tau, omega_max)
    if peak is not None:
        width = 5.0 * (peak_width if peak_width is not None else 0.1 * peak)
        a0 = min(a0, max(peak - width, 0.25 * peak))
        knots = [x for x in (peak - width, peak + width) if a0 < x < omega_max]
    else:
        knots = []
    edges = [a0] + knots + [omega_max]
    half_beta = 0.5 * beta

    def f(w):
        return geff_fn(w) / w**2

    def f_coth(w):
        return f(w) * _coth(half_beta * w)

    eps = atol / (4 + 3 * len(edges))

    def piece(fn, a, b, **weight):
        return quad(fn, a, b, epsabs=eps, epsrel=1e-10, limit=400, **weight)

    s_val, total_err = piece(lambda w: f_coth(w) * (1.0 - math.cos(w * tau)), 0.0, a0)
    for lo, hi in zip(edges[:-1], edges[1:]):
        smooth, err1 = piece(f_coth, lo, hi)
        osc, err2 = piece(f_coth, lo, hi, weight="cos", wvar=tau)
        s_val += smooth - osc
        total_err += err1 + err2

    r_val, err = piece(lambda w: f(w) * math.sin(w * tau), 0.0, a0)
    total_err += err
    for lo, hi in zip(edges[:-1], edges[1:]):
        value, err = piece(f, lo, hi, weight="sin", wvar=tau)
        r_val += value
        total_err += err

    if total_err > atol:
        raise QuadratureNonConvergence(
            f"correlation quadrature at tau = {tau:g} reached abs error {total_err:.3e} > atol {atol:.3e}",
            achieved=total_err,
        )
    return s_val, r_val


def quadpack_correlation(
    p: SystemParams, scales: DerivedScales, atol: float = QUADRATURE_ATOL
) -> CorrelationFn:
    """QUADPACK evaluator of the correlation integrals for these params.

    Each tau is integrated on its own; S and R come out of the same call,
    in the shape of tau.  gamma = 0, where G(omega) is a line, raises
    ZeroDampingError.
    """
    if scales.gammabar == 0.0:
        raise ZeroDampingError(f"gamma = {p.gamma}: undamped, G(omega) is a line at Omega1, which no quadrature"
                               " resolves; the closed-form evaluator takes gamma = 0")
    geff_fn = geff_function(p, scales)

    def one(tau):
        return correlation_quadrature(tau, geff_fn, p.beta, atol=atol, peak=scales.Omega1,
                                      peak_width=scales.gammabar)

    def pair(tau):
        arr = np.asarray(tau, dtype=float)
        if arr.ndim == 0:
            return one(float(arr))
        values = np.array([one(float(t)) for t in arr.ravel()], dtype=float).reshape(-1, 2)
        return values[:, 0].reshape(arr.shape), values[:, 1].reshape(arr.shape)

    return CorrelationFn(kind="quadpack", pair=pair)


def residues_mpmath(p: SystemParams, scales: DerivedScales, taus) -> list:
    """[(S, R)] at each tau > 0 as mpmath numbers: the residue sums at 30 digits.

    The inputs are the doubles of ``p`` and ``scales``, taken exactly; the
    Matsubara terms free of tau are summed by Euler-Maclaurin, the rest by
    ``nsum``'s default extrapolation.
    """
    import mpmath as mp

    with mp.workdps(30):
        om1, gb, beta = mp.mpf(scales.Omega1), mp.mpf(scales.gammabar), mp.mpf(p.beta)
        numerator = 4 * mp.mpf(scales.varsigma) * mp.mpf(p.Omega) ** 2 * om1
        pole = mp.mpc(om1, gb)
        poles = [mp.mpf(0), -om1, pole, mp.conj(pole)]

        def residue(q):
            den = mp.mpf(1)
            for other in poles:
                if other != q:
                    den *= q - other
            return numerator / den

        def f_matsubara(n):
            w = 2j * mp.pi * n / beta
            return numerator / (w * (w + om1) * (w - pole) * (w - mp.conj(pole)))

        def fixed(n):
            value = f_matsubara(n)
            return 4 / beta * (-mp.re(value) * mp.log(2 * mp.pi * n / beta) - mp.im(value) * mp.pi / 2)

        constant = mp.nsum(fixed, [1, mp.inf], method="euler-maclaurin")
        c_0 = residue(poles[0])
        c_1 = 2 / beta * sum(residue(q) / -q for q in poles[1:])
        out = []
        for tau in taus:
            tau = mp.mpf(tau)

            def big_j(q, t):
                z = 1j * q * t
                value = mp.exp(z) * mp.e1(z)
                if t > 0 and mp.re(q) >= 0 and mp.im(q) > 0:
                    value += 2j * mp.pi * mp.exp(z)
                if t < 0 and mp.re(q) > 0 and mp.im(q) < 0:
                    value -= 2j * mp.pi * mp.exp(z)
                return value

            def matsubara(n):
                x = 2 * mp.pi * n / beta * tau
                value = f_matsubara(n)
                half_d = (mp.exp(-x) * mp.ei(x) - mp.exp(x) * mp.e1(x)) / 2
                return 4 / beta * (mp.re(value) * half_d + mp.im(value) * mp.pi / 2 * mp.exp(-x))

            r_val = mp.pi / 2 * c_0 + mp.im(sum(residue(q) * big_j(q, tau) for q in poles[1:]))
            s_val = mp.pi * c_0 / beta * tau + c_1 * (mp.log(tau) + mp.euler) + constant
            for q in poles[1:]:
                k = -mp.log(-q) - (big_j(q, tau) + big_j(q, -tau)) / 2
                s_val += mp.re(residue(q) * mp.coth(beta * q / 2) * k)
            s_val += mp.nsum(matsubara, [1, mp.inf])
            out.append((mp.re(s_val), mp.re(r_val)))
        return out


def _continued_fraction(z, depth: int):
    """e^z*E1(z) by the even continued fraction, evaluated backwards from ``depth``."""
    tail = np.zeros_like(z)
    for k in range(depth, 0, -1):
        tail = k * k / (z + (2 * k + 1) - tail)
    return 1.0 / (z + 1.0 - tail)


def _power_sum(z):
    """sum_{k>=1} z^k/(k*k!), until a term drops below eps/4 of the sum."""
    term = z.copy()
    total = z.copy()
    k = 1
    while True:
        k += 1
        term = term * z / k
        add = term / k
        total = total + add
        if np.all(np.abs(add) <= _EPS4 * np.abs(total)):
            return total


def _ei_series(x, _depth):
    """e^-x*Ei(x) from Ei's series, for x > 0; a band's depth does not apply."""
    return np.exp(-x) * (EULER_GAMMA + np.log(x) + _power_sum(x))


def _asymptotic(z, sign: float):
    """sum_k sign^k k!/z^{k+1} until a term drops below eps/2 of the sum."""
    inverse = 1.0 / z
    term = inverse
    total = inverse.copy()
    k = 0
    while True:
        k += 1
        term = term * (sign * k) * inverse
        total = total + term
        if np.all(np.abs(term) <= 2.0 * _EPS4 * np.abs(total)):
            return total


def _by_bands(values, bands, method):
    """method(subset, depth) at the elements of ``values`` whose magnitude falls in each (upper, depth) band."""
    out = np.empty_like(values)
    size = np.abs(values)
    lower = 0.0
    for upper, depth in bands:
        chosen = (size > lower) & (size <= upper)
        if chosen.any():
            out[chosen] = method(values[chosen], depth)
        lower = upper
    return out


def _stacked(function):
    """``function`` on each z[i] of a stack, as the package's forms take one."""

    def stacked(z):
        z = np.asarray(z)
        if z.ndim > 1 and z.size:
            return np.stack([function(row) for row in z])
        return function(z)

    return stacked


@_stacked
def banded_exp_e1(z):
    """e^z*E1(z), one loop per band of the continued fraction and per call of each series."""
    z = np.asarray(z, dtype=complex)
    flat = z.ravel()
    out = np.empty_like(flat)
    size = np.abs(flat)
    far = size >= _ASYMPTOTIC
    series = ~far & (size + flat.real <= 2.0)
    if series.any():
        w = flat[series]
        out[series] = np.exp(w) * (-EULER_GAMMA - np.log(w) - _power_sum(-w))
    if far.any():
        out[far] = _asymptotic(flat[far], -1.0)
    rest = ~series & ~far
    if rest.any():
        out[rest] = _by_bands(flat[rest], tuple(zip(_CF_UPPERS, _CF_DEPTHS)), _continued_fraction)
    return out.reshape(z.shape)


@_stacked
def banded_exp_e1_real(x):
    """e^x*E1(x) for x > 0, one loop per band of the continued fraction and per call of the series."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat <= 1.0
    if series.any():
        w = flat[series]
        out[series] = np.exp(w) * (-EULER_GAMMA - np.log(w) - _power_sum(-w))
    rest = ~series
    if rest.any():
        out[rest] = _by_bands(flat[rest], tuple(zip(_CF_UPPERS_REAL, _CF_DEPTHS_REAL)), _continued_fraction)
    return out.reshape(x.shape)


@_stacked
def banded_exp_ei(x):
    """e^-x*Ei(x) for x > 0, one loop per band of Ei's series and per call of the asymptotic series."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat < _ASYMPTOTIC
    if series.any():
        out[series] = _by_bands(flat[series], tuple((upper, None) for upper in _EI_BANDS), _ei_series)
    far = ~series
    if far.any():
        out[far] = _asymptotic(flat[far], 1.0)
    return out.reshape(x.shape)
