"""Bath correlation function Q(tau) = S(tau) + i*R(tau), three ways.

* adaptive quadrature of the defining frequency integral (oracle),
* closed form for the Lorentzian-peaked effective bath,
* weak-damping split into zeroth- and first-order-in-gamma pieces.

The closed forms neglect Matsubara terms and apply the near-resonance
pole reduction, so quadrature and closed form agree only within a small,
temperature-dependent tolerance; that gap is asserted, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import QuadratureNonConvergence, ZeroDampingError
from .params import DerivedScales, SystemParams
from .spectral import geff

__all__ = [
    "CorrelationCoefficients",
    "WdaCoefficients",
    "CorrelationFn",
    "closed_form_coefficients",
    "correlation_closed_form",
    "wda_coefficients",
    "wda_split",
    "correlation_quadrature",
    "closed_form_correlation",
    "quadrature_correlation",
    "wda_correlation",
]


@dataclass(frozen=True)
class CorrelationCoefficients:
    """Closed-form amplitudes of S and R for the peaked effective bath."""

    I: float
    N: float
    X: float
    L: float
    Z: float


@dataclass(frozen=True)
class WdaCoefficients:
    """Weak-damping amplitudes: (Y, W) zeroth, (A, B, C, V) first order."""

    Y: float
    W: float
    A: float
    B: float
    C: float
    V: float


@dataclass(frozen=True)
class CorrelationFn:
    """One evaluator ``pair(tau) -> (S, R)`` with provenance tag."""

    kind: str  # "quadrature" | "closed-form" | "wda-split"
    pair: Callable

    def S(self, tau):
        return self.pair(tau)[0]

    def R(self, tau):
        return self.pair(tau)[1]


def _sech(x: float) -> float:
    return 0.0 if x > 700.0 else 1.0 / math.cosh(x)


def _coth(x: float) -> float:
    # 1 + 2/(e^{2x}-1), exact for x > 0 and overflow-safe
    if x > 350.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * x)


def closed_form_coefficients(p: SystemParams, scales: DerivedScales) -> CorrelationCoefficients:
    """Amplitudes I, N, X, L, Z of the closed-form correlation function.

    Singular at zero damping (N, L, Z carry 1/gammabar); raises
    ZeroDampingError there - the zero-damping limit lives in the
    weak-damping split instead.
    """
    gb = scales.gammabar
    if gb == 0.0:
        raise ZeroDampingError("closed-form coefficients are singular at gamma = 0")
    om1 = scales.Omega1
    big = p.beta * om1
    small = p.beta * gb
    coef_i = 2.0 * math.pi * scales.varsigma * p.Omega**2 / (om1**2 + gb**2)
    coef_n = -coef_i * (om1 / gb - gb / om1)
    coef_x = 2.0 * coef_i / p.beta
    # hyperbolic ratios evaluated with sech/tanh so large beta cannot overflow
    sech_big = _sech(big)
    den = 1.0 - math.cos(small) * sech_big
    coef_l = -(coef_i / gb) * (om1 * math.tanh(big) - gb * math.sin(small) * sech_big) / den
    coef_z = -(coef_i / gb) * (gb * math.tanh(big) + om1 * math.sin(small) * sech_big) / den
    return CorrelationCoefficients(I=coef_i, N=coef_n, X=coef_x, L=coef_l, Z=coef_z)


def correlation_closed_form(tau, coeffs: CorrelationCoefficients, scales: DerivedScales):
    """Closed-form S and R on a tau grid.

    S = X*tau + L*(e^{-gb*tau}*cos(Om1*tau) - 1) + Z*e^{-gb*tau}*sin(Om1*tau)
    R = I - e^{-gb*tau}*(N*sin(Om1*tau) + I*cos(Om1*tau))
    """
    t = np.asarray(tau, dtype=float)
    envelope = np.exp(-scales.gammabar * t)
    phase = scales.Omega1 * t
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    s_val = coeffs.X * t + coeffs.L * (envelope * cos_p - 1.0) + coeffs.Z * envelope * sin_p
    r_val = coeffs.I - envelope * (coeffs.N * sin_p + coeffs.I * cos_p)
    return s_val, r_val


def wda_coefficients(p: SystemParams, scales: DerivedScales) -> WdaCoefficients:
    """Weak-damping amplitudes, finite for any gamma >= 0."""
    om1 = scales.Omega1
    n14 = scales.n1_pow4_first_order
    big = p.beta * om1
    coef_w = 4.0 * p.g**2 * n14 / (om1 * p.Omega * (2.0 * scales.nth + 1.0))
    coef_y = -coef_w * _coth(0.5 * big)
    coef_v = 2.0 * p.g**2 * n14 * p.gamma / (om1**2 * p.Omega)
    coef_a = -scales.gammabar * coef_y
    coef_b = 2.0 * coef_v / p.beta
    # (beta*Om1 + sinh)/(cosh - 1), rewritten against overflow
    sech_big = _sech(big)
    coef_c = -coef_v * (big * sech_big + math.tanh(big)) / (1.0 - sech_big)
    return WdaCoefficients(Y=coef_y, W=coef_w, A=coef_a, B=coef_b, C=coef_c, V=coef_v)


def wda_split(tau, coeffs: WdaCoefficients, scales: DerivedScales):
    """Correlation pieces (S0, S1, R0, R1) by order in the damping."""
    t = np.asarray(tau, dtype=float)
    phase = scales.Omega1 * t
    cos_p, sin_p = np.cos(phase), np.sin(phase)
    s0 = coeffs.Y * (cos_p - 1.0)
    s1 = coeffs.A * t * cos_p + coeffs.B * t + coeffs.C * sin_p
    r0 = coeffs.W * sin_p
    r1 = coeffs.V * (1.0 - cos_p - 0.5 * phase * sin_p)
    return s0, s1, r0, r1


def _quad_piece(fn, a, b, weight=None, wvar=None, epsabs=1e-10):
    from scipy.integrate import quad  # here, so the package imports without scipy

    kwargs = {"epsabs": epsabs, "epsrel": 1e-10, "limit": 400}
    if weight is not None:
        kwargs["weight"] = weight
        kwargs["wvar"] = wvar
    value, err = quad(fn, a, b, **kwargs)
    return value, err


def correlation_quadrature(
    tau: float,
    geff_fn: Callable,
    beta: float,
    atol: float = 1e-8,
    peak: float | None = None,
    peak_width: float | None = None,
    omega_max: float = 1000.0,
):
    """S(tau), R(tau) by adaptive quadrature of the defining integrals.

    S = int_0^inf dw G(w)/w^2 * coth(beta*w/2) * (1 - cos(w*tau)),
    R = int_0^inf dw G(w)/w^2 * sin(w*tau).

    ``geff_fn`` must be Ohmic-like (G(w)/w^2 finite*1/w as w -> 0).  The
    oscillatory factors are handled with Clenshaw-Curtis weighted
    quadrature; the integration range is split at the spectral peak (when
    given) and at w = 2*pi/tau.  ``tau`` must be finite and >= 0; anything
    else raises ValueError before any integral runs.  Raises
    QuadratureNonConvergence with the achieved error estimate when the
    combined estimate exceeds ``atol``.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    if tau == 0.0:
        return 0.0, 0.0

    def f(w):
        return float(geff_fn(w)) / w**2

    def f_coth(w):
        return f(w) * _coth(0.5 * beta * w)

    def s_integrand(w):
        return f_coth(w) * (1.0 - math.cos(w * tau))

    def r_integrand(w):
        return f(w) * math.sin(w * tau)

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

    eps = atol / (4 + 3 * len(edges))
    total_err = 0.0

    s_val, err = _quad_piece(s_integrand, 0.0, a0, epsabs=eps)
    total_err += err
    for lo, hi in zip(edges[:-1], edges[1:]):
        smooth, err1 = _quad_piece(f_coth, lo, hi, epsabs=eps)
        osc, err2 = _quad_piece(f_coth, lo, hi, weight="cos", wvar=tau, epsabs=eps)
        s_val += smooth - osc
        total_err += err1 + err2

    r_val, err = _quad_piece(r_integrand, 0.0, a0, epsabs=eps)
    total_err += err
    for lo, hi in zip(edges[:-1], edges[1:]):
        piece, err = _quad_piece(f, lo, hi, weight="sin", wvar=tau, epsabs=eps)
        r_val += piece
        total_err += err

    if total_err > atol:
        raise QuadratureNonConvergence(
            f"correlation quadrature reached abs error {total_err:.3e} > atol {atol:.3e}",
            achieved=total_err,
        )
    return s_val, r_val


def closed_form_correlation(p: SystemParams, scales: DerivedScales) -> CorrelationFn:
    """Closed-form evaluator; the weak-damping split at gamma = 0.

    The closed form is singular at zero damping, where the split's
    first-order coefficients vanish and it is the undamped limit.
    """
    if p.gamma == 0.0:
        return wda_correlation(p, scales)

    coeffs = closed_form_coefficients(p, scales)
    pair = partial(correlation_closed_form, coeffs=coeffs, scales=scales)
    return CorrelationFn(kind="closed-form", pair=pair)


def quadrature_correlation(p: SystemParams, scales: DerivedScales, atol: float = 1e-8) -> CorrelationFn:
    """Quadrature evaluator of the correlation integrals for these params.

    Each tau is integrated once; S and R come out of the same call, in the
    shape of tau.
    """
    # geff is looked up per call, so perfbench's tracer counts every node
    def geff_fn(w):
        return geff(w, p, scales)

    width = scales.gammabar if scales.gammabar > 0.0 else 0.05 * scales.Omega1
    one = partial(
        correlation_quadrature,
        geff_fn=geff_fn,
        beta=p.beta,
        atol=atol,
        peak=scales.Omega1,
        peak_width=width,
    )

    def pair(tau):
        arr = np.asarray(tau, dtype=float)
        if arr.ndim == 0:
            return one(float(arr))
        values = np.array([one(float(t)) for t in arr.ravel()], dtype=float).reshape(-1, 2)
        return values[:, 0].reshape(arr.shape), values[:, 1].reshape(arr.shape)

    return CorrelationFn(kind="quadrature", pair=pair)


def wda_correlation(p: SystemParams, scales: DerivedScales) -> CorrelationFn:
    """Weak-damping evaluator S0+S1, R0+R1."""
    coeffs = wda_coefficients(p, scales)

    def pair(tau):
        s0, s1, r0, r1 = wda_split(tau, coeffs, scales)
        return s0 + s1, r0 + r1

    return CorrelationFn(kind="wda-split", pair=pair)
