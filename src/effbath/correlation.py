"""Bath correlation function Q(tau) = S(tau) + i*R(tau), three ways.

* ``quadrature_correlation``: adaptive quadrature of the defining
  frequency integral (oracle), one ``correlation_quadrature`` per tau;
* ``closed_form_correlation``: closed form for the Lorentzian-peaked
  effective bath, or at zero damping, where it is singular, the split's
  undamped limit;
* ``wda_split``: weak-damping split into zeroth- and first-order-in-gamma pieces.

The closed forms neglect Matsubara terms and apply the near-resonance
pole reduction, so quadrature and closed form agree only within a small,
temperature-dependent tolerance; that gap is asserted, not hidden.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import QuadratureNonConvergence, ZeroDampingError
from .params import DerivedScales, SystemParams
from .spectral import geff_function

__all__ = [
    "WdaCoefficients",
    "CorrelationFn",
    "wda_coefficients",
    "wda_split",
    "correlation_quadrature",
    "closed_form_correlation",
    "quadrature_correlation",
]


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
    QuadratureNonConvergence with the achieved error estimate, and
    QUADPACK's own messages, when the combined estimate exceeds ``atol``;
    within ``atol`` QUADPACK's warnings are issued again after the
    integrals.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    if tau == 0.0:
        return 0.0, 0.0
    from scipy.integrate import IntegrationWarning, quad  # here, so the package imports without scipy

    # each node runs one integrand frame around G: G/w^2, coth(beta*w/2) and
    # cos/sin(w*tau) inline, in the order of f = G/w^2, f*coth, f*coth*(1 - cos)
    half_beta = 0.5 * beta
    cos, sin, expm1 = math.cos, math.sin, math.expm1

    def f(w):
        return geff_fn(w) / w**2

    def f_coth(w):
        x = half_beta * w
        return geff_fn(w) / w**2 * (1.0 if x > 350.0 else 1.0 + 2.0 / expm1(2.0 * x))

    def s_integrand(w):
        x = half_beta * w
        return geff_fn(w) / w**2 * (1.0 if x > 350.0 else 1.0 + 2.0 / expm1(2.0 * x)) * (1.0 - cos(w * tau))

    def r_integrand(w):
        return geff_fn(w) / w**2 * sin(w * tau)

    # knots: stay below one oscillation period before splitting off cos/sin;
    # the [0, a0] pieces use plain quadrature (interior nodes only) because
    # f itself is 1/w-singular at the origin even though the integrands are
    # finite there
    period = 2.0 * math.pi / tau
    a0 = min(period, omega_max)
    if peak is not None:
        width = 5.0 * (peak_width if peak_width is not None else 0.1 * peak)
        a0 = min(a0, max(peak - width, 0.25 * peak))
        knots = [x for x in (peak - width, peak + width) if a0 < x < omega_max]
    else:
        knots = []
    edges = [a0] + knots + [omega_max]

    eps = atol / (4 + 3 * len(edges))
    # the evaluator's G carries a memo of the smooth pieces int_lo^hi f*coth;
    # QUADPACK is deterministic, so a hit returns the bits that integrating
    # the piece again would.  A piece that warned is not kept: integrated
    # again for each tau, it gives the same bits and the same warnings.  A
    # piece from 2*pi/tau serves this tau alone and is not kept either
    memo = getattr(geff_fn, "smooth_pieces", {})

    def piece(fn, a, b, **weight):
        return quad(fn, a, b, epsabs=eps, epsrel=1e-10, limit=400, **weight)

    # QUADPACK's warnings are caught once per tau, not per node or per piece
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", IntegrationWarning)
        s_val, total_err = piece(s_integrand, 0.0, a0)
        for lo, hi in zip(edges[:-1], edges[1:]):
            key = (beta, lo, hi, eps)
            if key in memo:
                smooth, err1 = memo[key]
            else:
                start = len(caught)
                smooth, err1 = piece(f_coth, lo, hi)
                if lo != period and len(caught) == start:
                    memo[key] = (smooth, err1)
            osc, err2 = piece(f_coth, lo, hi, weight="cos", wvar=tau)
            s_val += smooth - osc
            total_err += err1 + err2

        r_val, err = piece(r_integrand, 0.0, a0)
        total_err += err
        for lo, hi in zip(edges[:-1], edges[1:]):
            value, err = piece(f, lo, hi, weight="sin", wvar=tau)
            r_val += value
            total_err += err

    if total_err > atol:
        quadpack = dict.fromkeys(" ".join(str(w.message).split()) for w in caught
                                 if issubclass(w.category, IntegrationWarning))
        raise QuadratureNonConvergence(
            f"correlation quadrature at tau = {tau:g} reached abs error {total_err:.3e} > atol {atol:.3e}"
            + "".join(f"; QUADPACK: {text}" for text in quadpack),
            achieved=total_err,
        )
    for w in caught:
        warnings.warn(w.message, stacklevel=2)
    return s_val, r_val


def closed_form_correlation(p: SystemParams, scales: DerivedScales) -> CorrelationFn:
    """Closed-form evaluator; the weak-damping split at zero damping.

    S = X*tau + L*(e^{-gb*tau}*cos(Om1*tau) - 1) + Z*e^{-gb*tau}*sin(Om1*tau)
    R = I - e^{-gb*tau}*(N*sin(Om1*tau) + I*cos(Om1*tau))
    N, L and Z carry 1/gammabar.  At gammabar = 0 the split's first-order
    coefficients vanish, and S0 + S1, R0 + R1 (kind "wda-split") is the
    undamped limit.
    """
    gb = scales.gammabar
    om1 = scales.Omega1
    if gb == 0.0:
        coeffs = wda_coefficients(p, scales)

        def split_pair(tau):
            s0, s1, r0, r1 = wda_split(tau, coeffs, scales)
            return s0 + s1, r0 + r1

        return CorrelationFn(kind="wda-split", pair=split_pair)

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

    def pair(tau):
        t = np.asarray(tau, dtype=float)
        envelope = np.exp(-gb * t)
        phase = om1 * t
        cos_p, sin_p = np.cos(phase), np.sin(phase)
        s_val = coef_x * t + coef_l * (envelope * cos_p - 1.0) + coef_z * envelope * sin_p
        r_val = coef_i - envelope * (coef_n * sin_p + coef_i * cos_p)
        return s_val, r_val

    return CorrelationFn(kind="closed-form", pair=pair)


def quadrature_correlation(p: SystemParams, scales: DerivedScales, atol: float = 1e-8) -> CorrelationFn:
    """Quadrature evaluator of the correlation integrals for these params.

    Each tau is integrated once; S and R come out of the same call, in the
    shape of tau.  The smooth pieces int G/w^2*coth(beta*w/2) between the
    knots do not depend on tau: each that QUADPACK integrates without a
    warning is integrated once per evaluator and reused, with the same
    bits, by every later tau with the same knots.
    gamma = 0, where G(omega) is a line, raises ZeroDampingError.
    """
    if scales.gammabar == 0.0:
        raise ZeroDampingError(f"gamma = {p.gamma}: undamped, G(omega) is a line at Omega1, which no quadrature"
                               " resolves; the closed-form evaluator takes gamma = 0")

    # G's constants are bound once, and G is called once per node from inside
    # the integrand; the memo it carries holds the smooth pieces.  Each tau
    # looks correlation_quadrature up in this module, so perfbench's tracer
    # counts every tau
    geff_fn = geff_function(p, scales)
    geff_fn.smooth_pieces = {}

    def one(tau):
        return correlation_quadrature(tau, geff_fn, p.beta, atol=atol, peak=scales.Omega1,
                                      peak_width=scales.gammabar)

    def pair(tau):
        arr = np.asarray(tau, dtype=float)
        if arr.ndim == 0:
            return one(float(arr))
        values = np.array([one(float(t)) for t in arr.ravel()], dtype=float).reshape(-1, 2)
        return values[:, 0].reshape(arr.shape), values[:, 1].reshape(arr.shape)

    return CorrelationFn(kind="quadrature", pair=pair)
