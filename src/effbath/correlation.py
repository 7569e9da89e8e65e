"""Bath correlation function Q(tau) = S(tau) + i*R(tau), three ways.

* ``quadrature_correlation``: adaptive quadrature of the defining
  frequency integral (oracle), one ``correlation_quadrature`` per tau,
  with G(w)/w^2 computed once per node of its tau-independent pieces;
  ``interpolated_correlation`` integrates only at Chebyshev nodes and
  interpolates the smooth quadrature-minus-closed-form difference, for
  the march's kernels;
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
import weakref
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
    "interpolated_correlation",
]

# Chebyshev-Lobatto node count of the first interpolant; each next one
# doubles the intervals (17, 33, 65, ...) and keeps every earlier node
_FIRST_NODES = 9
# absolute tolerance of each quadrature and of the Chebyshev fit's tail
QUADRATURE_ATOL = 1e-8


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


class _OverSquare(dict):
    """f = G(w)/w^2 by node w, computed on the first request."""

    __slots__ = ("geff",)

    def __init__(self, geff):
        self.geff = geff

    def __missing__(self, w):
        value = self[w] = self.geff(w) / w**2
        return value


class _TimesCoth(dict):
    """f*coth(beta*w/2) by node w, computed from the f table on the first request."""

    __slots__ = ("f", "half_beta")

    def __init__(self, f, half_beta):
        self.f = f
        self.half_beta = half_beta

    def __missing__(self, w):
        value = self[w] = self.f[w] * _coth(self.half_beta * w)
        return value


def _node_tables(geff, half_beta):
    """Empty tables of f = G/w^2 and of f*coth(beta*w/2), the second filled from the first."""
    f = _OverSquare(geff)
    return f, _TimesCoth(f, half_beta)


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

    ``geff_fn`` must be Ohmic-like (G(w)/w^2 finite*1/w as w -> 0).  The
    oscillatory factors are handled with Clenshaw-Curtis weighted
    quadrature; the integration range is split at the spectral peak (when
    given) and at w = 2*pi/tau.  ``tau`` must be finite and >= 0; anything
    else raises ValueError before any integral runs.  Raises
    QuadratureNonConvergence with the achieved error estimate, and
    QUADPACK's own messages, when the combined estimate exceeds ``atol``;
    within ``atol`` QUADPACK's warnings are issued again after the
    integrals.  A ``geff_fn`` that carries a ``node_values`` dict, as the
    evaluator's G does, keeps there by beta its values at the nodes of the
    pieces whose ends do not depend on tau; any other gets them for this
    call alone.
    """
    if not (math.isfinite(tau) and tau >= 0.0):
        raise ValueError(f"tau must be finite and >= 0, got {tau!r}")
    if tau == 0.0:
        return 0.0, 0.0
    from scipy.integrate import IntegrationWarning, quad  # here, so the package imports without scipy

    # QUADPACK reads f = G/w^2 and f*coth(beta*w/2) from tables that compute a
    # node on its first request and look it up, in C, on every later one.  A
    # piece whose ends do not depend on tau reads the tables the evaluator's G
    # carries, which hold G weakly; a piece from or to 2*pi/tau reads this
    # tau's own.  A G that carries none gets tables for this call
    half_beta = 0.5 * beta
    own = _node_tables(geff_fn, half_beta)
    by_beta = getattr(geff_fn, "node_values", None)
    if by_beta is None:
        shared = own
    else:
        shared = by_beta.get(beta)
        if shared is None:
            shared = by_beta[beta] = _node_tables(weakref.proxy(geff_fn), half_beta)
    cos, sin = math.cos, math.sin

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

    # [0, a0] ends where the first piece past it starts, at 2*pi/tau or not
    f_0, f_coth_0 = own if a0 == period else shared

    def s_integrand(w):
        return f_coth_0[w] * (1.0 - cos(w * tau))

    def r_integrand(w):
        return f_0[w] * sin(w * tau)

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
            f_coth = (own if lo == period else shared)[1].__getitem__
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
            f = (own if lo == period else shared)[0].__getitem__
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


def quadrature_correlation(
    p: SystemParams, scales: DerivedScales, atol: float = QUADRATURE_ATOL
) -> CorrelationFn:
    """Quadrature evaluator of the correlation integrals for these params.

    Each tau is integrated once; S and R come out of the same call, in the
    shape of tau.  It fills the correlation CSV; the march's kernels come
    from ``interpolated_correlation``, which calls it at Chebyshev nodes.
    The smooth pieces int G/w^2*coth(beta*w/2) between the knots do not
    depend on tau: each that QUADPACK integrates without a warning is
    integrated once per evaluator and reused, with the same bits, by every
    later tau with the same knots.  Nor do the nodes QUADPACK places on
    pieces whose ends do not depend on tau: G(w)/w^2 and its product with
    coth(beta*w/2) are computed once per node and evaluator and looked up
    by every later piece and tau, again with the same bits.  Nodes of the
    pieces from or to 2*pi/tau are kept for that tau alone, so the
    evaluator's tables stop growing after a few thousand nodes.
    gamma = 0, where G(omega) is a line, raises ZeroDampingError.
    """
    if scales.gammabar == 0.0:
        raise ZeroDampingError(f"gamma = {p.gamma}: undamped, G(omega) is a line at Omega1, which no quadrature"
                               " resolves; the closed-form evaluator takes gamma = 0")

    # G's constants are bound once; G carries the memo of the smooth pieces
    # and the tables of its values at the nodes, so it is called once per
    # node this evaluator's tau-independent pieces ask for.  Each tau looks
    # correlation_quadrature up in this module, so perfbench's tracer counts
    # every tau
    geff_fn = geff_function(p, scales)
    geff_fn.smooth_pieces = {}
    geff_fn.node_values = {}

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


def _chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through each row's values at cos(pi*j/n), j = 0..n.

    One DCT-I per row, taken as the real FFT of the even extension.
    """
    n = values.shape[1] - 1
    extended = np.concatenate([values, values[:, n - 1 : 0 : -1]], axis=1)
    coeffs = np.fft.rfft(extended, axis=1).real / n
    coeffs[:, [0, n]] /= 2.0
    return coeffs


def _clenshaw(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Each row of ``coeffs`` summed as a Chebyshev series at x in [-1, 1], by Clenshaw's recurrence."""
    two_x = 2.0 * x
    b1 = b2 = np.zeros((coeffs.shape[0], x.shape[0]))
    for c in coeffs[:, :0:-1].T:
        b1, b2 = c[:, None] + two_x * b1 - b2, b1
    return coeffs[:, :1] + x * b1 - b2


def interpolated_correlation(p: SystemParams, scales: DerivedScales) -> CorrelationFn:
    """Quadrature evaluator for many tau: integrals at Chebyshev nodes only.

    S and R come from the closed form plus the difference quadrature minus
    closed form, which is smooth in tau (it holds the dropped Matsubara
    terms and the pole reduction).  ``correlation_quadrature`` runs at the
    nested Chebyshev-Lobatto nodes of [0, max tau], 9, 17, 33, ... of them,
    each count keeping the nodes of the last; the differences there are
    fitted by a DCT-I and summed at every tau by Clenshaw's recurrence
    (Trefethen, Approximation Theory and Approximation Practice, SIAM
    2013).  The fit stops once the largest of the last three coefficients
    of both differences is at most ``QUADRATURE_ATOL``, the tolerance of
    each integral.  When the next node count would not be below the
    number of tau, or a tau is negative or not finite, each tau is
    integrated once as ``quadrature_correlation`` does; after a fit the
    tail rule rejected, that costs the node integrals on top and issues a
    RuntimeWarning.  Kind "quadrature-chebyshev"; gamma = 0 raises
    ZeroDampingError.
    """
    quad = quadrature_correlation(p, scales)
    closed = closed_form_correlation(p, scales)

    def pair(tau):
        arr = np.asarray(tau, dtype=float)
        flat = arr.ravel()
        count = _FIRST_NODES
        if count < flat.size and 0.0 <= flat.min() and 0.0 < flat.max() < math.inf:
            span = flat.max()
            diffs = None
            while count < flat.size:
                nodes = 0.5 * span * (1.0 + np.cos(np.pi * np.arange(count) / (count - 1)))
                fresh = nodes if diffs is None else nodes[1::2]
                new = np.subtract(quad.pair(fresh), closed.pair(fresh))
                diffs = new if diffs is None else np.insert(diffs, np.arange(1, diffs.shape[1]), new, axis=1)
                coeffs = _chebyshev_coefficients(diffs)
                if np.abs(coeffs[:, -3:]).max() <= QUADRATURE_ATOL:
                    s_val, r_val = np.add(closed.pair(flat), _clenshaw(coeffs, 2.0 * flat / span - 1.0))
                    return s_val.reshape(arr.shape), r_val.reshape(arr.shape)
                count = 2 * count - 1
            warnings.warn(f"no Chebyshev fit of up to {diffs.shape[1]} nodes met the tail rule; integrating"
                          f" each of the {flat.size} tau", RuntimeWarning, stacklevel=2)
        return quad.pair(arr)

    return CorrelationFn(kind="quadrature-chebyshev", pair=pair)
