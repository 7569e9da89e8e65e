"""Bath correlation function Q(tau) = S(tau) + i*R(tau), three ways.

* ``quadrature_correlation``: the defining frequency integrals
  S = int_0^inf G/w^2 * coth(beta*w/2) * (1 - cos(w*tau)) dw and
  R = int_0^inf G/w^2 * sin(w*tau) dw, summed exactly over the poles of
  G/w^2 and of coth by ``residue_sums``, each with a stated error bound;
  the oracle for the CSV and the march's validation kernels;
* ``closed_form_correlation``: closed form for the Lorentzian-peaked
  effective bath, or at zero damping, where it is singular, the split's
  undamped limit;
* ``wda_split``: weak-damping split into zeroth- and first-order-in-gamma pieces.

The closed forms neglect Matsubara terms and apply the near-resonance
pole reduction, so the exact sums and the closed form agree only within
a small, temperature-dependent tolerance; that gap is asserted, not hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import AccuracyError, ZeroDampingError
from .expint import EULER_GAMMA, exp_e1, exp_e1_real, exp_ei
from .params import DerivedScales, SystemParams

__all__ = [
    "WdaCoefficients",
    "CorrelationFn",
    "wda_coefficients",
    "wda_split",
    "closed_form_correlation",
    "residue_sums",
    "quadrature_correlation",
]

# absolute error the correlation CSV and the validation march ask of the exact sums
QUADRATURE_ATOL = 1e-8
# rounding allowed each term of the residue sums, in ulps of its size: the
# exponential integrals lie within 16 ulps of their values, or (2|z| + 8) of
# their series' summed terms (tests/test_expint.py), and forming and scaling
# a term adds a few
_RESIDUE_ULPS = 32.0
# a Matsubara term with x = nu_n*tau >= _ASYMPTOTIC_X takes D(x) from its
# asymptotic series, _TAIL_TERMS terms of it, summed over n in closed form
_ASYMPTOTIC_X = 40.0
_TAIL_TERMS = 10
# explicit Matsubara terms per tau at most, and per array at once
_MAX_TERMS = 1 << 16
_CHUNK = 1 << 17


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

    kind: str  # "exact" | "closed-form" | "wda-split"
    pair: Callable

    def S(self, tau):
        return self.pair(tau)[0]

    def R(self, tau):
        return self.pair(tau)[1]


def exp_tables(exponent, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Tables with exp(exponent(k)) = coarse[q] * fine[r] for k = q*B + r < count, up to rounding.

    ``exponent`` is linear in the integer array k, and B = isqrt(count - 1)
    + 1: coarse[q] = exp(exponent(q*B)) and fine[r] = exp(exponent(r)), so
    the outer product of about 2*sqrt(count) exp values holds all count
    of them ("subvector scaling", Van Loan, Computational Frameworks for
    the FFT, SIAM 1992, sec. 1.4).  A sample of that product costs one
    complex multiplication, about 2 ns, where np.exp, np.cos and np.sin
    of a real argument take about 7, 9 and 8 ns each (156,560 samples,
    2 vCPUs).  The closed-form correlation, the kernels' bias factors,
    ``wda.ExpSum`` and the spectrum's twiddles take their grid values
    from these tables.
    """
    block = math.isqrt(count - 1) + 1
    coarse = np.exp(exponent(block * np.arange(-(-count // block))))
    return coarse, np.exp(exponent(np.arange(block)))


def _is_grid(time: np.ndarray) -> bool:
    """Whether ``time`` is the grid t_k = k*h from 0: 1-D, n > 1 samples, equal to time[1] * np.arange(n).

    The one test of the grid that ``exp_tables`` serves; a scalar, a
    ``linspace`` whose samples differ from k*h, or a slice that does not
    start at 0 is not on it.
    """
    return time.ndim == 1 and time.size > 1 and np.array_equal(time, time[1] * np.arange(time.size))


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


def closed_form_correlation(p: SystemParams, scales: DerivedScales) -> CorrelationFn:
    """Closed-form evaluator; the weak-damping split at zero damping.

    S = X*tau + L*(e^{-gb*tau}*cos(Om1*tau) - 1) + Z*e^{-gb*tau}*sin(Om1*tau)
    R = I - e^{-gb*tau}*(N*sin(Om1*tau) + I*cos(Om1*tau))
    N, L and Z carry 1/gammabar.  On the grid tau_k = k*h from 0 (as
    ``_is_grid`` tests it), e^{-gb*tau}*cos(Om1*tau) and
    e^{-gb*tau}*sin(Om1*tau) are the real and imaginary parts of
    e^{z*h*k}, z = -gb + i*Om1, from ``exp_tables`` and one complex outer
    product, with no transcendental per sample; they lie within 2.4e-16
    of the per-sample path on the fig3, fig5 and biased grids.  Any other
    tau takes one exp, cos and sin per sample.  At gammabar = 0 the
    split's first-order coefficients vanish, and S0 + S1, R0 + R1 (kind
    "wda-split") is the undamped limit.
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

    decay = complex(-gb, om1)

    def pair(tau):
        t = np.asarray(tau, dtype=float)
        if _is_grid(t):
            # e^{decay*tau} = e^{-gb*tau} * (cos + i sin)(Om1*tau), one complex product per sample
            rate = decay * t[1]
            wave = np.multiply.outer(*exp_tables(lambda k: rate * k, t.size)).ravel()[: t.size]
            s_val = coef_x * t + coef_l * (wave.real - 1.0) + coef_z * wave.imag
            r_val = coef_i - (coef_n * wave.imag + coef_i * wave.real)
            return s_val, r_val
        envelope = np.exp(-gb * t)
        phase = om1 * t
        cos_p, sin_p = np.cos(phase), np.sin(phase)
        s_val = coef_x * t + coef_l * (envelope * cos_p - 1.0) + coef_z * envelope * sin_p
        r_val = coef_i - envelope * (coef_n * sin_p + coef_i * cos_p)
        return s_val, r_val

    return CorrelationFn(kind="closed-form", pair=pair)




def residue_sums(p: SystemParams, scales: DerivedScales) -> Callable:
    """``sums(tau) -> (S, R, bound)``: the correlation integrals summed over residues, with an error bound.

    f = G/w^2 = 2*A*Om1/[w*(w + Om1)*(w - p)*(w - conj(p))] = sum_q c_q/(w - q),
    q in {0, -Om1, p, conj(p)}, p = Om1 + i*gb, A = 2*varsigma*Omega^2 and
    c_q = 2*A*Om1/prod_{q' != q}(q - q').  With J(q, tau) = int_0^inf
    e^{i*w*tau}/(w - q) dw = e^{i*q*tau}*E1(i*q*tau), plus 2*pi*i*e^{i*q*tau}
    when tau > 0, Re q >= 0 and Im q > 0, minus it when tau < 0, Re q > 0
    and Im q < 0 (E1 on its principal branch):

      R = (pi/2)*c_0 + Im sum_{q != 0} c_q*J(q, tau);
      S = (pi*c_0/beta)*tau + c_1*(ln tau + gamma_E)
          + sum_{q != 0} Re[c_q*coth(beta*q/2)*K(q, tau)] + sum_{n >= 1} M_n(tau),

    from the double and simple poles of f*coth(beta*w/2) at 0 (c_1 =
    (2/beta)*sum_{q != 0} c_q/(-q)), its poles at f's, and the pairs at
    +-i*nu_n, nu_n = 2*pi*n/beta.  K(q, tau) = -ln(-q) - [J(q, tau) +
    J(q, -tau)]/2 omits a ln of the cut-off, which cancels since the
    residues sum to 0.  At +-i*nu_n, J reduces to the real e^x*E1(x) and
    e^-x*Ei(x), x = nu_n*tau, and the pair gives

      M_n = (4/beta)*[Re F_n*(D(x) - ln nu_n) - Im F_n*(pi/2)*(1 - e^{-x})],

    F_n = f(i*nu_n) and D(x) = [e^-x*Ei(x) - e^x*E1(x)]/2.  The terms free
    of tau are summed once, to n = max(4096, 256*(Om1 + |p|)/nu_1), plus
    the integral of their nu^-4 tail past it.  Below x = 40 each M_n is summed
    as it stands; from there D(x) = sum_j (2j-1)!/x^{2j} to 10 terms, and
    the sums over n of Re F_n/nu_n^{2j} are formed once per call, so a tau
    takes about 40/(nu_1*tau) explicit terms, at most 2^16.  Past that cap
    the rest of the terms is bounded, not summed.

    The three e^z*E1(z) at f's poles, z = -i*Om1*tau, i*p*tau and
    -i*p*tau, are one ``exp_e1`` call on the stack of the three, each
    keeping its own stopping rules: a call takes each tau > 0 once, and
    one numpy loop per form of E1 serves all three (up to 2^14 values).

    ``bound`` is the larger of S's and R's error bounds at each tau:
    32 ulps of the summed magnitudes of the terms, with the phases of
    i*p*tau and -i*Om1*tau counted as rounded, plus the truncations.  The
    residues at p and conj(p) grow as A/gb while S and R stay of order A,
    so the bound carries the eps/gb lost to their cancellation.  S(0) = R(0) = 0
    exactly; a tau that is negative or not finite raises ValueError before
    any sum runs.  gamma = 0 raises ZeroDampingError: the poles at p and
    conj(p) meet on the real axis.
    """
    gb = scales.gammabar
    if gb == 0.0:
        raise ZeroDampingError(f"gamma = {p.gamma}: undamped, G(omega) is a line at Omega1, whose correlation"
                               " integrals have no residues to sum; the closed-form evaluator takes gamma = 0")
    om1, beta = scales.Omega1, p.beta
    numerator = 4.0 * scales.varsigma * p.Omega**2 * om1  # 2*A*Om1
    pole = complex(om1, gb)
    c_0 = numerator / (om1 * abs(pole) ** 2)
    c_m = -numerator / (om1 * abs(om1 + pole) ** 2)
    c_p = numerator / (pole * (pole + om1) * 2j * gb)
    c_1 = 2.0 / beta * (c_m / om1 - 2.0 * (c_p / pole).real)
    half_p = 0.5 * beta * pole
    coth_p = 1.0 - 2.0 * np.exp(-2.0 * half_p) / np.expm1(-2.0 * half_p)
    pole_m = c_m * -_coth(0.5 * beta * om1)  # c_q*coth(beta*q/2) at q = -Om1
    pole_p = c_p * coth_p
    log_m, log_p = math.log(om1), complex(np.log(-pole))
    nu_1 = 2.0 * math.pi / beta
    eps = np.finfo(float).eps

    def weights(n):
        """(4/beta)*F_n at the Matsubara indices n."""
        w = 1j * nu_1 * n
        return (4.0 / beta) * numerator / (w * (w + om1) * (w - pole) * (w - pole.conjugate()))

    def far_tail(count: int, power: int) -> float:
        """(4/beta)*2*A*Om1*sum_{n > count} nu_n^{-power}, by the integral from count + 1/2."""
        return (4.0 / beta) * numerator / (nu_1 * (power - 1) * (nu_1 * (count + 0.5)) ** (power - 1))

    # the tau-free terms, to the n where (Om1 + |p|)/nu_n < 1/256, and their tail
    count = max(4096, math.ceil(256.0 * (om1 + abs(pole)) / nu_1))
    n = np.arange(1, count + 1)
    w = weights(n)
    fixed = w.real * -np.log(nu_1 * n) - w.imag * (0.5 * math.pi)
    nu_far = nu_1 * (count + 0.5)
    # Re F ~ 2*A*Om1/nu^4 and Im F ~ -2*A*Om1^2/nu^5: sum of -ln(nu)/nu^4 + (pi/2)*Om1/nu^5
    fixed_far = far_tail(count, 4) * (-math.log(nu_far) - 1.0 / 3.0) + far_tail(count, 5) * 0.5 * math.pi * om1
    constant = float(fixed.sum()) + fixed_far
    # the far tail's next orders: (Om1 + |p|)^2/nu^2 of it, and the midpoint rule's 1/count^2
    constant_size = float(np.abs(fixed).sum()) + abs(fixed_far)
    constant_err = 4.0 * abs(fixed_far) * (((om1 + abs(pole)) / nu_far) ** 2 + 1.0 / count**2)

    def explicit_terms(tau, explicit, w_n):
        """sum_{n <= explicit} M_n(tau) less its tau-free part, and the summed magnitudes of its terms.

        The taus go in chunks of whole taus of at most _CHUNK terms (or one
        tau).  e^-x*Ei(x) from its series carries (2x + 8) ulps of its
        value, past _RESIDUE_ULPS once x > 12, and its magnitude is counted so.
        """
        value, size = np.zeros(tau.shape), np.zeros(tau.shape)
        ends = np.cumsum(explicit)
        start = 0
        while start < tau.size:
            done = ends[start - 1] if start else 0
            stop = max(int(np.searchsorted(ends, done + _CHUNK, side="right")), start + 1)
            counts = explicit[start:stop]
            if counts.any():
                owner = np.repeat(np.arange(stop - start), counts)
                index = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
                x = nu_1 * (index + 1) * tau[start:stop][owner]
                ei, e1 = exp_ei(x), exp_e1_real(x)
                chosen = w_n[index]
                decay = (0.5 * math.pi) * np.exp(-x)
                terms = chosen.real * (0.5 * (ei - e1)) + chosen.imag * decay
                ei_size = np.abs(ei) * np.maximum(1.0, (2.0 * x + 8.0) / _RESIDUE_ULPS)
                sizes = np.abs(chosen.real) * (0.5 * (ei_size + np.abs(e1))) + np.abs(chosen.imag) * decay
                value[start:stop] = np.bincount(owner, terms, stop - start)
                size[start:stop] = np.bincount(owner, sizes, stop - start)
            start = stop
        return value, size

    def asymptotic_tail(tau, explicit, w_n):
        """sum_{n > explicit} M_n(tau) less its tau-free part, and a bound on its error.

        From x = _ASYMPTOTIC_X, D(x) ~ sum_j (2j-1)!/x^{2j}, and twice the first
        omitted term bounds the rest while j < x; summed over n through
        T_j(m) = sum_{n > m} (4/beta)*Re F_n/nu_n^{2j}, as suffix sums over
        the n of ``w_n`` and past them the integral of the nu^-4 tail, whose
        next orders are (Om1 + |p|)^2/nu^2 of it and the midpoint rule's
        1/n^2.  The e^-x terms past m are at most the largest |Im F_n| times
        a geometric series.  A tau whose explicit terms hit the cap short of
        _ASYMPTOTIC_X takes no tail: |D(x)| <= gamma_E + 1 + |ln x| and
        |Re F_n| + (pi/2)*|Im F_n| <= 2.6*|F_n| <= 5.2*(4/beta)*2*A*Om1/nu_n^4
        (so long as nu_n > 2*|p|) bound it, summed as the integral from the cap.
        """
        last = w_n.size
        x_next = nu_1 * (explicit + 1) * tau
        err = 5.2 * far_tail(_MAX_TERMS, 4) * (EULER_GAMMA + 1.0 + np.abs(np.log(x_next)))
        tail = np.zeros(tau.shape)
        reached = x_next >= _ASYMPTOTIC_X
        m, t = explicit[reached], tau[reached]
        nu = nu_1 * np.arange(1, last + 1)
        far_rel = 4.0 * (((om1 + abs(pole)) / (nu_1 * last)) ** 2 + 1.0 / last**2)
        part, far_err = np.zeros(t.shape), np.zeros(t.shape)
        inv_sq = 1.0 / (t * t)
        scale = np.ones(t.shape)  # (2j-1)!/tau^{2j}
        for j in range(1, _TAIL_TERMS + 2):
            scale = scale * inv_sq * ((2 * j - 1) * (2 * j - 2) if j > 1 else 1.0)
            suffix = np.append(np.cumsum((w_n.real * nu ** (-2.0 * j))[::-1])[::-1], 0.0)
            far = far_tail(last, 4 + 2 * j)
            term = scale * (suffix[m] + far)
            if j <= _TAIL_TERMS:
                part += term
                far_err += scale * (far * far_rel)
        im_top = np.append(np.maximum.accumulate(np.abs(w_n.imag)[::-1])[::-1], 0.0)
        exp_err = im_top[m] * (0.5 * math.pi) * np.exp(-x_next[reached]) / -np.expm1(-nu_1 * t)
        tail[reached] = part
        err[reached] = 2.0 * np.abs(term) + far_err + exp_err
        return tail, err

    def matsubara(tau):
        """sum_n M_n(tau) less its tau-free part, the summed magnitudes of its terms, and its truncation bound.

        A tau takes the n with x = nu_n*tau < _ASYMPTOTIC_X one by one, at
        most _MAX_TERMS of them, and the rest from D's asymptotic series.
        """
        explicit = np.clip(np.ceil(_ASYMPTOTIC_X / (nu_1 * tau)) - 1.0, 0.0, _MAX_TERMS).astype(np.int64)
        last = int(explicit.max()) + 1024
        w_n = w[:last] if w.size >= last else weights(np.arange(1, last + 1))
        value, size = explicit_terms(tau, explicit, w_n)
        tail, err = asymptotic_tail(tau, explicit, w_n)
        return value + tail, size + np.abs(tail), err

    def sums(tau):
        t = np.asarray(tau, dtype=float)
        if not np.all(np.isfinite(t) & (t >= 0.0)):
            raise ValueError(f"tau must be finite and >= 0, got {t[~(np.isfinite(t) & (t >= 0.0))].ravel()[0]!r}")
        s_val, r_val, bound = np.zeros(t.shape), np.zeros(t.shape), np.zeros(t.shape)
        live = t > 0.0
        if not live.any():
            return s_val, r_val, bound
        tau = t[live]
        z_m = -1j * om1 * tau
        z_p = 1j * pole * tau
        e_m, e_plus, e_minus = exp_e1(np.stack([z_m, z_p, -z_p]))
        wave = 2j * math.pi * np.exp(z_p)
        # J(-Om1, +-tau) = e_m and its conjugate; J(p, tau) = e_plus + wave, J(p, -tau) =
        # e_minus; J(conj p, -+tau) are the conjugates of J(p, +-tau)
        r_part = 0.5 * math.pi * c_0 + c_m * e_m.imag + (c_p * (e_plus + wave - e_minus)).imag
        k_m = -log_m - e_m.real
        k_p = -log_p - 0.5 * (e_plus + wave + e_minus)
        log_tau = np.log(tau)
        v_val, v_size, v_err = matsubara(tau)
        s_part = ((math.pi * c_0 / beta) * tau + c_1 * (log_tau + EULER_GAMMA) + pole_m * k_m
                  + 2.0 * (pole_p * k_p).real + constant + v_val)
        # magnitudes: e^z*E1(z) moves by (|z*e^z*E1(z)| + 1)*eps as z rounds, the wave by
        # |z|*eps, and (1 + |z|)*32 ulps covers the (2|z| + 8) of E1's series too
        size_m = (1.0 + np.abs(z_m)) * np.abs(e_m) + 1.0
        size_p = (1.0 + np.abs(z_p)) * (np.abs(e_plus) + np.abs(wave) + np.abs(e_minus)) + 2.0
        r_size = 0.5 * math.pi * c_0 + abs(c_m) * size_m + abs(c_p) * size_p
        s_size = ((math.pi * c_0 / beta) * tau + abs(c_1) * (np.abs(log_tau) + EULER_GAMMA)
                  + abs(pole_m) * (abs(log_m) + size_m) + 2.0 * abs(pole_p) * (abs(log_p) + size_p)
                  + constant_size + v_size)
        s_val[live], r_val[live] = s_part, r_part
        bound[live] = _RESIDUE_ULPS * eps * np.maximum(s_size, r_size) + constant_err + v_err
        return s_val, r_val, bound

    return sums


def quadrature_correlation(
    p: SystemParams, scales: DerivedScales, atol: float = QUADRATURE_ATOL
) -> CorrelationFn:
    """Exact evaluator of the correlation integrals for these params, by ``residue_sums``.

    S and R come out of one call, in the shape of tau.  It fills the
    correlation CSV and the march's validation kernels.  ``atol`` is a
    bound the sums must meet, not a target: they are always computed to
    their own accuracy, and a tau whose stated error bound exceeds
    ``atol`` raises AccuracyError with the largest bound.  gamma = 0
    raises ZeroDampingError.
    """
    sums = residue_sums(p, scales)

    def pair(tau):
        s_val, r_val, bound = sums(tau)
        worst = float(bound.max(initial=0.0))
        if worst > atol:
            at = float(np.asarray(tau, dtype=float).ravel()[np.argmax(bound.ravel())])
            raise AccuracyError(f"correlation residues at tau = {at:g} carry an error bound of {worst:.3e}"
                                f" > atol {atol:.3e}", achieved=worst)
        return s_val, r_val

    return CorrelationFn(kind="exact", pair=pair)
