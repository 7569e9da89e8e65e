"""Exponential integrals in numpy: e^z*E1(z) for complex z, e^x*E1(x) and e^-x*Ei(x) for x > 0.

The correlation's residues reduce to these three (Abramowitz & Stegun,
Handbook of Mathematical Functions, sec. 5.1).  Each is evaluated in the
region where its form loses nothing to cancellation:

* the power series E1(z) = -gamma - Log z - sum_k (-z)^k/(k*k!)
  (A&S 5.1.11) and Ei(x) = gamma + ln x + sum_k x^k/(k*k!) (5.1.10),
  summed until a term drops below eps/4 of the sum.  The largest term of
  E1's series is about e^{|z|}/|z| against |E1(z)| ~ e^{-Re z}/|z|, so
  it runs only where |z| + Re z <= 2 and |z| < 40, a loss of at most e^2
  in the sum; Ei's terms are all positive, and it runs below x = 40;
* the continued fraction e^z*E1(z) = 1/(z+1- 1/(z+3- 4/(z+5- ...)))
  (A&S 5.1.22, in its even form), evaluated backwards from a fixed depth
  that converges it to eps on its band of |z|; it converges for every z
  off the cut, slowly close to it, so near the negative axis it serves
  only where the series no longer does;
* the asymptotic series e^z*E1(z) ~ sum_k (-1)^k k!/z^{k+1} (A&S 5.1.51)
  and e^-x*Ei(x) ~ sum_k k!/x^{k+1} for |z|, x >= 40, summed until a term
  drops below eps/2 of the sum, which happens before k = 40 there.  Its
  remainder is at most the first omitted term, times csc|arg z| past the
  imaginary axis (NIST DLMF 6.12.1-6.12.3).

E1 is on its principal branch, cut along the negative real axis; a z on
the cut takes the side of the sign of its imaginary zero, as ``np.log``
does.
"""

from __future__ import annotations

import numpy as np

__all__ = ["exp_e1", "exp_e1_real", "exp_ei"]

EULER_GAMMA = 0.5772156649015329
_EPS4 = 0.25 * np.finfo(float).eps
_ASYMPTOTIC = 40.0  # |z| or x from which the asymptotic series take over
# (upper |z|, depth): the continued fraction's depth on each band of |z|, the
# least at which it met its value at depth 4000 within eps/2 at each of about
# 80,000 points of the band's part of the closed upper half-plane (its conjugate is
# the same), rounded up to a multiple of 5; the real bands on x > 1 alone
_CF_DEPTHS = ((2.0, 170), (4.0, 150), (8.0, 120), (16.0, 90), (24.0, 65), (_ASYMPTOTIC, 40))
_CF_DEPTHS_REAL = ((2.0, 115), (4.0, 60), (8.0, 35), (16.0, 20), (np.inf, 12))
_EI_BANDS = tuple((upper, None) for upper in (2.0, 6.0, 12.0, 20.0, 30.0, _ASYMPTOTIC))


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
    """sum_k sign^k k!/z^{k+1} until a term drops below eps/2 of the sum.

    From |z| = 40 the smallest term is sqrt(2*pi/|z|)*e^{-|z|} <= 0.6*eps/2
    of the sum, reached near k = |z|, so the loop ends before then.
    """
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


def exp_e1(z):
    """e^z*E1(z) for complex z != 0, principal branch, elementwise, in the shape of z."""
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
        out[rest] = _by_bands(flat[rest], _CF_DEPTHS, _continued_fraction)
    return out.reshape(z.shape)


def exp_e1_real(x):
    """e^x*E1(x) for real x > 0, elementwise: the series to x = 1, the continued fraction past it."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat <= 1.0
    if series.any():
        w = flat[series]
        out[series] = np.exp(w) * (-EULER_GAMMA - np.log(w) - _power_sum(-w))
    rest = ~series
    if rest.any():
        out[rest] = _by_bands(flat[rest], _CF_DEPTHS_REAL, _continued_fraction)
    return out.reshape(x.shape)


def exp_ei(x):
    """e^-x*Ei(x) for real x > 0, elementwise: the series below x = 40, the asymptotic series from it."""
    x = np.asarray(x, dtype=float)
    flat = x.ravel()
    out = np.empty_like(flat)
    series = flat < _ASYMPTOTIC
    if series.any():
        # the series runs to k ~ x + 8*sqrt(x): each band of x stops at its own length
        out[series] = _by_bands(flat[series], _EI_BANDS, _ei_series)
    far = ~series
    if far.any():
        out[far] = _asymptotic(flat[far], 1.0)
    return out.reshape(x.shape)
