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

Each form runs as one numpy loop over all the values it takes, so a call
costs about as many numpy steps as its longest form needs, whatever the
number of values:

* the continued fraction's values go deepest band first, each joining
  the backward recurrence at its band's depth: the deepest band's depth
  in steps (at most 170 on the complex bands, 115 on the real ones), not
  the sum of the bands' depths (635 and 242);
* a series stops by runs: the values of one call, and in Ei's series
  those of one band of x (its length grows as x + 8*sqrt(x)).  Each run
  stops at the first term that is small at all its values and leaves the
  loop; the others go on, so the loop takes as many terms as its longest
  run.

So each value takes the same operations, and gets the same bits, as when
its run is summed alone.  An array of two or more dimensions is a stack
of calls: each z[i] keeps its own runs, and the result is bit for bit
the stack of the calls on each z[i].  A call of more than 2^14 values
splits into batches of whole runs, each its own loop, so that a loop's
arrays stay in cache.

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
# the upper |z| of each band and the continued fraction's depth on it, the
# least at which it met its value at depth 4000 within eps/2 at each of about
# 80,000 points of the band's part of the closed upper half-plane (its conjugate is
# the same), rounded up to a multiple of 5; the real bands on x > 1 alone
_CF_UPPERS, _CF_DEPTHS = (2.0, 4.0, 8.0, 16.0, 24.0, _ASYMPTOTIC), (170, 150, 120, 90, 65, 40)
_CF_UPPERS_REAL, _CF_DEPTHS_REAL = (2.0, 4.0, 8.0, 16.0, np.inf), (115, 60, 35, 20, 12)
# the upper x of each band of Ei's series, each with its own stopping rule
_EI_BANDS = (2.0, 6.0, 12.0, 20.0, 30.0, _ASYMPTOTIC)
_BATCH = 1 << 14  # values per loop at most, unless one run holds more


def _batches(size, chosen, rows: int, uppers=(np.inf,)):
    """The values where ``chosen`` holds in runs, band by band of ``size`` and row by row within each, yielded in batches.

    A band is (previous upper, upper]; the last takes everything past the
    one before it.  Each band's positions are in flat order, so the rows of
    a stack follow one another in it.  A batch is the positions of
    consecutive runs, at most _BATCH of them or a single run, the length of
    each of those runs (0 for an empty one) and their slice of the runs: a
    loop over a batch keeps its arrays in cache, where past that size memory
    traffic, not numpy's per-call cost, would set the time.
    """
    positions = np.flatnonzero(chosen)
    key = positions // (size.size // rows) if rows > 1 else np.zeros(positions.size, dtype=np.int8)
    if len(uppers) > 1:
        part = size[positions]
        band = np.add.reduce([part > upper for upper in uppers[:-1]], dtype=np.int8)
        key = band * rows + key
        positions = positions[np.concatenate([np.flatnonzero(band == b) for b in range(len(uppers))])]
    lengths = np.bincount(key, minlength=len(uppers) * rows)
    ends = np.cumsum(lengths)
    first = 0
    while first < lengths.size:
        start = int(ends[first] - lengths[first])
        last = max(int(np.searchsorted(ends, start + _BATCH, side="right")), first + 1)
        if ends[last - 1] > start:
            yield positions[start:ends[last - 1]], lengths[first:last], slice(first, last)
        first = last


def _continued_fraction(z, lengths, depths):
    """e^z*E1(z) by the even continued fraction, evaluated backwards: the first lengths[0] values from depths[0], the next lengths[1] from depths[1], and so on down the non-increasing depths."""
    tail = np.zeros_like(z)
    live = np.cumsum(lengths)  # the values whose depth is at least depths[b]
    for b, depth in enumerate(depths):
        if live[b]:
            head, part = z[: live[b]], tail[: live[b]]
            for k in range(depth, depths[b + 1] if b + 1 < len(depths) else 0, -1):
                part[:] = k * k / (head + (2 * k + 1) - part)
    return 1.0 / (z + 1.0 - tail)


def _series(z, lengths, sign: float = 0.0):
    """A series at z, run by run of ``lengths``: each run stops at the first term that is small at all its values.

    sign 0: sum_{k>=1} z^k/(k*k!), until a term drops below eps/4 of the
    sum.  sign +-1: the asymptotic sum_k sign^k k!/z^{k+1}, until a term
    drops below eps/2 of the sum; from |z| = 40 its smallest term is
    sqrt(2*pi/|z|)*e^{-|z|} <= 0.6*eps/2 of the sum, reached near k = |z|,
    so each run stops before then.  A run that stops leaves the loop.
    """
    lengths = lengths[lengths > 0]
    out = np.empty_like(z)
    where = np.arange(z.size)
    if sign:
        factor = 1.0 / z
        term, total, k, tol = factor, factor.copy(), 0, 2.0 * _EPS4
    else:
        factor = z
        term, total, k, tol = z.copy(), z.copy(), 1, _EPS4
    starts = np.cumsum(lengths) - lengths
    while where.size:
        k += 1
        if sign:
            term = term * (sign * k) * factor
            add = term
        else:
            term = term * factor / k
            add = term / k
        total = total + add
        done = ~np.logical_or.reduceat(np.abs(add) > tol * np.abs(total), starts)  # a nan ends its run
        if done.any():
            finished = np.repeat(done, lengths)
            out[where[finished]] = total[finished]
            kept = ~finished
            where, factor, term, total = where[kept], factor[kept], term[kept], total[kept]
            lengths = lengths[~done]
            starts = np.cumsum(lengths) - lengths
    return out


def _stack(values, dtype):
    """``values`` as an array of ``dtype``, flattened, and the number of calls it stacks."""
    values = np.asarray(values, dtype=dtype)
    return values, values.ravel(), values.shape[0] if values.ndim > 1 and values.size else 1


def exp_e1(z):
    """e^z*E1(z) for complex z != 0, principal branch, elementwise, in the shape of z; each z[i] of a stack is its own call."""
    z, flat, rows = _stack(z, complex)
    out = np.empty_like(flat)
    size = np.abs(flat)
    far = size >= _ASYMPTOTIC
    series = ~far & (size + flat.real <= 2.0)
    for at, lengths, _ in _batches(size, series, rows):
        w = flat[at]
        out[at] = np.exp(w) * (-EULER_GAMMA - np.log(w) - _series(-w, lengths))
    for at, lengths, _ in _batches(size, far, rows):
        out[at] = _series(flat[at], lengths, -1.0)
    for at, lengths, bands in _batches(size, ~series & ~far, 1, _CF_UPPERS):
        out[at] = _continued_fraction(flat[at], lengths, _CF_DEPTHS[bands])
    return out.reshape(z.shape)


def exp_e1_real(x):
    """e^x*E1(x) for real x > 0, elementwise: the series to x = 1, the continued fraction past it; each x[i] of a stack is its own call."""
    x, flat, rows = _stack(x, float)
    out = np.empty_like(flat)
    size = np.abs(flat)
    series = flat <= 1.0
    for at, lengths, _ in _batches(size, series, rows):
        w = flat[at]
        out[at] = np.exp(w) * (-EULER_GAMMA - np.log(w) - _series(-w, lengths))
    for at, lengths, bands in _batches(size, ~series, 1, _CF_UPPERS_REAL):
        out[at] = _continued_fraction(flat[at], lengths, _CF_DEPTHS_REAL[bands])
    return out.reshape(x.shape)


def exp_ei(x):
    """e^-x*Ei(x) for real x > 0, elementwise: the series below x = 40, the asymptotic series from it; each x[i] of a stack is its own call."""
    x, flat, rows = _stack(x, float)
    out = np.empty_like(flat)
    size = np.abs(flat)
    series = flat < _ASYMPTOTIC
    # the series runs to k ~ x + 8*sqrt(x): each band of x stops at its own length
    for at, lengths, _ in _batches(size, series, rows, _EI_BANDS):
        w = flat[at]
        out[at] = np.exp(-w) * (EULER_GAMMA + np.log(w) + _series(w, lengths))
    for at, lengths, _ in _batches(size, ~series, rows):
        out[at] = _series(flat[at], lengths, 1.0)
    return out.reshape(x.shape)
