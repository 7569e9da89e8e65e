"""The time-stepping march of the population master equation.

Step n of the march needs the history sum H[n] = sum_{j=1..n} ks[n+1-j] p[j]
over every value computed so far; summed directly that costs O(N^2).  The
march builds the sums by a causal divide-and-conquer (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): steps [lo, hi) are marched
as [lo, mid), then the values p[lo:mid] are added to the history of
[mid, hi) in one real-FFT middle product, then [mid, hi) is marched.
Blocks of at most ``_LEAF`` steps are marched one step at a time, with the
part of the sum from inside the block as a dot product.  Each level of the
recursion costs O(N log N), so the march is O(N log^2 N).
"""

from __future__ import annotations

import math

import numpy as np

_OVERFLOW_GUARD = 1e6
_LEAF = 128  # steps marched one at a time; the FFTs take over above it


def backend_name() -> str:
    """Name of the march implementation."""
    return "numpy"


def march(h, ks, ka_int, n_steps):
    """Product-integration trapezoid march with an FFT-built history sum.

    One fixed-point correction of the implicit-trapezoid update per step:
    the new value enters the convolution endpoint through the previous
    value first, and the stored forcing is corrected afterwards.
    Returns (p, first_bad_index); bad index -1 means the march stayed finite.
    """
    p = np.empty(n_steps + 1)
    p[0] = 1.0
    hist = 0.5 * p[0] * ks[1 : n_steps + 1]  # trapezoid endpoint at t' = 0
    size = _LEAF
    while size < n_steps:
        size *= 2
    _, bad = _march_block(h, ks, ka_int, p, hist, 0, size, 0.0, {})
    return p, bad


def _march_block(h, ks, ka_int, p, hist, lo, size, f_prev, spectra):
    """March steps [lo, lo + size), clipped to the grid.

    On entry hist[n] holds the history sum of step n over p[:lo]; on return
    p[lo + 1 : lo + size + 1] is filled.  Returns (f_prev, first_bad_index).
    """
    hi = min(lo + size, hist.shape[0])
    if size <= _LEAF:
        return _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev)
    half = size // 2
    mid = lo + half
    f_prev, bad = _march_block(h, ks, ka_int, p, hist, lo, half, f_prev, spectra)
    if bad != -1 or mid >= hi:
        return f_prev, bad
    _add_history(ks, p, hist, lo, mid, hi, spectra)
    return _march_block(h, ks, ka_int, p, hist, mid, half, f_prev, spectra)


def _add_history(ks, p, hist, lo, mid, hi, spectra):
    """Add sum_{j in [max(lo, 1), mid)} ks[n+1-j] p[j] to hist[n] for n in [mid, hi).

    The FFT length n_fft is the power of two >= 2 * max(hi - mid, _LEAF), so
    it stays short where the grid end clips [mid, hi), and the sources are
    taken in chunks [s0, s1) of up to n_fft - (hi - mid) values.  Each chunk
    is a middle product: the circular convolution of p[s0:s1] with
    ks[d + 1 : d + n_fft + 1], d = mid - s1, is exact at the indices kept.
    The spectrum of ks[1 : n_fft + 1] (d = 0) serves every block of a
    level, so it is kept in ``spectra``.
    """
    width = hi - mid
    n_fft = 1 << (2 * max(width, _LEAF) - 1).bit_length()
    chunk = n_fft - width
    for s1 in range(mid, max(lo, 1), -chunk):
        s0 = max(s1 - chunk, lo, 1)
        d = mid - s1
        kernel = spectra.get(n_fft) if d == 0 else None
        if kernel is None:
            kernel = np.fft.rfft(ks[d + 1 : d + n_fft + 1], n_fft)
            if d == 0:
                spectra[n_fft] = kernel
        spec = np.fft.rfft(p[s0:s1], n_fft)
        spec *= kernel
        conv = np.fft.irfft(spec, n_fft)
        hist[mid:hi] += conv[s1 - s0 : s1 - s0 + width]


def _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev):
    """March steps [lo, hi) one at a time; the sum over p[lo:n+1] is direct.

    The scalar update runs on Python floats, which round as numpy's do.
    """
    half_h = 0.5 * h
    k0 = float(ks[0])
    j0 = max(lo, 1)
    ks_rev = ks[hi - j0 : 0 : -1].copy()  # ks_rev[i] = ks[hi - j0 - i], contiguous
    p_n = float(p[lo])
    for n, conv, forcing in zip(range(lo, hi), hist[lo:hi].tolist(), ka_int[lo + 1 : hi + 1].tolist()):
        conv += float(ks_rev[hi - n - 1 : hi - j0].dot(p[j0 : n + 1]))
        f_tilde = h * (conv + 0.5 * k0 * p_n) + forcing
        p_new = p_n - half_h * (f_prev + f_tilde)
        if not math.isfinite(p_new) or abs(p_new) > _OVERFLOW_GUARD:
            return f_prev, n + 1
        p[n + 1] = p_new
        f_prev = f_tilde + half_h * k0 * (p_new - p_n)
        p_n = p_new
    return f_prev, -1
