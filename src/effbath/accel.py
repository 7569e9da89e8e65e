"""The time-stepping march of the population master equation.

Step n of the march needs the history sum H[n] = sum_{j=1..n} ks[n+1-j] p[j]
over every value computed so far; summed directly that costs O(N^2).  The
march builds the sums by a causal divide-and-conquer (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985): steps [lo, hi) are marched
as [lo, mid), then the values p[lo:mid] are added to the history of
[mid, hi) in one real-FFT middle product, then [mid, hi) is marched.
Each level of the recursion costs O(N log N), so the march is O(N log^2 N).

Inside a block of at most ``_LEAF`` steps the update is linear with constant
coefficients, so the block is one unit lower-triangular Toeplitz system for
the increments v[m] = p[lo+1+m] - p[lo+m].  Its inverse column depends only
on h and ks[:_LEAF + 1]; it is formed once per march, and each block is then
one length-L convolution, a cumulative sum and one dot product, O(L^2) in C
with no per-step Python work.
"""

from __future__ import annotations

import numpy as np

_OVERFLOW_GUARD = 1e6
_LEAF = 128  # steps solved as one Toeplitz system; the FFTs take over above it


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
    # a non-finite ks[d] reaches p[d] through the endpoint term of p[0]; stop
    # there, and cut it from ks, so that no FFT spreads it over the steps before
    nonfinite = np.flatnonzero(~np.isfinite(ks[: n_steps + 1]))
    cut = max(int(nonfinite[0]), 1) if nonfinite.size else -1
    if cut != -1:
        n_steps = cut - 1
        ks = ks[:cut]
    if n_steps == 0:
        return p, cut
    hist = 0.5 * p[0] * ks[1 : n_steps + 1]  # trapezoid endpoint at t' = 0
    size = _LEAF
    while size < n_steps:
        size *= 2
    solver = _leaf_solver(h, ks, min(_LEAF, n_steps))
    _, bad = _march_block(h, ks, ka_int, p, hist, 0, size, 0.0, {}, solver)
    return p, cut if bad == -1 else bad


def _leaf_solver(h, ks, n):
    """The block system's column w[:n + 1] and the first n values u of its inverse.

    Eliminating the stored forcing, step lo + m of a block reads
    v[m] + sum_{i<m} w[m-i] v[i] = rhs[m] with
    w[d] = (h^2/2) (ks[0] + 2 sum_{e=1}^{d-1} ks[e] + ks[d]), w[0] = 1.
    w is formed directly: the partial sums of the system for p itself
    cancel 1 - 1 at w[1].
    """
    w = np.empty(n + 1)
    w[0] = 1.0
    inner = np.concatenate(([0.0], np.cumsum(ks[1:n])))  # sum_{e=1}^{d-1} ks[e]
    w[1:] = (0.5 * h * h) * (ks[0] + 2.0 * inner + ks[1 : n + 1])
    u = np.empty(n)
    u[0] = 1.0
    for d in range(1, n):
        u[d] = -w[d:0:-1].dot(u[:d])
    return w, u


def _march_block(h, ks, ka_int, p, hist, lo, size, f_prev, spectra, solver):
    """March steps [lo, lo + size), clipped to the grid.

    On entry hist[n] holds the history sum of step n over p[:lo]; on return
    p[lo + 1 : lo + size + 1] is filled.  Returns (f_prev, first_bad_index).
    """
    hi = min(lo + size, hist.shape[0])
    if size <= _LEAF:
        return _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev, solver)
    half = size // 2
    mid = lo + half
    f_prev, bad = _march_block(h, ks, ka_int, p, hist, lo, half, f_prev, spectra, solver)
    if bad != -1 or mid >= hi:
        return f_prev, bad
    _add_history(ks, p, hist, lo, mid, hi, spectra)
    return _march_block(h, ks, ka_int, p, hist, mid, half, f_prev, spectra, solver)


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


def _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev, solver):
    """March steps [lo, hi) as one Toeplitz solve for the increments.

    With p[j] = p[lo] + (increments so far), step n = lo + m reads
    v[m] + sum_{i<m} w[m-i] v[i] = rhs[m]; the part of rhs from p[lo] is
    p[lo] * w[m + s], s = 1 unless lo = 0 (where p[0] is already in hist).
    Solving for the increments, not for p, keeps the rounding of p from
    acting as a kick to the slope.  Step lo carries f_prev and is explicit.
    """
    w, u = solver
    n = hi - lo
    s = 1 if lo else 0
    half_h = 0.5 * h
    k0 = ks[0]
    p_lo = p[lo]
    a = ka_int[lo : hi + 1]
    rhs = np.empty(n)
    conv = hist[lo] + ks[1] * p_lo if lo else hist[lo]
    rhs[0] = -half_h * (f_prev + (h * (conv + 0.5 * k0 * p_lo) + a[1]))
    rhs[1:] = -(half_h * h) * (hist[lo : hi - 1] + hist[lo + 1 : hi])
    rhs[1:] -= p_lo * w[1 + s : n + s]
    rhs[1:] -= half_h * (a[1:n] + a[2:])
    v = np.convolve(u[:n], rhs)[:n]
    p[lo + 1 : hi + 1] = v
    np.cumsum(p[lo : hi + 1], out=p[lo : hi + 1])
    mag = np.abs(p[lo + 1 : hi + 1])
    if not mag.max() <= _OVERFLOW_GUARD:  # also catches nan
        return f_prev, lo + 1 + int(np.argmin(mag <= _OVERFLOW_GUARD))
    j0 = max(lo, 1)
    conv = hist[hi - 1] + ks[hi - j0 : 0 : -1].dot(p[j0:hi])  # the sum at step hi - 1
    f_prev = h * (conv + 0.5 * k0 * p[hi - 1]) + a[n] + half_h * k0 * v[-1]
    return f_prev, -1
