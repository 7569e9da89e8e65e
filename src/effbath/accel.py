"""The time-stepping march of the population master equation.

Step n of the march needs the history sum H[n] = sum_{j=1..n} ks[n+1-j] p[j]
over every value computed so far; summed directly that costs O(N^2).  The
march builds the sums by a causal divide-and-conquer (Hairer, Lubich &
Schlichte, SIAM J. Sci. Stat. Comput. 6, 1985) written as one loop over
leaves of L = ``_LEAF`` steps: after leaf j (1-based), the values of the
L * (j & -j) steps that end with it are added to the history of the next as
many steps in real-FFT middle products.  That is the order of the recursion
that marches [lo, mid), adds p[lo:mid] to [mid, hi), then marches [mid, hi),
and each of the log2(N / L) sizes costs O(N log N): O(N log^2 N) in all.

Inside a leaf the update is linear with constant coefficients, so the leaf
is one unit lower-triangular Toeplitz system for the increments
v[m] = p[lo+1+m] - p[lo+m].  Its inverse column is formed once per march,
by Newton doubling of a power series' reciprocal; each leaf is one
length-L convolution, a cumulative sum and a dot product, O(L^2) in C, in
about a dozen numpy calls: at L = 256 a leaf takes about 23 us, 12 us of
it the convolution (best of 7 x 1,000 calls, 2 vCPUs).  Both layers are
bound by per-call overhead at small sizes: the five ``long_horizon``
marches (N = 10.8k to 157k) took 126 / 97 / 89 / 94 ms at L = 128 / 256 /
512 / 1024 (best of 7), and at 512 the 5,003-step fig5 march drifts
3.1e-14 from the direct sum (256: 9.5e-15).
"""

from __future__ import annotations

import numpy as np

_OVERFLOW_GUARD = 1e6
_LEAF = 256  # steps solved as one Toeplitz system; the FFTs take over above it


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
    consts = _leaf_constants(h, ks, ka_int, n_steps)
    f_prev, spectra = 0.0, {}  # the stored forcing, and the kernel spectra by FFT length
    for j, lo in enumerate(range(0, n_steps, _LEAF), 1):
        hi = min(lo + _LEAF, n_steps)
        f_prev, bad = _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev, consts)
        if bad != -1:
            return p, bad
        if hi < n_steps:
            width = _LEAF * (j & -j)
            _add_history(ks, p, hist, hi - width, hi, min(hi + width, n_steps), spectra)
    return p, cut


def _leaf_constants(h, ks, ka_int, n_steps):
    """The per-march constants of every leaf: w[:n + 1], u[:n] and ka_step.

    Eliminating the stored forcing, step lo + m of a leaf reads
    v[m] + sum_{i<m} w[m-i] v[i] = rhs[m] with n = min(_LEAF, n_steps) and
    w[d] = (h^2/2) (ks[0] + 2 sum_{e=1}^{d-1} ks[e] + ks[d]), w[0] = 1; u is
    the inverse's column.  w is formed directly: the partial sums of the
    system for p itself cancel 1 - 1 at w[1].  u is the power series 1/W
    of W(x) = sum w[d] x^d, by Newton doubling: once u = 1/W mod x^k,
    W*u = 1 + x^k E(x), and u - u*x^k E is 1/W mod x^2k, two convolutions
    and the first k coefficients kept as they are.  At n = 256 that takes
    8 doublings, about 55 us against 250 us for the 255 dot products of
    forward substitution, and lies within 1.1e-17 of it.  The forcing
    enters rhs as ka_step[k] = (h/2) (ka_int[k] + ka_int[k + 1]).
    """
    n = min(_LEAF, n_steps)
    w = np.empty(n + 1)
    w[0] = 1.0
    inner = np.concatenate(([0.0], np.cumsum(ks[1:n])))  # sum_{e=1}^{d-1} ks[e]
    w[1:] = (0.5 * h * h) * (ks[0] + 2.0 * inner + ks[1 : n + 1])
    u = np.ones(1)
    while u.size < n:
        k, m = u.size, min(2 * u.size, n)
        err = np.convolve(w[:m], u)[k:m]
        u = np.concatenate((u, -np.convolve(u[: m - k], err)[: m - k]))
    return w, u, (0.5 * h) * (ka_int[:n_steps] + ka_int[1 : n_steps + 1])


def _add_history(ks, p, hist, lo, mid, hi, spectra):
    """Add sum_{j in [max(lo, 1), mid)} ks[n+1-j] p[j] to hist[n] for n in [mid, hi).

    The FFT length n_fft is the power of two >= 2 * max(hi - mid, _LEAF), so
    it stays short where the grid end clips [mid, hi), and the sources are
    taken in chunks [s0, s1) of up to n_fft - (hi - mid) values.  Each chunk
    is a middle product: the circular convolution of p[s0:s1] with
    ks[d + 1 : d + n_fft + 1], d = mid - s1, is exact at the indices kept.
    The spectrum of ks[1 : n_fft + 1] (d = 0) serves every call with the
    same n_fft, so it is kept in ``spectra``.
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


def _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev, consts):
    """March steps [lo, hi) as one Toeplitz solve for the increments.

    With p[j] = p[lo] + (increments so far), step n = lo + m reads
    v[m] + sum_{i<m} w[m-i] v[i] = rhs[m]; the part of rhs from p[lo] is
    p[lo] * w[m + s], s = 1 unless lo = 0 (where p[0] is already in hist).
    Solving for the increments, not for p, keeps the rounding of p from
    acting as a kick to the slope.  Step lo carries f_prev and is explicit.
    """
    w, u, ka_step = consts
    n = hi - lo
    s = 1 if lo else 0
    half_h = 0.5 * h
    k0 = ks[0]
    p_lo = p[lo]
    rhs = np.empty(n)
    conv = hist[lo] + ks[1] * p_lo if lo else hist[lo]
    rhs[0] = -half_h * (f_prev + (h * (conv + 0.5 * k0 * p_lo) + ka_int[lo + 1]))
    tail = rhs[1:]
    np.add(hist[lo : hi - 1], hist[lo + 1 : hi], out=tail)
    tail *= -(half_h * h)
    tail -= p_lo * w[1 + s : n + s]
    tail -= ka_step[lo + 1 : hi]
    v = np.convolve(u[:n], rhs)[:n]
    seg = p[lo : hi + 1]
    seg[1:] = v
    np.add.accumulate(seg, out=seg)
    mag = np.abs(seg[1:])
    if not np.maximum.reduce(mag) <= _OVERFLOW_GUARD:  # also catches nan
        return f_prev, lo + 1 + int(np.argmin(mag <= _OVERFLOW_GUARD))
    j0 = max(lo, 1)
    conv = hist[hi - 1] + ks[hi - j0 : 0 : -1].dot(p[j0:hi])  # the sum at step hi - 1
    f_prev = h * (conv + 0.5 * k0 * p[hi - 1]) + ka_int[hi] + half_h * k0 * v[-1]
    return f_prev, -1
