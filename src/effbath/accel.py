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

The wide sums run out of cache: an rfft/irfft pair costs 14-18 ns a point
from 2,048 to 16,384 points and 28-73 ns from 32,768 to 262,144 (best of 15,
three runs, 2 vCPUs).  So a sum whose sources span ``_PIECE`` = 8,192 to
``_KEPT`` * ``_PIECE`` = 131,072 steps runs in pieces of ``_PIECE`` points,
Gardner's partitioned convolution (J. Audio Eng. Soc. 43, 1995, 127): each
source piece is transformed once, at 16,384 points, and kept for the wider
sums that read it; the spectra of the kernel slices are kept by lag; and
each target piece sums its products with every source piece before it and
takes one inverse transform, when the march reaches it.  A march keeps at
most 16 source spectra, 31 kernel spectra and 15 waiting sums of 8,193 bins
(8 MB), beside one kernel spectrum per FFT length outside the pieces.  A
wider sum stays one middle product, since products of pieces would grow as
N^2 / ``_PIECE``.  The five ``long_horizon`` marches took 103-116 -> 88-106
ms, the 156,559-step one 56-64 -> 47-55 ms (best of 15, interleaved with
the doubling alone, four sessions); 1e6 and 3e6 steps took 0.47-0.54 ->
0.42-0.49 s and 1.70-1.94 -> 1.54-1.83 s (best of 3, three sessions).

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
_PIECE = 8192  # points per piece of a wide history sum
_KEPT = 16  # source-piece spectra kept: a call up to _KEPT pieces wide splits into pieces


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
    f_prev, kernels, sources, targets = 0.0, {}, {}, {}  # the stored forcing, and the spectra _add_history keeps
    for j, lo in enumerate(range(0, n_steps, _LEAF), 1):
        hi = min(lo + _LEAF, n_steps)
        f_prev, bad = _march_leaf(h, ks, ka_int, p, hist, lo, hi, f_prev, consts)
        if bad != -1:
            return p, bad
        if hi < n_steps:
            width = _LEAF * (j & -j)
            _add_history(ks, p, hist, hi - width, hi, min(hi + width, n_steps), kernels, sources, targets)
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


def _add_history(ks, p, hist, lo, mid, hi, kernels, sources, targets):
    """Add sum_{j in [max(lo, 1), mid)} ks[n+1-j] p[j] to hist[n] for n in [mid, hi).

    The call splits into source pieces of n_src points that end at mid and
    target pieces of n_dst points that start there, n_src + n_dst = n_fft.
    Both are ``_PIECE`` when the sources span at most ``_KEPT`` pieces and
    the call at least two, or a piece sum waits at mid: a call one piece
    wide whose target the grid end clips, with nothing waiting, would
    compute spectra that no call reuses.  Otherwise n_dst = hi - mid and
    n_fft is the power of two >= 2 * max(n_dst, _LEAF): one target piece,
    and one source piece unless the grid end clips the target.  Target piece
    [t0, t0 + n_dst) takes from source piece [s1 - n_src, s1) the middle
    product of its values, zero before max(lo, 1), with
    ks[d + 1 : d + n_fft + 1], d = t0 - s1: their circular convolution is
    exact in the window [n_src, n_fft).  A target piece sums its products as
    spectra and takes one inverse FFT, clipped at hi, once the march reaches
    it: a piece past mid waits in ``targets`` for the calls at its own
    start, which add to the same sum.  ``kernels`` keeps the kernel spectra
    by (n_fft, d), every d of the pieces and d = 0 otherwise; ``sources``
    the spectra of source pieces of ``_PIECE`` points by start, the last
    ``_KEPT`` of them, all that a call split into pieces reads.
    """
    pieces = mid - lo <= _KEPT * _PIECE and (2 * _PIECE <= hi - lo or mid in targets)
    n_dst = _PIECE if pieces else hi - mid
    n_fft = 2 * _PIECE if pieces else 1 << (2 * max(n_dst, _LEAF) - 1).bit_length()
    n_src = n_fft - n_dst
    first = max(lo, 1)
    for t0 in range(mid, hi, n_dst):
        acc = targets.pop(t0, None)
        for s1 in range(mid, first, -n_src):
            s0, d = s1 - n_src, t0 - s1
            spec = sources.get(s0) if pieces else None
            if spec is None:
                seg = p[s0:s1] if s0 >= first else np.concatenate((np.zeros(first - s0), p[first:s1]))
                spec = np.fft.rfft(seg, n_fft)
                if pieces:
                    sources[s0] = spec
                    if len(sources) > _KEPT:
                        del sources[min(sources)]
            kernel = kernels.get((n_fft, d))
            if kernel is None:
                kernel = np.fft.rfft(ks[d + 1 : d + n_fft + 1], n_fft)
                if pieces or d == 0:
                    kernels[n_fft, d] = kernel
            prod = spec * kernel if pieces else np.multiply(spec, kernel, out=spec)  # a plain spectrum is read once
            if acc is None:
                acc = prod
            else:
                acc += prod
        if t0 > mid:  # a later piece: the calls up to its own start add to it first
            targets[t0] = acc
        else:
            t1 = min(t0 + n_dst, hi)
            hist[t0:t1] += np.fft.irfft(acc, n_fft)[n_src : n_src + t1 - t0]


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
