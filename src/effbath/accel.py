"""The time-stepping hot loop of the population master equation.

The march is a strictly sequential O(N^2) convolution and dominates the
runtime of long horizons; each step's history sum is one numpy dot
product over a reversed copy of the kernel.
"""

from __future__ import annotations

import numpy as np

_OVERFLOW_GUARD = 1e6


def backend_name() -> str:
    """Name of the march implementation."""
    return "numpy"


def march(h, ks, ka_int, n_steps):
    """Product-integration trapezoid march, numpy inner products.

    One fixed-point correction of the implicit-trapezoid update per step:
    the new value enters the convolution endpoint through the previous
    value first, and the stored forcing is corrected afterwards.
    Returns (p, first_bad_index); bad index -1 means the march stayed finite.
    """
    p = np.empty(n_steps + 1)
    p[0] = 1.0
    ks_rev = ks[::-1].copy()  # contiguous reversed kernel for the dot products
    n_k = ks.shape[0] - 1
    f_prev = 0.0
    half_h = 0.5 * h
    k0 = ks[0]
    for n in range(n_steps):
        conv = 0.5 * ks[n + 1] * p[0]
        if n >= 1:
            conv += np.dot(ks_rev[n_k - n : n_k], p[1 : n + 1])
        f_tilde = h * (conv + 0.5 * k0 * p[n]) + ka_int[n + 1]
        p_new = p[n] - half_h * (f_prev + f_tilde)
        if not np.isfinite(p_new) or abs(p_new) > _OVERFLOW_GUARD:
            return p, n + 1
        p[n + 1] = p_new
        f_prev = f_tilde + half_h * k0 * (p_new - p[n])
    return p, -1
