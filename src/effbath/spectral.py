"""Spectral densities of the bare, linear-effective and nonlinear-effective baths.

The nonlinear effective density is implemented twice on purpose: once
directly (``nonlinear_effective_density``) and once through the oscillator
susceptibility (``susceptibility_imag``).  The two routes are algebraically
identical and are cross-checked permanently in the test suite; their
agreement is the core mapping statement of the model.
"""

from __future__ import annotations

import numpy as np

from .params import DerivedScales, SystemParams, convert_couplings

__all__ = [
    "ohmic_density",
    "linear_effective_density",
    "susceptibility_imag",
    "nonlinear_effective_density",
    "geff_function",
    "density_peak",
]


def ohmic_density(omega, eta):
    """Strictly Ohmic density J = eta*omega (odd in omega)."""
    return eta * np.asarray(omega, dtype=float)


def linear_effective_density(omega, gbar, gamma, Omega, M):
    """Peaked effective density of an intermediate harmonic oscillator.

    J = gbar**2*gamma*omega / (M*(Omega**2 - omega**2)**2 + M*gamma**2*omega**2),
    Ohmic at low frequency with slope gbar**2*gamma/(M*Omega**4).
    """
    w = np.asarray(omega, dtype=float)
    den = M * (Omega**2 - w**2) ** 2 + M * gamma**2 * w**2
    return gbar**2 * gamma * w / den


def susceptibility_imag(omega_ex, p: SystemParams, scales: DerivedScales):
    """Imaginary part of the nonlinear oscillator's linear susceptibility.

    Zero-drive limit of the driven steady-state response around the
    one-photon resonance Omega1; negative for positive frequencies.  The
    Ohmic density M*gamma*omega enters the numerator with the bare (odd)
    frequency and everywhere else through |omega_ex|.
    """
    w = np.asarray(omega_ex, dtype=float)
    y04 = scales.y0**4
    n14 = scales.n1_pow4
    om1 = scales.Omega1
    weight = 2.0 * om1 / (np.abs(w) + om1)
    j_at_peak = p.M * p.gamma * om1
    num = y04 * (p.M * p.gamma * w) * n14 * weight
    den = y04 * j_at_peak**2 * n14 * (2.0 * scales.nth + 1.0) ** 2 + 4.0 * (np.abs(w) - om1) ** 2
    return -num / den


def nonlinear_effective_density(omega_ex, p: SystemParams, scales: DerivedScales):
    """Effective spectral density seen by the qubit, direct closed form.

    Peaked at the shifted frequency Omega1, Ohmic at low frequency and odd
    in omega_ex.  Must coincide with -gbar**2 * susceptibility_imag to
    machine precision.

    A Python float is computed in floats and returns a float, as
    ``geff_function``'s G does; ``density_peak``'s golden-section search
    calls it that way.  Both paths square by a product, so they agree bit for bit.
    """
    w = omega_ex if isinstance(omega_ex, float) else np.asarray(omega_ex, dtype=float)
    gbar, _ = convert_couplings(p)
    n14 = scales.n1_pow4
    om1 = scales.Omega1
    magnitude = abs(w)
    weight = 2.0 * om1 / (magnitude + om1)
    num = gbar**2 * p.gamma * w * n14 * weight
    detuning = magnitude - om1
    den = (
        p.M * p.gamma**2 * om1**2 * (2.0 * scales.nth + 1.0) ** 2 * n14
        + 4.0 * p.M * p.Omega**2 * (detuning * detuning)
    )
    return num / den


def geff_function(p: SystemParams, scales: DerivedScales):
    """Coupling-weighted spectral function G(omega) entering the bath correlation.

    G = 2*varsigma*Omega**2 * omega * (2*Omega1/(|omega|+Omega1))
        / (gammabar**2 + (|omega|-Omega1)**2).
    Equals q0**2*J_eff/(pi*hbar) up to the first-order-in-alpha reduction
    Omega1*n1**2 ~ Omega; independent of q0.

    Returned as a one-argument function with its constants bound once.
    The package passes it a numpy array, which it computes elementwise; a
    float in, as the tests' QUADPACK reference passes one node at a time,
    gives a float out, in the same order of operations, except that a
    float squares by pow() and an array by a product, which can differ in
    the last bit.
    """
    om1 = scales.Omega1
    two_om1 = 2.0 * om1
    gammabar_sq = scales.gammabar**2
    amplitude = 2.0 * scales.varsigma * p.Omega**2

    def g(w):
        magnitude = abs(w)
        return amplitude * w * (two_om1 / (magnitude + om1)) / (gammabar_sq + (magnitude - om1) ** 2)

    return g


# golden-section fraction (3 - sqrt(5))/2, and the relative bracket width
# at which the refinement stops
_GOLDEN = (3.0 - 5.0**0.5) / 2.0
_PEAK_XTOL = 1e-12


def density_peak(density, Omega=1.0):
    """Location and height of the (unimodal) maximum of ``density``.

    Coarse scan with step Omega/2000 over (0, 2*Omega], then golden-section
    refinement of the bracket formed by the best grid point and its two
    neighbours.  A flat maximum fixes its location only to about sqrt(eps)
    of the peak width, however small the final bracket.
    """
    step = Omega / 2000.0
    grid = np.arange(step, 2.0 * Omega + 0.5 * step, step)
    values = np.asarray(density(grid), dtype=float)
    i = int(np.argmax(values))
    if not 0 < i < grid.size - 1:
        return float(grid[i]), float(values[i])
    # x0 < x1 < x2 < x3 with the maximum between x0 and x3, x1 the best grid point
    x0, x1, x3 = float(grid[i - 1]), float(grid[i]), float(grid[i + 1])
    x2 = x1 + _GOLDEN * (x3 - x1)
    f1, f2 = float(density(x1)), float(density(x2))
    while x3 - x0 > _PEAK_XTOL * (x1 + x2):
        if f2 > f1:
            x0, x1, f1 = x1, x2, f2
            x2 = (1.0 - _GOLDEN) * x1 + _GOLDEN * x3
            f2 = float(density(x2))
        else:
            x3, x2, f2 = x2, x1, f1
            x1 = (1.0 - _GOLDEN) * x2 + _GOLDEN * x0
            f1 = float(density(x1))
    return (x1, f1) if f1 > f2 else (x2, f2)
