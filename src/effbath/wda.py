"""Weak-damping analytic solution of the population dynamics.

The kernel expanded to first order in the damping is resummed into
harmonics of the shifted oscillator frequency; the argument of that
Bessel resummation is small in the validated regime, so the series is
truncated after the first harmonic, and the zeroth harmonic's I0(|u0|)
is summed from its own power series.  The truncated kernel and the trace
are each an ``ExpSum``, a sum of t**m * exp(s*t) terms whose Laplace
transform is a sum of poles m!/(lam - s)**(m + 1).  The undamped pole
equation gives the oscillation frequencies and real pole weights; the
poles and residues are then expanded to first order in the damping: each
pole gains a decay rate, and each residue an imaginary part that enters
the trace as a sine amplitude.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .correlation import WdaCoefficients, wda_coefficients
from .errors import (
    ComplexFrequencyError,
    NoConvergenceError,
    RegimeWarning,
    RootSwapError,
)
from .params import DerivedScales, SystemParams, derived_scales

__all__ = [
    "ExpSum",
    "EffectiveTunneling",
    "WdaSpectrum",
    "effective_tunneling",
    "pole_frequencies",
    "kernel_laplace",
    "decay_rates",
    "first_order_pole",
    "build_wda_spectrum",
    "wda_population",
    "bloch_siegert_shift",
    "expansion_branch",
    "resonance_analysis",
    "truncation_ratio_n2",
]

_NEWTON_MAX_ITER = 100
_NEWTON_TOL = 1e-12


def _i0(x: float) -> float:
    """Modified Bessel function I0 of a real scalar, sum_k ((x/2)**k / k!)**2 (A&S 9.6.12).

    The terms t_k = t_{k-1} * (x**2/4) / k**2 are positive and go to fsum
    once one falls below 2**-60 of the running sum, a comparison that is
    false for nan, so nan returns nan.  Term k carries about 3k roundings
    and the largest sit near k = x/2, so the error is about (1.5*x + 1)
    ulp, below 1 ulp where |u0| < 1.  A running sum past the double range
    returns inf without fsum, which would raise on that overflow.
    """
    quarter_sq = 0.25 * x * x
    terms = [1.0]
    total = term = 1.0
    while term > 2.0**-60 * total:
        term *= quarter_sq / len(terms) ** 2
        total += term
        terms.append(term)
    return math.inf if total == math.inf else math.fsum(terms)


@dataclass(frozen=True)
class ExpSum:
    """The real function f(t) = sum_k c_k * t**m_k * exp(s_k*t), its terms closed under conjugation.

    ``f(t)`` takes each term with Im s > 0 as 2*Re, with one real exp and one
    cos/sin, skips its conjugate, and takes a term with real s once.
    """

    rates: tuple[complex, ...]
    amps: tuple[complex, ...]
    powers: tuple[int, ...]

    @classmethod
    def real(cls, rows) -> "ExpSum":
        """The sum of Re(a * t**m * exp(s*t)) over rows (a, m, s): conjugate halves, or Re a at real s."""
        terms = [(0.5 * a, m, s) if s.imag else (a.real, m, s) for a, m, s in rows]
        terms += [(c.conjugate(), m, s.conjugate()) for c, m, s in terms if s.imag]
        amps, powers, rates = zip(*terms)
        return cls(rates, amps, powers)

    def laplace(self, lam: complex, order: int = 0) -> complex:
        """d^order/dlam^order of the Laplace transform of f, the sum of
        c * (-1)**order * (m + order)! / (lam - s)**(m + order + 1); fsum rounds each part once."""
        terms = [c * math.factorial(m + order) / (lam - s) ** (m + order + 1)
                 for s, c, m in zip(self.rates, self.amps, self.powers)]
        total = complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))
        return -total if order % 2 else total

    def __call__(self, t):
        time = np.asarray(t, dtype=float)
        result = np.zeros_like(time)
        for s, c, m in zip(self.rates, self.amps, self.powers):
            if s.imag >= 0.0:
                a = 2.0 * c if s.imag > 0.0 else c
                phase = s.imag * time
                term = np.exp(s.real * time) * (a.real * np.cos(phase) - a.imag * np.sin(phase))
                result += term * time**m if m else term
        return result


@dataclass(frozen=True)
class EffectiveTunneling:
    """Dressed tunneling amplitudes of the harmonic-resummed kernel."""

    u0: complex
    delta0c: float
    delta1c: float
    delta1s: float


@dataclass(frozen=True)
class WdaSpectrum:
    """Everything needed to evaluate the analytic population trace."""

    u0: complex
    gamma: float
    omega_plus: float
    omega_minus: float
    kappa_plus: float
    kappa_minus: float
    weight_plus: float
    weight_minus: float
    sine_plus: float
    sine_minus: float

    def poles(self) -> ExpSum:
        """The trace: poles -gamma*kappa +- i*omega with residues (weight -+ i*sine)/2, so that each
        pair is exp(-gamma*kappa*t) * (weight*cos(omega*t) + sine*sin(omega*t))."""
        damping = -self.gamma
        return ExpSum.real([
            (complex(self.weight_plus, -self.sine_plus), 0, complex(damping * self.kappa_plus, self.omega_plus)),
            (complex(self.weight_minus, -self.sine_minus), 0, complex(damping * self.kappa_minus, self.omega_minus)),
        ])


def _sinh_half(x: float) -> float:
    return math.inf if x > 1400.0 else math.sinh(0.5 * x)


def effective_tunneling(
    coeffs: WdaCoefficients,
    scales: DerivedScales,
    delta: float,
    beta: float,
) -> EffectiveTunneling:
    """u0 and the dressed amplitudes Delta_{0,c}, Delta_{1,c}, Delta_{1,s}.

    |u0| = W/sinh(beta*Omega1/2) is sqrt(Y**2 - W**2) for
    Y = -W*coth(beta*Omega1/2), written so it cannot overflow.  Outside the
    truncation regime |u0| < 1 a warning is emitted.
    """
    u0_abs = coeffs.W / _sinh_half(beta * scales.Omega1)
    if u0_abs >= 1.0:
        warnings.warn(f"kernel truncation unreliable: |u0| = {u0_abs:.3g} >= 1", RegimeWarning, stacklevel=2)
    scale = delta * delta * math.exp(coeffs.Y)
    # first harmonic linearized in u0; |u0|*cosh(beta*Omega1/2) equals
    # W*coth(beta*Omega1/2) = -Y, which stays finite at any temperature
    return EffectiveTunneling(u0=1j * u0_abs, delta0c=math.sqrt(scale * _i0(u0_abs)),
                              delta1c=math.sqrt(scale * -coeffs.Y), delta1s=math.sqrt(scale * coeffs.W))


def pole_frequencies(delta0c: float, delta1c: float, omega1: float) -> tuple[float, float]:
    """Oscillation frequencies (Omega_plus, Omega_minus) of the undamped poles.

    Roots of lambda**4 + (d0^2 + d1^2 + Om1^2)*lambda**2 + d0^2*Om1^2 = 0,
    written with the radicand grouped as
    ((d0^2 - Om1^2)/2)^2 + (d1^2/2)*(d0^2 + d1^2/2 + Om1^2) so it is
    manifestly nonnegative.  The larger, Omega_minus, is a sum; Omega_plus
    comes from the product of the roots, Omega_plus*Omega_minus = d0*Om1,
    so nothing cancels as delta0c -> 0, and it is +0 at delta0c = 0 (no
    tunneling).  Squares are products, so an overflow reaches the one
    check as inf or nan, not as an OverflowError.
    """
    d0_sq = delta0c * delta0c
    d1_sq = delta1c * delta1c
    om1_sq = omega1 * omega1
    half_sum = 0.5 * (d0_sq + d1_sq + om1_sq)
    half_gap = 0.5 * (d0_sq - om1_sq)
    radicand = half_gap * half_gap + 0.5 * d1_sq * (d0_sq + 0.5 * d1_sq + om1_sq)
    omega_minus = math.sqrt(half_sum + math.sqrt(radicand))
    if not 0.0 < omega_minus < math.inf:
        raise ComplexFrequencyError(
            f"pole equation has no finite oscillation frequency: Omega_minus = {omega_minus:.3g} "
            f"from delta0c = {delta0c:.3g}, delta1c = {delta1c:.3g}, Omega1 = {omega1:.3g}"
        )
    return delta0c / omega_minus * omega1, omega_minus


# K and K0 of the latest spectrum: its two poles each take both
@functools.lru_cache(maxsize=2)
def _kernel(tun: EffectiveTunneling, coeffs: WdaCoefficients, omega1: float, damped: bool = True) -> ExpSum:
    """The truncated kernel, or with ``damped=False`` its undamped part K0.

    The kernel is d0c^2*(1 - S1) + d1c^2*cos(w1 t)*(1 - S1)
    - d1s^2*sin(w1 t)*R1 with products reduced to single harmonics.  Each
    row (a, m, s) is Re(a * t**m * exp(s*t)): a cosine row has a real a,
    a sine row an imaginary one.  The first two rows are K0.  Both are
    kept per (tun, coeffs, omega1), so a spectrum builds each once, and
    a pole search's every step takes the same kernel.
    """
    d0, d1c, d1s = tun.delta0c**2, tun.delta1c**2, tun.delta1s**2
    a, b, c, v = coeffs.A, coeffs.B, coeffs.C, coeffs.V
    w1, w2 = 1j * omega1, 2j * omega1
    rows = [(d0, 0, 0j), (d1c, 0, w1)]
    if not damped:
        return ExpSum.real(rows)
    rows += [
        (-d0 * a, 1, w1),
        (-d0 * b, 1, 0j),
        (1j * d0 * c, 0, w1),
        (-0.5 * d1c * a, 1, 0j),
        (-0.5 * d1c * a, 1, w2),
        (-d1c * b, 1, w1),
        (0.5j * d1c * c, 0, w2),
        (1j * d1s * v, 0, w1),
        (-0.5j * d1s * v, 0, w2),
        (0.25 * d1s * v * omega1, 1, 0j),
        (-0.25 * d1s * v * omega1, 1, w2),
    ]
    return ExpSum.real(rows)


def kernel_laplace(lam: complex, tun: EffectiveTunneling, coeffs: WdaCoefficients, omega1: float):
    """Laplace transform of the truncated kernel and its derivative -L[tau*K].

    The kernel is an exponential sum, so both are sums of its poles: a
    term t**m * exp(s*t) gives m!/(lam - s)**(m + 1).  Near a kernel
    frequency this keeps the digits that lam/(lam**2 + w**2) cancels.
    """
    kernel = _kernel(tun, coeffs, omega1)
    return kernel.laplace(lam), kernel.laplace(lam, 1)


def decay_rates(
    tun: EffectiveTunneling,
    coeffs: WdaCoefficients,
    omega1: float,
    omega_plus: float,
    omega_minus: float,
    gamma: float,
    delta: float,
    Omega: float,
) -> tuple[float, float, complex, complex]:
    """Decay coefficients kappa_pm of the exact roots of the truncated kernel.

    Complex Newton iteration on lambda + K(lambda) = 0 seeded at the
    undamped poles i*Omega_pm.  Also returns the converged roots so the
    imaginary parts can be checked against Omega_pm.  The analytic trace
    does not use these roots: the first-order kernel grows secularly
    (its tau*cos pieces), so its exact roots carry spurious higher orders
    in the damping; ``first_order_pole`` gives the consistent rates.
    """
    if gamma == 0.0:
        return 0.0, 0.0, 1j * omega_plus, 1j * omega_minus

    tol = _NEWTON_TOL * delta**2 / Omega
    roots = []
    seeds = (1j * omega_plus, 1j * omega_minus)
    for which, seed in enumerate(seeds):
        lam = seed
        for _ in range(_NEWTON_MAX_ITER):
            value, deriv = kernel_laplace(lam, tun, coeffs, omega1)
            residual = lam + value
            if abs(residual) < tol:
                break
            lam = lam - residual / (1.0 + deriv)
        else:
            raise NoConvergenceError(
                f"pole search from seed {seed:.6g} stalled at |residual| = {abs(residual):.3e}"
            )
        if abs(lam - seeds[1 - which]) < abs(lam - seed):
            raise RootSwapError(f"root {lam:.6g} is nearer the other seed")
        roots.append(lam)

    return -roots[0].real / gamma, -roots[1].real / gamma, roots[0], roots[1]


def first_order_pole(
    tun: EffectiveTunneling,
    coeffs: WdaCoefficients,
    omega1: float,
    omega: float,
    weight: float,
    gamma: float,
) -> tuple[float, float]:
    """Decay coefficient kappa and sine amplitude of the pole pair at +-i*omega.

    Both are first order in the damping.  Split the kernel by order as
    K0 + K1 and let r0 = 1/(1 + K0'(i*omega)) = weight/2 be the undamped
    residue.  The pole of 1/(lam + K) then moves by -r0*K1, one Newton
    step from i*omega with the undamped slope, and its residue by
    r1 = -r0**2 * (K1' - r0*K1*K0''), all taken at lam = i*omega; K0'' is
    the second derivative of the undamped rows' exponential sum.  There
    K0 is imaginary and K0' real, while K1 is real and K1', K0'' are
    imaginary; so Re K and Im K' of the full transform are K1 and K1'/i,
    the shift is a pure decay rate gamma*kappa = r0*K1, and r1 is
    imaginary.  The pair contributes
    exp(-gamma*kappa*t) * (weight*cos(omega*t) + sine*sin(omega*t))
    with sine = -2*Im(r1).  An undamped run, a decoupled qubit (W = 0,
    so K1 = 0), a qubit with no tunneling (delta0c = 0, so K = 0) and a
    pole of weight 0 each return (0, 0) without taking the transform,
    whose own poles at 0 and Omega1 are where such a pole can sit.
    """
    if gamma == 0.0 or weight == 0.0 or coeffs.W == 0.0 or tun.delta0c == 0.0:
        return 0.0, 0.0
    lam = 1j * omega
    value, deriv = kernel_laplace(lam, tun, coeffs, omega1)
    curvature = _kernel(tun, coeffs, omega1, damped=False).laplace(lam, 2)
    r0 = 0.5 * weight
    shift = value.real
    sine = 2.0 * r0**2 * (deriv.imag - r0 * shift * curvature.imag)
    return r0 * shift / gamma, sine


def build_wda_spectrum(p: SystemParams, scales: DerivedScales | None = None) -> WdaSpectrum:
    """Wire coefficients -> tunneling -> poles -> first-order rates and residues."""
    if scales is None:
        scales = derived_scales(p)
    coeffs = wda_coefficients(p, scales)
    tun = effective_tunneling(coeffs, scales, p.Delta, p.beta)
    omega_plus, omega_minus = pole_frequencies(tun.delta0c, tun.delta1c, scales.Omega1)
    gap = omega_minus**2 - omega_plus**2
    # poles coincide only for a decoupled qubit exactly at the shifted
    # frequency; the second pole then carries no amplitude
    weight_plus = (scales.Omega1**2 - omega_plus**2) / gap if gap else 1.0
    weight_minus = 1.0 - weight_plus  # exact complement by construction
    kappa_plus, sine_plus = first_order_pole(tun, coeffs, scales.Omega1, omega_plus, weight_plus, p.gamma)
    kappa_minus, sine_minus = first_order_pole(tun, coeffs, scales.Omega1, omega_minus, weight_minus, p.gamma)
    return WdaSpectrum(
        u0=tun.u0,
        gamma=p.gamma,
        omega_plus=omega_plus,
        omega_minus=omega_minus,
        kappa_plus=kappa_plus,
        kappa_minus=kappa_minus,
        weight_plus=weight_plus,
        weight_minus=weight_minus,
        sine_plus=sine_plus,
        sine_minus=sine_minus,
    )


def wda_population(t, spectrum: WdaSpectrum):
    """Analytic population trace P(t), the sum ``spectrum.poles()``; P(0) = 1 exactly (weights sum to 1)."""
    return spectrum.poles()(t)


def bloch_siegert_shift(p: SystemParams) -> float:
    """Lowest-order splitting 2*g*(1 - 3*alpha/(2*Omega)) of the two peaks."""
    return 2.0 * p.g * (1.0 - 1.5 * p.alpha / p.Omega)


def expansion_branch(p: SystemParams) -> str:
    """Which of coupling and nonlinearity dominates the resonance expansion."""
    return "nonlinearity-dominated" if p.g < p.alpha else "coupling-dominated"


def resonance_analysis(p: SystemParams, scales: DerivedScales | None = None) -> dict:
    """Transition frequencies at the Delta = Omega comparison point.

    The lowest-order expansion values of the composite-system treatment
    sit next to the exact roots of the undamped pole equation.  The
    expansion branch is chosen by the relative size of coupling and
    nonlinearity: where the nonlinearity dominates, the frequencies
    collapse onto Omega and Omega1.
    """
    if scales is None:
        scales = derived_scales(p)
    coeffs = wda_coefficients(p, scales)
    tun = effective_tunneling(coeffs, scales, p.Delta, p.beta)
    om, om1, alpha = p.Omega, scales.Omega1, p.alpha

    branch = expansion_branch(p)
    if branch == "nonlinearity-dominated":
        omega_plus_exp, omega_minus_exp = om, om1
    else:
        split = 0.5 * bloch_siegert_shift(p)
        omega_plus_exp = om + 1.5 * alpha - split
        omega_minus_exp = om + 1.5 * alpha + split

    omega_plus_exact, omega_minus_exact = pole_frequencies(tun.delta0c, tun.delta1c, om1)
    return {
        "branch": branch,
        "omega_plus": omega_plus_exp,
        "omega_minus": omega_minus_exp,
        "omega_plus_exact": omega_plus_exact,
        "omega_minus_exact": omega_minus_exact,
        "bs_shift": bloch_siegert_shift(p),
    }


def truncation_ratio_n2(tun: EffectiveTunneling, coeffs: WdaCoefficients, beta: float, omega1: float) -> float:
    """Size of the first dropped harmonic relative to the retained one.

    Uses the small-argument second harmonic
    |u0|^2*cosh(beta*Omega1)/8 = W^2*(2 + 1/sinh^2(beta*Omega1/2))/8,
    which stays finite at any temperature.  Diagnostic only.
    """
    if tun.delta1c == 0.0:
        return 0.0
    inv_sinh_sq = (1.0 / _sinh_half(beta * omega1)) ** 2
    delta2c_sq = 0.25 * (tun.delta0c**2 / _i0(abs(tun.u0))) * coeffs.W**2 * (2.0 + inv_sinh_sq)
    return delta2c_sq / tun.delta1c**2
