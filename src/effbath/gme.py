"""Memory kernels and numerical solution of the population master equation.

The population difference P(t) obeys

    dP/dt = - int_0^t dt' [ Ks(t - t') P(t') + Ka(t') ],   P(0) = 1,

with kernels truncated at second order in the tunneling amplitude:

    Ks(t) = Delta**2 * exp(-S(t)) * cos(R(t)) * cos(epsilon*t)
    Ka(t) = Delta**2 * exp(-S(t)) * sin(R(t)) * sin(epsilon*t)

The bias factors make Ks/Ka symmetric/antisymmetric in epsilon and vanish
Ka identically at zero bias.  The biased path integrates Ka(t') literally
as written above and is considered experimental; all validated scenarios
run at epsilon = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import accel
from .correlation import CorrelationFn, closed_form_correlation, exp_tables, quadrature_correlation
from .errors import GridTooLargeError, NonFiniteStateError, NonPositiveError, StepTooLargeError
from .params import DerivedScales, SystemParams, derived_scales

__all__ = [
    "TimeSeries",
    "default_step",
    "time_grid",
    "niba_kernels",
    "solve_gme",
    "simulate_population",
]

# points per period of the fastest retained oscillation
_DEFAULT_POINTS_PER_PERIOD = 640
_MIN_POINTS_PER_PERIOD = 40
_DEFAULT_HORIZON_PERIODS = 100.0  # horizon in units of 1/Omega
# the march holds about ten float64 arrays of N + 1 values: 8 GB at this count
_MAX_STEPS = 10**8


@dataclass(frozen=True)
class TimeSeries:
    """Population difference sampled at t_k = k*h; ``h`` is the grid step."""

    h: float
    values: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.values.shape[0])


def _fastest_frequency(p: SystemParams, scales: DerivedScales) -> float:
    """Fastest oscillation the kernels carry: Omega1, Delta or |epsilon|."""
    return max(scales.Omega1, p.Delta, abs(p.epsilon))


def default_step(p: SystemParams, scales: DerivedScales | None = None) -> float:
    """Grid step resolving the fastest of Omega1, Delta and |epsilon|.

    640 points per period keep the trapezoid phase drift of an undamped
    tunneling oscillation below 1e-3 over a hundred periods.
    """
    if scales is None:
        scales = derived_scales(p)
    fastest = max(_fastest_frequency(p, scales), 1e-12)
    return 2.0 * math.pi / (_DEFAULT_POINTS_PER_PERIOD * fastest)


def time_grid(
    p: SystemParams,
    scales: DerivedScales | None = None,
    step: float | None = None,
    horizon: float | None = None,
) -> tuple[float, int]:
    """Step h and step count n of the grid t_k = k*h, k = 0..n, for a run.

    Defaults to ``default_step`` and a horizon of 100/Omega; the horizon
    is rounded to a whole number of steps, at least one.  A step or
    horizon that is not positive and finite raises NonPositiveError, and
    a step count past ``_MAX_STEPS`` GridTooLargeError, before any array
    is made.
    """
    source = ""
    if step is None:  # at a Delta near the double range's end the default underflows to 0
        step = default_step(p, scales)
        source = "; the default step is 2*pi/(640*max(Omega1, Delta, |epsilon|))"
    elif not 0.0 < step < math.inf:
        raise NonPositiveError(f"step must be positive and finite, got {step}")
    if horizon is None:
        horizon = _DEFAULT_HORIZON_PERIODS / p.Omega
    if not 0.0 < horizon < math.inf:
        raise NonPositiveError(f"horizon must be positive and finite, got {horizon}")
    count = horizon / step if step else math.inf
    if not count <= _MAX_STEPS:
        raise GridTooLargeError(
            f"horizon {horizon:.4g} over step {step:.4g} is {count:.3g} steps, "
            f"more than the {_MAX_STEPS:.0e} a run can hold{source}"
        )
    return step, max(int(round(count)), 1)


def niba_kernels(
    corr: CorrelationFn, delta: float, epsilon: float, h: float, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """The kernels (Ks, Ka) sampled on t_n = n*h, n = 0..n_steps.

    The grid is this function's own, so ``corr.pair`` takes S and R on it
    (the closed form from ``exp_tables``), and the bias factors
    cos(epsilon*t_n) and sin(epsilon*t_n) are the real and imaginary parts
    of e^{i*epsilon*h*n}, from the same tables: one complex product per
    sample, where np.cos and np.sin take one transcendental each.  The
    phase epsilon*h*n differs from epsilon*t_n by rounding alone.  Per
    sample, exp(-S) and cos(R), and sin(R) when biased, stay.
    """
    count = n_steps + 1
    t = h * np.arange(count)
    s_val, r_val = corr.pair(t)
    envelope = delta**2 * np.exp(-s_val)
    ks = envelope * np.cos(r_val)
    if epsilon == 0.0:  # cos(0) = 1 would leave every bit of ks as it is, and Ka vanishes
        return ks, np.zeros(count)
    rate = complex(0.0, epsilon * h)
    bias = np.multiply.outer(*exp_tables(lambda k: rate * k, count)).ravel()[:count]
    ks *= bias.real
    return ks, envelope * np.sin(r_val) * bias.imag


def solve_gme(h: float, ks: np.ndarray, ka: np.ndarray) -> TimeSeries:
    """March P(t) over the kernels Ks and Ka sampled at t_n = n*h, n = 0..N.

    Product-integration trapezoid for the convolution combined with an
    implicit-trapezoid update, one fixed-point correction per step; global
    error O(h^2).  ``accel.march`` solves each leaf of up to 256 steps as
    one Toeplitz system and adds its history to later steps by FFT, so N
    steps cost O(N log^2 N) and no step runs in the interpreter.
    Raises NonFiniteStateError if the trace diverges.
    """
    n_steps = ks.shape[0] - 1
    # running trapezoid integral of Ka from t = 0: the cumulative sum of h*(Ka[k] + Ka[k+1])/2
    ka_int = np.concatenate(([0.0], np.cumsum(h * (ka[1:] + ka[:-1]) / 2.0)))
    p, bad = accel.march(h, ks, ka_int, n_steps)
    if bad != -1:
        raise NonFiniteStateError(f"population trace left the finite range at step {bad}")
    return TimeSeries(h=h, values=p)


def simulate_population(
    p: SystemParams,
    scales: DerivedScales | None = None,
    step: float | None = None,
    horizon: float | None = None,
    correlation: str = "closed",
) -> TimeSeries:
    """Full pipeline: correlation function -> kernels -> P(t).

    ``correlation`` selects the evaluator: "closed" by default, or
    "quadrature" for validation runs, whose kernels come from the exact
    residue sums of ``quadrature_correlation`` at every grid point.  The
    step must resolve Omega1, Delta and |epsilon| with at least 40 points
    per period.
    """
    if scales is None:
        scales = derived_scales(p)
    step, n_steps = time_grid(p, scales, step, horizon)

    limit = 2.0 * math.pi / _MIN_POINTS_PER_PERIOD
    if step * _fastest_frequency(p, scales) > limit:
        raise StepTooLargeError(
            f"step {step:.4g} does not resolve the fastest oscillation; "
            f"need h*max(Omega1, Delta, |epsilon|) <= {limit:.4g}"
        )

    if correlation == "closed":
        corr = closed_form_correlation(p, scales)
    elif correlation == "quadrature":
        corr = quadrature_correlation(p, scales)
    else:
        raise ValueError(f"unknown correlation evaluator {correlation!r}")

    ks, ka = niba_kernels(corr, p.Delta, p.epsilon, step, n_steps)
    return solve_gme(step, ks, ka)
