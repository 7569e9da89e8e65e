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
from dataclasses import dataclass, field

import numpy as np
from scipy.integrate import cumulative_trapezoid

from . import accel
from .correlation import CorrelationFn, closed_form_correlation, quadrature_correlation
from .errors import NonFiniteStateError, StepTooLargeError
from .params import DerivedScales, SystemParams, derived_scales

__all__ = [
    "KernelGrid",
    "TimeSeries",
    "default_step",
    "niba_kernels",
    "solve_gme",
    "simulate_population",
]

# points per period of the fastest retained oscillation
_DEFAULT_POINTS_PER_PERIOD = 640
_MIN_POINTS_PER_PERIOD = 40
DEFAULT_HORIZON_PERIODS = 100.0  # horizon in units of 1/Omega


@dataclass(frozen=True)
class KernelGrid:
    """Symmetric/antisymmetric kernels sampled on a uniform time grid."""

    h: float
    ks: np.ndarray
    ka: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.h * np.arange(self.ks.shape[0])


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled population difference with solver metadata."""

    h: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

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


def niba_kernels(corr: CorrelationFn, delta: float, epsilon: float, h: float, n_steps: int) -> KernelGrid:
    """Sample the kernels on t_n = n*h, n = 0..n_steps."""
    t = h * np.arange(n_steps + 1)
    s_val, r_val = corr.pair(t)
    envelope = delta**2 * np.exp(-s_val)
    ks = envelope * np.cos(r_val) * np.cos(epsilon * t)
    ka = envelope * np.sin(r_val) * np.sin(epsilon * t)
    return KernelGrid(h=h, ks=ks, ka=ka)


def solve_gme(kernels: KernelGrid) -> TimeSeries:
    """March P(t) over the full kernel grid.

    Product-integration trapezoid for the convolution combined with an
    implicit-trapezoid update, one fixed-point correction per step; global
    error O(h^2).  Raises NonFiniteStateError if the trace diverges.
    """
    n_steps = kernels.ks.shape[0] - 1
    ka_int = cumulative_trapezoid(kernels.ka, dx=kernels.h, initial=0.0)
    p, bad = accel.march(kernels.h, kernels.ks, ka_int, n_steps)
    if bad != -1:
        raise NonFiniteStateError(f"population trace left the finite range at step {bad}")
    return TimeSeries(h=kernels.h, values=p, meta={"order": 2})


def simulate_population(
    p: SystemParams,
    scales: DerivedScales | None = None,
    step: float | None = None,
    horizon: float | None = None,
    correlation: str = "closed",
    quadrature_atol: float = 1e-8,
) -> TimeSeries:
    """Full pipeline: correlation function -> kernels -> P(t).

    ``correlation`` selects the evaluator ("closed" by default,
    "quadrature" for validation runs).  The step must resolve Omega1,
    Delta and |epsilon| with at least 40 points per period.
    """
    if scales is None:
        scales = derived_scales(p)
    if step is None:
        step = default_step(p, scales)
    if horizon is None:
        horizon = DEFAULT_HORIZON_PERIODS / p.Omega

    limit = 2.0 * math.pi / _MIN_POINTS_PER_PERIOD
    if step * _fastest_frequency(p, scales) > limit:
        raise StepTooLargeError(
            f"step {step:.4g} does not resolve the fastest oscillation; "
            f"need h*max(Omega1, Delta, |epsilon|) <= {limit:.4g}"
        )

    if correlation == "closed":
        corr = closed_form_correlation(p, scales)
    elif correlation == "quadrature":
        corr = quadrature_correlation(p, scales, atol=quadrature_atol)
    else:
        raise ValueError(f"unknown correlation evaluator {correlation!r}")

    n_steps = max(int(round(horizon / step)), 1)
    kernels = niba_kernels(corr, p.Delta, p.epsilon, step, n_steps)
    series = solve_gme(kernels)
    series.meta.update({"correlation": corr.kind, "step": step, "horizon": horizon})
    return series
