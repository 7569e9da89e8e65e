"""Qubit dynamics through a dissipative nonlinear oscillator, effective-bath style.

The package maps the composite qubit / nonlinear-oscillator / Ohmic-bath
system onto a qubit coupled to a single structured bath, evaluates the
bath correlation function, integrates the resulting master equation for
the population difference, and provides the matching weak-damping
analytic solution plus Fourier diagnostics.  The names below are the
pipeline's entry points; the building blocks live in the submodules.
"""

from .params import SystemParams, build_params, derived_scales, load_config
from .gme import simulate_population
from .wda import build_wda_spectrum, wda_population
from .spectrum import fourier_spectrum, peak_extract
from .scenarios import run_scenario

__version__ = "0.1.0"
