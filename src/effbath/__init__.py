"""Qubit dynamics through a dissipative nonlinear oscillator, effective-bath style.

The package maps the composite qubit / nonlinear-oscillator / Ohmic-bath
system onto a qubit coupled to a single structured bath, evaluates the
bath correlation function, integrates the resulting master equation for
the population difference, and provides the matching weak-damping
analytic solution plus Fourier diagnostics.  The root binds only the
params layer, so importing it loads no numpy; the entry points live in
their modules: ``params`` (``SystemParams``, ``load_config``), ``gme``
(``simulate_population``), ``wda`` (``build_wda_spectrum``,
``wda_population``), ``spectrum`` (``fourier_spectrum``,
``peak_extract``), ``scenarios`` (``run_scenario``) and ``cli`` (``main``).
"""

from .params import build_params, derived_scales

__version__ = "0.1.0"
