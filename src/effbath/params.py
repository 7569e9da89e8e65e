"""Physical parameters and derived scales.

Reduced units throughout: hbar = k_B = 1, frequencies in units of the
oscillator frequency Omega, energies in units of hbar*Omega.  The
nonlinearity ``alpha`` and inverse temperature ``beta`` are stored as
plain numbers in these units (alpha in hbar*Omega, beta in 1/(hbar*Omega)).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping, Optional

from .errors import (
    MissingKeyError,
    NegativeRateError,
    NonPositiveError,
    RegimeWarning,
    ScaleRangeError,
    UnknownKeyError,
    ZeroLengthError,
)

# Regime thresholds used only for (non-fatal) warnings.
_NONLINEARITY_WINDOW = 0.5  # warn when 3*alpha >= this fraction of hbar*Omega
_MATSUBARA_FACTOR = 5.0  # warn when k_B*T < factor * hbar*gammabar/(2*pi)

_REQUIRED_KEYS = ("Omega", "alpha", "g", "beta", "Delta", "epsilon")
_OPTIONAL_DEFAULTS = {"M": 1.0, "mu": 1.0}
_KNOWN_KEYS = (*_REQUIRED_KEYS, *_OPTIONAL_DEFAULTS, "gamma", "gamma_over_2piOmega", "q0")


@dataclass(frozen=True)
class SystemParams:
    """Inputs of the qubit + nonlinear-oscillator + Ohmic-bath model.

    Attributes
    ----------
    Omega : oscillator angular frequency (frequency unit)
    M : oscillator mass
    mu : qubit-coordinate effective mass (no formula reads it; it is only printed in the summary)
    alpha : scaled quartic nonlinearity, alpha = alphabar*y0**4/4
    g : scaled qubit-oscillator coupling, hbar*g = gbar*q0*y0/(2*sqrt(2))
    gamma : Ohmic damping rate of the oscillator, gamma = eta/M
    beta : inverse temperature
    Delta : qubit tunneling amplitude
    epsilon : qubit bias
    q0 : double-well minima separation, positive; defaults to y0 when not given
    """

    Omega: float
    alpha: float
    g: float
    gamma: float
    beta: float
    Delta: float
    epsilon: float = 0.0
    M: float = 1.0
    mu: float = 1.0
    q0: Optional[float] = None

    def with_alpha(self, alpha: float) -> "SystemParams":
        """Copy with a different nonlinearity (used for linear-twin runs)."""
        return replace(self, alpha=alpha)


@dataclass(frozen=True)
class DerivedScales:
    """Scales computed once from ``SystemParams`` and shared downstream.

    ``n1_pow4`` is the literal fourth power of n1; ``n1_pow4_first_order``
    keeps only the first order in the nonlinearity (1 - 6*alpha/Omega) and
    is the variant consumed by the master-equation coefficients.  Both are
    retained so sensitivity tests can compare them.
    """

    y0: float
    n1: float
    n1_pow4: float
    n1_pow4_first_order: float
    Omega1: float
    nth: float
    gammabar: float
    varsigma: float


def bose_occupation(energy: float, beta: float) -> float:
    """Thermal occupation 1/(exp(beta*energy) - 1), safe against overflow."""
    x = beta * energy
    if x <= 0.0:
        raise NonPositiveError("bose_occupation requires beta*energy > 0")
    if x > 700.0:  # exp would overflow; occupation is indistinguishable from 0
        return 0.0
    return 1.0 / math.expm1(x)


def regime_flags(p: SystemParams) -> list[str]:
    """Names of violated regime assumptions (empty when all hold)."""
    flags = []
    if p.g >= p.Omega:
        flags.append("weak-coupling (g < Omega)")
    if 3.0 * p.alpha >= _NONLINEARITY_WINDOW * p.Omega:
        flags.append("nonlinearity-window (3*alpha << hbar*Omega)")
    gammabar = derived_scales(p).gammabar
    if gammabar > 0.0 and 1.0 / p.beta < _MATSUBARA_FACTOR * gammabar / (2.0 * math.pi):
        flags.append("matsubara-validity (k_B*T >> hbar*gammabar/(2*pi))")
    return flags


def build_params(raw: Mapping[str, float]) -> SystemParams:
    """Validate a key-value mapping and return immutable ``SystemParams``.

    The damping may be given either directly (``gamma``) or in the scaled
    figure-caption form (``gamma_over_2piOmega``); the direct value wins if
    both are present.  A key the model does not read raises
    ``UnknownKeyError``.  Regime-flag violations emit ``RegimeWarning`` but
    do not fail.
    """
    unknown = [key for key in raw if key not in _KNOWN_KEYS]
    if unknown:
        raise UnknownKeyError(f"unknown key {', '.join(unknown)}; the keys read are {', '.join(_KNOWN_KEYS)}")
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise MissingKeyError(
                f"missing key {key}; the keys required are {', '.join(_REQUIRED_KEYS)}"
                " and gamma (or gamma_over_2piOmega)"
            )

    values = {key: float(raw[key]) for key in _REQUIRED_KEYS}
    for key, default in _OPTIONAL_DEFAULTS.items():
        values[key] = float(raw.get(key, default))

    if "gamma" in raw:
        values["gamma"] = float(raw["gamma"])
    elif "gamma_over_2piOmega" in raw:
        values["gamma"] = float(raw["gamma_over_2piOmega"]) * 2.0 * math.pi * values["Omega"]
    else:
        raise MissingKeyError("missing key gamma (or gamma_over_2piOmega)")

    if "q0" in raw and raw["q0"] is not None:
        values["q0"] = float(raw["q0"])

    for key in ("Omega", "M", "mu", "beta", "q0"):
        if key in values and not values[key] > 0.0:
            raise NonPositiveError(f"{key} must be > 0, got {values[key]}")
    for key in ("gamma", "alpha", "Delta"):
        if values[key] < 0.0:
            raise NegativeRateError(f"{key} must be >= 0, got {values[key]}")
    for key, value in values.items():
        if not math.isfinite(value):
            raise NonPositiveError(f"{key} must be finite, got {value}")

    p = SystemParams(**values)
    for flag in regime_flags(p):
        warnings.warn(f"regime assumption violated: {flag}", RegimeWarning, stacklevel=2)
    return p


def derived_scales(p: SystemParams) -> DerivedScales:
    """Compute all derived scales; deterministic and purely algebraic.

    Raises NonPositiveError for alpha > Omega/6, where the first-order
    factor 1 - 6*alpha/Omega, and with it the effective density, turns
    negative; alpha is compared with Omega/6 itself, so the float Omega/6
    passes however 1 - 6*alpha/Omega rounds.  Raises ScaleRangeError,
    naming the scales and the inputs, where a scale is not finite.
    """
    m_omega = p.M * p.Omega
    y0 = math.sqrt(1.0 / m_omega) if m_omega > 0.0 else math.inf
    n1 = 1.0 - 1.5 * p.alpha / p.Omega
    omega1 = p.Omega + 3.0 * p.alpha
    nth = bose_occupation(omega1, p.beta)
    gammabar = 0.5 * (2.0 * nth + 1.0) * p.gamma
    n1_pow4_first_order = 1.0 - 6.0 * p.alpha / p.Omega
    if p.alpha > p.Omega / 6.0:
        raise NonPositiveError(
            f"alpha = {p.alpha!r} exceeds Omega/6 = {p.Omega / 6.0!r}: the effective spectral density's"
            f" factor 1 - 6*alpha/Omega = {n1_pow4_first_order:.6g} is negative"
        )
    # at alpha = Omega/6 the factor can round to -2e-16; it is 0 there
    n1_pow4_first_order = max(n1_pow4_first_order, 0.0)
    try:
        varsigma = p.g**2 * p.gamma * n1_pow4_first_order / (math.pi * p.Omega**3)
    except (OverflowError, ZeroDivisionError):  # a float ** past the double range, or Omega**3 rounded to 0
        varsigma = math.inf
    scales = DerivedScales(
        y0=y0,
        n1=n1,
        n1_pow4=n1**4,
        n1_pow4_first_order=n1_pow4_first_order,
        Omega1=omega1,
        nth=nth,
        gammabar=gammabar,
        varsigma=varsigma,
    )
    bad = [f"{name} = {value!r}" for name, value in vars(scales).items() if not math.isfinite(value)]
    if bad:
        raise ScaleRangeError(
            f"the derived scales leave the double range ({', '.join(bad)}) at M = {p.M!r}, Omega = {p.Omega!r},"
            f" alpha = {p.alpha!r}, g = {p.g!r}, gamma = {p.gamma!r}, beta = {p.beta!r}"
        )
    return scales


def convert_couplings(p: SystemParams) -> tuple[float, float]:
    """Bare bilinear coupling gbar and bare quartic coefficient alphabar.

    gbar = 2*sqrt(2)*g/(q0*y0) and alphabar = 4*alpha/y0**4 in reduced
    units; q0 defaults to y0.
    """
    y0 = math.sqrt(1.0 / (p.M * p.Omega))
    q0 = p.q0 if p.q0 is not None else y0
    if q0 == 0.0 or y0 == 0.0:
        raise ZeroLengthError("q0 and y0 must be nonzero")
    gbar = 2.0 * math.sqrt(2.0) * p.g / (q0 * y0)
    alphabar = 4.0 * p.alpha / y0**4
    return gbar, alphabar


def load_config(path) -> dict[str, float]:
    """Read a flat key=value config file; '#' starts a comment, and a bad line raises ValueError naming it."""
    out: dict[str, float] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key in out:
                raise ValueError(f"{path}:{lineno}: {key} is set twice")
            try:
                out[key] = float(value)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: {key} = {value!r} is not a number") from None
    return out
