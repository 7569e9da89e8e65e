"""Discrete Fourier magnitude spectra of population traces and peak picking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveError, NoPeaksError, TooShortError
from .gme import TimeSeries

__all__ = ["SpectrumResult", "Peak", "fourier_spectrum", "peak_extract"]

_MIN_SAMPLES = 64
# maxima below this fraction of the global maximum are numerical dust
_MIN_REL_HEIGHT = 1e-6


@dataclass(frozen=True)
class SpectrumResult:
    """Magnitude spectrum on an angular-frequency grid.

    ``resolution`` is the unpadded bin width 2*pi/(N*h); zero padding only
    refines the plotted grid and the peak interpolation, never the stated
    resolution.
    """

    omega: np.ndarray
    magnitude: np.ndarray
    resolution: float


@dataclass(frozen=True)
class Peak:
    omega: float
    height: float
    half_width: float


def _windowed(values: np.ndarray, window: str) -> np.ndarray:
    centered = values - values.mean()
    if window == "none":
        return centered
    if window == "hann":
        return centered * np.hanning(values.shape[0])
    raise ValueError(f"unknown window {window!r}")


def fourier_spectrum(series: TimeSeries, window: str = "none", zero_pad_factor: int = 1) -> SpectrumResult:
    """Magnitude of the DFT of the mean-removed (optionally windowed) trace.

    The mean is removed so the slow decay offset does not leak into the
    low-frequency bins; the default window is none because the validated
    traces decay well inside the horizon.
    """
    n = series.values.shape[0]
    if n < _MIN_SAMPLES:
        raise TooShortError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    if zero_pad_factor < 1:
        raise NonPositiveError(f"zero_pad_factor must be at least 1, got {zero_pad_factor}")
    processed = _windowed(series.values, window)
    n_pad = n * int(zero_pad_factor)
    magnitude = np.abs(np.fft.rfft(processed, n=n_pad))
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=series.h)
    return SpectrumResult(
        omega=omega,
        magnitude=magnitude,
        resolution=2.0 * np.pi / (n * series.h),
    )


def _refine(omega: np.ndarray, mag: np.ndarray, i: int) -> tuple[float, float]:
    """Quadratic interpolation of a local maximum over three bins."""
    left, mid, right = mag[i - 1], mag[i], mag[i + 1]
    denom = left - 2.0 * mid + right
    if denom == 0.0:
        return float(omega[i]), float(mid)
    shift = 0.5 * (left - right) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    step = float(omega[1] - omega[0])
    height = mid - 0.25 * (left - right) * shift
    return float(omega[i]) + shift * step, float(height)


def _half_width(omega: np.ndarray, mag: np.ndarray, i: int) -> float:
    half = 0.5 * mag[i]
    left = i
    while left > 0 and mag[left] > half:
        left -= 1
    right = i
    while right < mag.shape[0] - 1 and mag[right] > half:
        right += 1
    return 0.5 * float(omega[right] - omega[left])


def peak_extract(spectrum: SpectrumResult, k: int) -> list[Peak]:
    """Top-k local maxima of the magnitude, tallest first.

    Each peak is refined by quadratic interpolation over three bins.
    Maxima below 1e-6 of the global maximum are treated as numerical
    dust and ignored.  If fewer than k maxima exist the available ones
    are returned, so a list shorter than k marks the shortage; an empty
    spectrum raises NoPeaksError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mag = spectrum.magnitude
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    indices = np.nonzero(interior)[0] + 1
    indices = indices[mag[indices] >= _MIN_REL_HEIGHT * mag.max()]
    if indices.size == 0:
        raise NoPeaksError("no local maxima in magnitude spectrum")
    order = np.argsort(mag[indices])[::-1]
    chosen = indices[order][:k]
    peaks = []
    for i in chosen:
        loc, height = _refine(spectrum.omega, mag, int(i))
        peaks.append(Peak(omega=loc, height=height, half_width=_half_width(spectrum.omega, mag, int(i))))
    return peaks
