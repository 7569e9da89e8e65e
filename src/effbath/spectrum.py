"""Discrete Fourier magnitude spectra of population traces and peak picking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BandTooNarrowError, NonPositiveError, NoPeaksError, TooShortError
from .gme import TimeSeries

__all__ = ["SpectrumResult", "Peak", "fourier_spectrum", "peak_extract"]

_MIN_SAMPLES = 64
# maxima below this fraction of the largest kept bin are numerical dust
_MIN_REL_HEIGHT = 1e-6
# a band that leaves more of the trace's Hann-weighted energy outside misses a line
_MAX_OUT_OF_BAND = 1e-3


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


def _chirp_z(x: np.ndarray, n_pad: int, m: int) -> np.ndarray:
    """Bins 0..m-1 of the n_pad-point DFT of ``x``, by Bluestein's chirp-z transform.

    jk = (j^2 + k^2 - (k - j)^2)/2 turns the DFT into a convolution with the
    chirp exp(i*pi*j^2/n_pad), taken as one FFT product of length the next
    power of two >= len(x) + m - 1.  The phase is reduced mod 2*n_pad in
    integers, so it stays exact at large j.
    """
    n = x.shape[0]
    j = np.arange(max(n, m), dtype=np.int64)
    chirp = np.exp(-1j * np.pi * ((j * j) % (2 * n_pad)) / n_pad)
    size = 1 << (n + m - 2).bit_length()
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1 :] = chirp[1:n][::-1].conj()
    product = np.fft.fft(x * chirp[:n], size) * np.fft.fft(kernel)
    return chirp[:m] * np.fft.ifft(product)[:m]


def _out_of_band(x: np.ndarray, bins: np.ndarray, pad: int) -> float:
    """Fraction of the energy of the Hann-weighted ``x`` that lies past the band.

    Parseval gives the energy of all n_pad bins from the samples alone.  A
    periodic Hann weight is the three-tap filter X[k]/2 - (X[k-pad] +
    X[k+pad])/4 on the band's bins ``bins`` (X[-k] = conj X[k]), which
    keeps the band one unpadded bin narrower.  Without the weight the
    jumps at the trace's ends would leave ~2% of a figure trace's energy
    past 3*Omega; with it, ~1e-9.
    """
    n = x.shape[0]
    weighted = x * (0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n))
    total = n * pad * float(weighted @ weighted)
    if total == 0.0:
        return 0.0
    k = max(bins.shape[0] - pad, 0)
    padded = np.concatenate([bins[pad:0:-1].conj(), bins])
    hann = np.abs(0.5 * padded[pad : pad + k] - 0.25 * (padded[:k] + padded[2 * pad : 2 * pad + k])) ** 2
    return 1.0 - (2.0 * hann.sum() - hann[:1].sum()) / total


def fourier_spectrum(
    series: TimeSeries, window: str = "none", zero_pad_factor: int = 1, omega_max: float | None = None
) -> SpectrumResult:
    """Magnitude of the DFT of the mean-removed (optionally windowed) trace.

    The mean is removed so the slow decay offset does not leak into the
    low-frequency bins; the default window is none because the validated
    traces decay well inside the horizon.

    The grid is that of the n*zero_pad_factor-point real FFT,
    2*pi*rfftfreq(n_pad, h).  ``omega_max`` keeps only its bins with
    omega <= omega_max; it must be positive and finite.  The path follows
    the band: with ``omega_max`` None, or at or past the last bin
    (Nyquist), the spectrum is ``np.fft.rfft`` to Nyquist; below it, the
    kept bins come from a chirp-z transform (Rabiner, Schafer & Rader,
    IEEE Trans. Audio Electroacoust. 17 (1969) 86), which costs a
    power-of-two FFT of length n + m - 1 for m bins, instead of one of the
    padded length.  Its omega column equals the head of the full grid
    exactly, and its magnitudes agree with the full FFT's within 1e-14 of
    the largest.  A band that leaves more than 1e-3 of the trace's
    Hann-weighted energy outside it misses a line, or cuts one at its
    edge, and raises BandTooNarrowError rather than return the bins.
    """
    n = series.values.shape[0]
    if n < _MIN_SAMPLES:
        raise TooShortError(f"need at least {_MIN_SAMPLES} samples, got {n}")
    if zero_pad_factor < 1:
        raise NonPositiveError(f"zero_pad_factor must be at least 1, got {zero_pad_factor}")
    if omega_max is not None and not 0.0 < omega_max < np.inf:
        raise NonPositiveError(f"omega_max must be positive and finite, got {omega_max}")
    processed = _windowed(series.values, window)
    n_pad = n * int(zero_pad_factor)
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=series.h)
    m = omega.shape[0] if omega_max is None else int(np.count_nonzero(omega <= omega_max))
    if m == omega.shape[0]:
        magnitude = np.abs(np.fft.rfft(processed, n=n_pad))
    else:
        omega = omega[:m]
        bins = _chirp_z(processed, n_pad, m)
        outside = _out_of_band(processed, bins, int(zero_pad_factor))
        if outside > _MAX_OUT_OF_BAND:
            raise BandTooNarrowError(
                f"omega_max = {omega_max:g} leaves {outside:.2g} of the trace's energy outside the band;"
                " a line lies beyond it, so raise omega_max"
            )
        magnitude = np.abs(bins)
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
    Maxima below 1e-6 of the spectrum's maximum are treated as numerical
    dust and ignored; for a band-limited spectrum that is the maximum
    over the band, not over the bins up to Nyquist.  If fewer than k
    maxima exist the available ones are returned, so a list shorter than
    k marks the shortage; an empty spectrum raises NoPeaksError.
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
