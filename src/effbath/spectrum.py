"""Discrete Fourier magnitude spectra of population traces and peak picking."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveError, NoPeaksError, TooShortError
from .gme import TimeSeries

__all__ = ["SpectrumResult", "Peak", "fourier_spectrum", "peak_extract"]

_MIN_SAMPLES = 64
# maxima below this fraction of the largest kept bin are numerical dust
_MIN_REL_HEIGHT = 1e-6
# a band that leaves more of the trace's Hann-weighted energy outside misses a line
_MAX_OUT_OF_BAND = 1e-3
# Bluestein plans kept, and twiddle tables: a sweep uses one key of each (its
# full band's half-length plan), a pass over the figure tags two plans
_PLANS = 8


@dataclass(frozen=True)
class SpectrumResult:
    """Magnitude spectrum on an angular-frequency grid.

    ``resolution`` is the unpadded bin width 2*pi/(N*h); zero padding only
    refines the plotted grid and the peak interpolation, never the stated
    resolution.  ``n_pad`` is the padded transform length: the spectrum
    holds the full band when it keeps n_pad//2 + 1 bins.
    """

    omega: np.ndarray
    magnitude: np.ndarray
    resolution: float
    n_pad: int


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


def _smooth_length(n: int) -> int:
    """The least 2^a * 3^b * 5^c >= n, a length pocketfft runs with its own radix passes."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


@functools.lru_cache(maxsize=_PLANS)
def _bluestein_plan(n: int, n_pad: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The chirp and the FFT of the convolution kernel of ``_chirp_z``, both read-only."""
    j = np.arange(max(n, m), dtype=np.int64)
    chirp = np.exp(-1j * np.pi * ((j * j) % (2 * n_pad)) / n_pad)
    size = _smooth_length(n + m - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:m] = chirp[:m].conj()
    kernel[size - n + 1 :] = chirp[1:n][::-1].conj()
    kernel = np.fft.fft(kernel)
    chirp.flags.writeable = False
    kernel.flags.writeable = False
    return chirp, kernel


@functools.lru_cache(maxsize=_PLANS)
def _twiddle(n_pad: int) -> np.ndarray:
    """exp(-2*pi*i*k/n_pad) for k = 0..n_pad//2, the unpacking factors of ``_packed_full_band``, read-only.

    w^k = w^(q*B) * w^r for k = q*B + r, B about sqrt(n_pad/2): two short
    ``exp`` tables and one outer product.  Up to n_pad = 10^6 that lies
    within 1e-15 of exp(-2*pi*i*k/n_pad) taken per k, at a sixth to a
    twelfth of its cost.
    """
    count = n_pad // 2 + 1
    block = math.isqrt(count - 1) + 1
    coarse = np.exp(-2j * np.pi * (block * np.arange(-(-count // block))) / n_pad)
    fine = np.exp(-2j * np.pi * np.arange(block) / n_pad)
    twiddle = np.outer(coarse, fine).ravel()[:count]
    twiddle.flags.writeable = False
    return twiddle


def _chirp_z(x: np.ndarray, n_pad: int, m: int) -> np.ndarray:
    """Bins 0..m-1 of the n_pad-point DFT of ``x``, by Bluestein's chirp-z transform.

    jk = (j^2 + k^2 - (k - j)^2)/2 turns the DFT into a convolution with the
    chirp exp(i*pi*j^2/n_pad), taken as one FFT product of length the least
    5-smooth number (2^a * 3^b * 5^c) >= len(x) + m - 1.  The phase is
    reduced mod 2*n_pad in integers, so it stays exact at large j.  The
    chirp and the kernel's FFT depend only on (len(x), n_pad, m); they are
    the transform's plan (Frigo & Johnson, Proc. IEEE 93 (2005) 216), built
    once per key and kept read-only in a small cache, so a hit returns the
    same bytes as a miss.  A call on a kept plan costs two FFTs of that
    length.  ``fourier_spectrum`` takes a band, and a full band at odd
    n_pad, from it directly; a full band at even n_pad from it through
    ``_packed_full_band``, at half the length.
    """
    n = x.shape[0]
    chirp, kernel = _bluestein_plan(n, n_pad, m)
    product = np.fft.fft(x * chirp[:n], kernel.shape[0]) * kernel
    return chirp[:m] * np.fft.ifft(product)[:m]


def _packed_full_band(x: np.ndarray, n_pad: int) -> np.ndarray:
    """Bins 0..n_pad/2 of the n_pad-point DFT of the real ``x``, n_pad even, from one half-length DFT.

    The samples are packed in pairs as z = x[0::2] + i*x[1::2], whose
    n_pad/2-point DFT Z (``_chirp_z`` on ceil(n/2) points) holds the DFTs
    of the even and the odd samples as its conjugate-even and -odd parts;
    so X[k] = (Z[k] + conj Z[-k])/2 - i*w^k*(Z[k] - conj Z[-k])/2 with
    w = exp(-2*pi*i/n_pad) (Cooley, Lewis & Welch, J. Sound Vib. 12 (1970)
    315).  The factors w^k are kept read-only next to the plan.
    """
    half = n_pad // 2
    pairs = np.ascontiguousarray(x if x.shape[0] % 2 == 0 else np.append(x, 0.0), dtype=float)
    packed = _chirp_z(pairs.view(complex), half, half)
    ends = np.append(packed, packed[0])  # Z[k] for k = 0..half, periodic in half
    mirror = ends[::-1].conj()  # conj Z[-k]
    return 0.5 * ((ends + mirror) - 1j * _twiddle(n_pad) * (ends - mirror))


def _head(x: np.ndarray, n_pad: int, m: int) -> np.ndarray:
    """Bins 0..m-1 of the n_pad-point DFT of the real ``x``: the packed transform for a full band at even n_pad."""
    if m == n_pad // 2 + 1 and n_pad % 2 == 0:
        return _packed_full_band(x, n_pad)
    return _chirp_z(x, n_pad, m)


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
    # a sum, not a dot: OpenBLAS threads its ddot past a few thousand
    # elements, and waking idle threads took 4-10 ms a call at n = 10,798,
    # against 0.03-0.2 ms for the sum (2-vCPU Xeon, numpy 2.4.6)
    total = n * pad * float(np.sum(weighted * weighted))
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
    2*pi*rfftfreq(n_pad, h), and the spectrum keeps a head of it: all
    n_pad//2 + 1 bins with ``omega_max`` None, else at least the bins
    with omega <= omega_max, which must be positive and finite.  The kept
    bins come from the chirp-z transform (``_chirp_z``; Rabiner, Schafer &
    Rader, IEEE Trans. Audio Electroacoust. 17 (1969) 86), which costs
    FFTs of the least 5-smooth length >= n + m - 1 for m bins, instead of
    one of the padded length.  The full band at even n_pad transforms the
    trace packed in pairs (``_packed_full_band``), ceil(n/2) points into
    n_pad/2 bins, so its FFTs are of the least 5-smooth length >=
    ceil(n/2) + n_pad/2 - 1; at odd n_pad it keeps the n-point transform
    into all n_pad//2 + 1 bins.  A band short of Nyquist that leaves more
    than 1e-3 of the trace's Hann-weighted energy outside it misses a
    line, or cuts one at its edge; it is doubled in bins, up to the full
    band, and transformed again until it holds all but that 1e-3.  So
    ``omega_max`` is the least band end, and a band that holds the trace
    at once (every figure band at 3*Omega) costs one transform.

    The omega column is the full grid's (or its head) exactly, and the
    magnitudes agree with ``np.fft.rfft``'s within 1e-14 of the largest
    (measured: 1.3e-15 at most).  Over the full band a kept plan costs
    more than ``np.fft.rfft`` at a length pocketfft runs directly, and less
    at one it runs by its own Bluestein (best of 7, 2-vCPU Xeon, numpy
    2.4.6, the call against ``rfft``: n = 10,800 at pad 8, 2.4-2.5 against
    0.9-1.4 ms; n = 10,798 at pad 1, 0.42 against 1.6-2.4 ms, 1.04-1.08 ms
    unpacked; at pad 8, 2.4-2.6 against 16-19 ms).
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
    bins = _head(processed, n_pad, m)
    while m < omega.shape[0] and _out_of_band(processed, bins, int(zero_pad_factor)) > _MAX_OUT_OF_BAND:
        m = min(2 * m, omega.shape[0])
        bins = _head(processed, n_pad, m)
    return SpectrumResult(
        omega=omega[:m],
        magnitude=np.abs(bins),
        resolution=2.0 * np.pi / (n * series.h),
        n_pad=n_pad,
    )


def _refine(omega: np.ndarray, left: float, mid: float, right: float, i: int) -> tuple[float, float]:
    """Quadratic interpolation of a local maximum at bin i over its magnitude and its neighbours'."""
    denom = left - 2.0 * mid + right
    if denom == 0.0:
        return float(omega[i]), float(mid)
    shift = 0.5 * (left - right) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    step = float(omega[1] - omega[0])
    height = mid - 0.25 * (left - right) * shift
    return float(omega[i]) + shift * step, float(height)


def _half_width(omega: np.ndarray, mag: np.ndarray, i: int, past_end: float | None = None) -> float:
    """Half the width over which the magnitude stays above half of bin i's.

    A walk that reaches the last bin above half steps one bin further
    when there is a magnitude ``past_end``.
    """
    half = 0.5 * mag[i]
    left = i
    while left > 0 and mag[left] > half:
        left -= 1
    right = i
    while right < mag.shape[0] - 1 and mag[right] > half:
        right += 1
    width = float(omega[right] - omega[left])
    if past_end is not None and right == mag.shape[0] - 1 and mag[right] > half:
        width += float(omega[-1] - omega[-2])
    return 0.5 * width


def peak_extract(spectrum: SpectrumResult, k: int) -> list[Peak]:
    """Top-k local maxima of the magnitude, tallest first.

    Each peak is refined by quadratic interpolation over three bins.
    Maxima below 1e-6 of the spectrum's maximum are treated as numerical
    dust and ignored; for a band-limited spectrum that is the maximum
    over the band, not over the bins up to Nyquist.  A band's last bin has
    no right neighbour and is never a peak; over the full band the
    neighbour past the last bin is its mirror, |X[n_pad - k]| = |X[k]|,
    so a line in the last bin is one.  If fewer than k maxima exist the
    available ones are returned, so a list shorter than k marks the
    shortage; an empty spectrum raises NoPeaksError.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    mag, omega = spectrum.magnitude, spectrum.omega
    m = mag.shape[0]
    # the magnitude past the last bin, or None where the band ends there
    past_end = mag[spectrum.n_pad - m] if m == spectrum.n_pad // 2 + 1 else None
    interior = (mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])
    indices = np.nonzero(interior)[0] + 1
    if past_end is not None and mag[-1] > mag[-2] and mag[-1] >= past_end:
        indices = np.append(indices, m - 1)
    indices = indices[mag[indices] >= _MIN_REL_HEIGHT * mag.max()]
    if indices.size == 0:
        raise NoPeaksError("no local maxima in magnitude spectrum")
    order = np.argsort(mag[indices])[::-1]
    chosen = indices[order][:k]
    peaks = []
    for i in chosen:
        right = past_end if i == m - 1 else mag[i + 1]
        loc, height = _refine(omega, mag[i - 1], mag[i], right, int(i))
        peaks.append(Peak(omega=loc, height=height, half_width=_half_width(omega, mag, int(i), past_end)))
    return peaks
