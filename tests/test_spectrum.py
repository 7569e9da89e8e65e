import numpy as np
import pytest

from effbath.errors import NoPeaksError, TooShortError
from effbath.gme import TimeSeries
from effbath.scenarios import peak_entries
from effbath.spectrum import fourier_spectrum, peak_extract


def _series(values, h=0.05):
    return TimeSeries(h=h, values=np.asarray(values, dtype=float))


def test_pure_tone_peak_within_bin():
    h = 0.05
    t = h * np.arange(4096)
    series = _series(np.cos(0.9 * t), h)
    result = fourier_spectrum(series)
    peak = peak_extract(result, 1)[0]
    assert abs(peak.omega - 0.9) <= result.resolution


def test_constant_series_zero_spectrum():
    result = fourier_spectrum(_series(np.full(512, 0.7)))
    assert result.magnitude.max() <= 1e-12
    with pytest.raises(NoPeaksError):
        peak_extract(result, 1)


def test_too_short():
    with pytest.raises(TooShortError):
        fourier_spectrum(_series(np.ones(32)))


def test_pad_and_window_validation():
    series = _series(np.cos(np.arange(256) * 0.3))
    with pytest.raises(ValueError):
        fourier_spectrum(series, zero_pad_factor=0)
    with pytest.raises(ValueError):
        fourier_spectrum(series, window="hamming")


def test_resolution_independent_of_padding():
    h = 0.05
    series = _series(np.cos(0.9 * h * np.arange(1024)), h)
    a = fourier_spectrum(series)
    b = fourier_spectrum(series, zero_pad_factor=4)
    assert a.resolution == b.resolution
    assert b.omega.size > a.omega.size


def test_parseval_identity():
    rng = np.random.default_rng(7)
    values = rng.standard_normal(1000)
    series = _series(values, h=0.1)
    for window in ("none", "hann"):
        result = fourier_spectrum(series, window=window, zero_pad_factor=2)
        processed = values - values.mean()
        if window == "hann":
            processed = processed * np.hanning(values.size)
        n_pad = 2 * values.size
        mags = result.magnitude**2
        # one-sided spectrum: interior bins count twice
        energy = mags[0] + 2.0 * mags[1:-1].sum() + mags[-1] * (1 if n_pad % 2 == 0 else 2)
        assert energy / n_pad == pytest.approx((processed**2).sum(), rel=1e-10)


def test_two_tone_order_and_interpolation():
    # damped two-tone trace: peaks come back tallest-first and land within
    # a tenth of an unpadded bin of the true frequencies
    h = 0.01
    t = h * np.arange(8192)
    values = 0.6 * np.exp(-0.02 * t) * np.cos(0.85 * t) + 0.4 * np.exp(-0.025 * t) * np.cos(1.18 * t)
    result = fourier_spectrum(_series(values, h), zero_pad_factor=8)
    peaks = peak_extract(result, 2)
    assert len(peaks) == 2
    assert peaks[0].height >= peaks[1].height
    locs = sorted(q.omega for q in peaks)
    assert abs(locs[0] - 0.85) <= 0.1 * result.resolution
    assert abs(locs[1] - 1.18) <= 0.1 * result.resolution
    assert all(q.half_width > 0 for q in peaks)


def test_single_tone_shortage_flag():
    # a bin-aligned tone yields exactly one genuine maximum; asking for two
    # must degrade gracefully instead of raising
    n, h = 1024, 0.1
    omega0 = 2 * np.pi * 32 / (n * h)
    series = _series(np.cos(omega0 * h * np.arange(n)), h)
    peaks = peak_extract(fourier_spectrum(series), 2)
    assert len(peaks) == 1  # fewer than asked for: the shortage
    assert abs(peaks[0].omega - omega0) <= 0.1 * 2 * np.pi / (n * h)
    # the summary flag reads the shortage off the list's length
    assert peak_entries(fourier_spectrum(series), 2)["peak_shortage"] is True
    assert peak_entries(fourier_spectrum(series), 1)["peak_shortage"] is False


def test_hann_window_suppresses_leakage():
    h = 0.05
    t = h * np.arange(2048)
    series = _series(np.cos(0.9137 * t), h)  # deliberately off-bin
    raw = fourier_spectrum(series)
    windowed = fourier_spectrum(series, window="hann")
    # compare far-field leakage relative to each main peak
    far = raw.omega > 2.0
    assert (windowed.magnitude[far].max() / windowed.magnitude.max()
            < raw.magnitude[far].max() / raw.magnitude.max())


def test_population_spectrum_matches_pole_prediction(fig3_params, fig3_series):
    from effbath.wda import build_wda_spectrum

    spectrum = build_wda_spectrum(fig3_params)
    result = fourier_spectrum(fig3_series, zero_pad_factor=8)
    peaks = peak_extract(result, 2)
    locs = sorted(q.omega for q in peaks)
    assert abs(locs[0] - spectrum.omega_plus) <= result.resolution
    assert abs(locs[1] - spectrum.omega_minus) <= result.resolution
