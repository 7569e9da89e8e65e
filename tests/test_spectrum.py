import numpy as np
import pytest

from effbath.errors import NoPeaksError, TooShortError
from effbath.gme import TimeSeries, simulate_population
from effbath.params import build_params
from effbath.scenarios import FIGURE_PARAMS, peak_entries, run_scenario
from effbath import spectrum
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


@pytest.mark.parametrize("window", ["none", "hann"])
@pytest.mark.parametrize("pad", [1, 8])
@pytest.mark.parametrize("n", [10_798, 4096, 1001])  # 10,798 = 2 * 5399, a prime
def test_band_transform_matches_the_full_fft(rng, n, pad, window):
    # twelve random lines inside the band; white noise would fill every
    # bin up to Nyquist, which the band check rejects
    h = 0.05
    t = h * np.arange(n)
    amplitudes, freqs, phases = rng.standard_normal(12), rng.uniform(0.2, 2.0, 12), rng.uniform(0.0, 6.3, 12)
    series = _series(np.exp(-0.01 * t) * (amplitudes * np.cos(np.outer(t, freqs) + phases)).sum(axis=1), h)
    band = fourier_spectrum(series, window, pad, omega_max=3.0)
    n_pad = n * pad
    omega = 2.0 * np.pi * np.fft.rfftfreq(n_pad, d=h)
    m = band.omega.size
    assert m < omega.size  # the chirp-z path, not the rfft one
    np.testing.assert_array_equal(band.omega, omega[:m])
    assert band.omega[-1] <= 3.0 < omega[m]
    processed = series.values - series.values.mean()
    if window == "hann":
        processed = processed * np.hanning(n)
    full = np.abs(np.fft.rfft(processed, n=n_pad))[:m]
    assert np.abs(band.magnitude - full).max() <= 1e-14 * full.max()


# numpy runs n_pad = 10,798 = 2 * 5399, 86,384 = 16 * 5399, 81,440 =
# 32 * 5 * 509 and the prime 12,007 by its own Bluestein, and the others
# (largest prime factors 43, 2, 167, 167 and 13) directly; one chirp-z
# plan serves every one, at half the length for an even n_pad (1001 * 2:
# odd n, even n_pad)
@pytest.mark.parametrize("n, pad", [
    (10_798, 1), (10_798, 8), (10_180, 8), (81_440, 1), (12_007, 1),
    (2408, 1), (4096, 1), (10_187, 1), (10_187, 8), (81_496, 1), (1001, 2),
])
def test_full_band_routed_lengths_match_the_rfft(rng, n, pad):
    series = _series(rng.standard_normal(n))
    spectrum._bluestein_plan.cache_clear()
    result = fourier_spectrum(series, zero_pad_factor=pad)
    assert spectrum._bluestein_plan.cache_info().currsize == 1
    assert result.omega.tobytes() == (2.0 * np.pi * np.fft.rfftfreq(n * pad, d=0.05)).tobytes()
    full = np.abs(np.fft.rfft(series.values - series.values.mean(), n=n * pad))
    assert np.abs(result.magnitude - full).max() <= 1e-14 * full.max()


@pytest.mark.parametrize("omega_max", [None, 3.0], ids=["full_band", "band"])
def test_a_kept_plan_gives_the_bytes_of_a_new_one(omega_max):
    t = 0.05 * np.arange(10_798)
    series = _series(np.exp(-0.01 * t) * (np.cos(0.85 * t) + 0.5 * np.cos(1.18 * t)))
    spectrum._bluestein_plan.cache_clear()
    spectrum._twiddle.cache_clear()
    new = fourier_spectrum(series, zero_pad_factor=8, omega_max=omega_max)
    kept = fourier_spectrum(series, zero_pad_factor=8, omega_max=omega_max)
    info = spectrum._bluestein_plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert kept.magnitude.tobytes() == new.magnitude.tobytes()
    n_pad = 8 * 10_798
    if omega_max is None:
        # the full band packs the 10,798 samples into 5,399 pairs and takes
        # their n_pad/2-point DFT, then unpacks it with the kept twiddle
        twiddle = spectrum._twiddle.cache_info()
        assert (twiddle.misses, twiddle.hits) == (1, 1)
        used = [*spectrum._bluestein_plan(5399, n_pad // 2, n_pad // 2), spectrum._twiddle(n_pad)]
    else:
        assert spectrum._twiddle.cache_info().currsize == 0
        used = spectrum._bluestein_plan(10_798, n_pad, new.omega.size)
    # the arrays just fetched are the kept ones: no plan was built for them
    assert spectrum._bluestein_plan.cache_info().misses == 1
    assert spectrum._twiddle.cache_info().misses == (omega_max is None)
    for array in used:
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_an_odd_full_band_is_the_chirp_z_of_the_trace(rng):
    # n_pad = 12,007 cannot be packed in pairs, so its full band is the
    # chirp-z transform of the trace itself
    series = _series(rng.standard_normal(12_007))
    result = fourier_spectrum(series)
    x = series.values - series.values.mean()
    assert result.magnitude.tobytes() == np.abs(spectrum._chirp_z(x, 12_007, 6004)).tobytes()


def test_a_band_widened_to_the_full_band_is_the_packed_transform(rng):
    # white noise fills every bin up to Nyquist, so the band doubles to the full band
    series = _series(rng.standard_normal(2000))
    spectrum._twiddle.cache_clear()
    widened = fourier_spectrum(series, "hann", 8, omega_max=0.5)
    assert widened.omega.size == widened.n_pad // 2 + 1 and spectrum._twiddle.cache_info().misses == 1
    full = fourier_spectrum(series, "hann", 8)
    assert widened.omega.tobytes() == full.omega.tobytes()
    assert widened.magnitude.tobytes() == full.magnitude.tobytes()


@pytest.mark.parametrize("n, pad", [(100, 1), (100, 2), (101, 2)])
def test_a_packed_full_band_finds_a_line_in_its_last_bin(n, pad):
    # the 3.13 line and its alias 2*pi - 3.13 meet in the last bin, at
    # Nyquist; the bin past it is its mirror, the bin before it
    t = np.arange(float(n))
    result = fourier_spectrum(_series(np.cos(0.3 * t) + np.cos(3.13 * t), 1.0), zero_pad_factor=pad)
    assert result.n_pad % 2 == 0 and result.omega.size == result.n_pad // 2 + 1 and result.omega[-1] == np.pi
    peaks = peak_extract(result, 2)
    assert (peaks[0].omega, peaks[0].height) == (np.pi, result.magnitude[-1])
    assert abs(peaks[1].omega - 0.3) <= result.resolution


def test_a_band_at_or_past_nyquist_is_the_full_rfft(rng):
    h = 0.05
    series = _series(rng.standard_normal(1001), h)
    full = fourier_spectrum(series, "hann", 8)
    for omega_max in (np.pi / h, full.omega[-1], 1e9):
        result = fourier_spectrum(series, "hann", 8, omega_max=omega_max)
        np.testing.assert_array_equal(result.omega, full.omega)
        np.testing.assert_array_equal(result.magnitude, full.magnitude)


@pytest.mark.parametrize("line", [4.0, 2.9], ids=["past_the_band", "at_its_edge"])
def test_a_band_that_misses_a_line_widens_until_it_holds_the_trace(energy_outside, line):
    t = 0.05 * np.arange(2000)
    series = _series(np.exp(-0.02 * t) * (np.cos(t) + 0.1 * np.cos(line * t)))
    # the window keeps the weak line above the strong one's sidelobes
    result = fourier_spectrum(series, "hann", 8, omega_max=3.0)
    full = fourier_spectrum(series, "hann", 8)
    m = result.omega.size
    assert result.omega.tobytes() == full.omega[:m].tobytes() and result.omega[-1] > line
    assert energy_outside(spectrum._windowed(series.values, "hann"), 8 * 2000, m) <= 1e-3
    assert np.abs(result.magnitude - full.magnitude[:m]).max() <= 1e-14 * full.magnitude.max()
    peaks = peak_extract(result, 2)
    assert sorted(round(peak.omega, 1) for peak in peaks) == [1.0, line]


@pytest.mark.parametrize("tag, overrides", [
    ("fig3", {}), ("fig5", {}), ("fig7", {}), ("custom", {"Delta": 4.0}),
], ids=["fig3", "fig5", "fig7", "custom_Delta_4"])
def test_figure_peaks_match_a_full_band_reference(tag, overrides):
    # the summary's peaks come from the band omega <= 3*Omega, widened until
    # it holds the trace; the same keys from the FFT up to Nyquist agree to
    # rounding
    params = build_params(dict(FIGURE_PARAMS.get(tag, FIGURE_PARAMS["fig3"]), **overrides))
    summary = run_scenario(tag, params)["summary.txt"]
    variants = [("niba_", params)]
    if tag == "fig7":
        variants = [("nonlinear_", params), ("linear_", params.with_alpha(0.0))]
    for prefix, prm in variants:
        full = fourier_spectrum(simulate_population(prm), zero_pad_factor=8)
        reference = peak_entries(full, 2, prefix)
        assert reference[f"{prefix}peak_shortage"] is False and summary[f"{prefix}peak_shortage"] is False
        for key, value in reference.items():
            if key.endswith(("_omega", "_height", "_half_width")):
                assert summary[key] == pytest.approx(value, rel=1e-13, abs=0.0), key
    if tag == "custom":  # the qubit's line, near Delta = 4, lies past 3*Omega
        assert max(summary["niba_peak1_omega"], summary["niba_peak2_omega"]) > 3.0


def test_a_band_never_takes_its_last_bin_as_a_peak():
    # bin-aligned lines at bins 48 and 239 of 1000 samples; the weak one
    # leaves about 2e-5 of the Hann-weighted energy past a band that ends at
    # bin 239, so the band holds, and its last bin has no neighbour past it
    n = 1000
    t = np.arange(n, dtype=float)
    lines = 2 * np.pi * np.array([48, 239]) / n
    series = _series(np.cos(lines[0] * t) + 0.01 * np.cos(lines[1] * t), 1.0)
    band = fourier_spectrum(series, omega_max=lines[1] * (1 + 1e-9))
    assert band.omega.size == 240 < band.n_pad // 2 + 1
    assert [q.omega for q in peak_extract(band, 2)] == pytest.approx(lines[:1])
    assert sorted(q.omega for q in peak_extract(fourier_spectrum(series), 2)) == pytest.approx(lines)
