"""Filter-design and feature-map tests.

The Butterworth checks evaluate the returned biquad coefficients on the unit
circle with an independent transfer-function implementation, so the design
path is never trusted to judge itself.
"""

import cmath
import contextlib
import math
import os
import struct

import numpy as np
import pytest

from deepself import dsp
from deepself.dsp import (
    DSFM_MAGIC,
    IIR_BLOCK,
    SCALE_BLOCK,
    FeatureMap,
    Signal,
    apply_iir,
    design_butterworth_bandpass,
    frame_count,
    hz_to_mel,
    log_mel_spectrogram,
    mel_filterbank,
    mel_to_hz,
    read_feature_map,
    scalogram,
    spectrogram,
    write_feature_map,
)
from deepself.errors import (
    ConfigError,
    FormatError,
    IntegrityError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    VersionError,
)
from iir_oracle import oracle_apply_iir
from scalogram_oracle import loop_scalogram, next_pow2, oracle_scalogram


def cascade_gain(sections, freq_hz, sample_rate):
    """Independent oracle: |H(e^{j 2 pi f / fs})| from raw coefficients."""
    z1 = cmath.exp(-2j * math.pi * freq_hz / sample_rate)
    h = 1.0 + 0.0j
    for b0, b1, b2, a1, a2 in sections:
        h *= (b0 + b1 * z1 + b2 * z1 * z1) / (1.0 + a1 * z1 + a2 * z1 * z1)
    return abs(h)


def peak_gain(cascade, n_grid=4096):
    freqs = np.linspace(0.0, cascade.sample_rate / 2.0, n_grid)
    return max(cascade_gain(cascade.sections, f, cascade.sample_rate) for f in freqs)


class TestSignal:
    def test_one_dimensional_input_becomes_single_channel(self):
        sig = Signal(np.zeros(5), 100.0)
        assert sig.channels == 1
        assert sig.length == 5

    def test_rejects_empty(self):
        with pytest.raises(ShapeError):
            Signal(np.zeros((1, 0)), 100.0)

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            Signal(np.array([0.0, np.nan]), 100.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            Signal(np.zeros(4), 0.0)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_rejects_non_finite_rate(self, rate):
        # NaN <= 0 is false: a NaN rate once reached spectrogram's row axis
        with pytest.raises(ConfigError, match="positive and finite"):
            Signal(np.zeros(4), rate)
        with pytest.raises(ConfigError, match="positive and finite"):
            design_butterworth_bandpass(0.5, 30.0, rate)


class TestButterworthDesign:
    def test_eeg_band_edges_sit_three_db_below_peak(self):
        cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)
        peak = peak_gain(cascade)
        for edge in (0.5, 30.0):
            rel_db = 20.0 * math.log10(cascade_gain(cascade.sections, edge, 173.61) / peak)
            assert abs(rel_db - (-3.0103)) < 0.05

    def test_dc_is_blocked(self):
        cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)
        assert cascade_gain(cascade.sections, 0.0, 173.61) < 1e-8

    def test_nyquist_is_blocked(self):
        cascade = design_butterworth_bandpass(100.0, 2000.0, 16000.0)
        assert cascade_gain(cascade.sections, 8000.0, 16000.0) < 1e-8

    def test_four_sections_eight_poles(self):
        cascade = design_butterworth_bandpass(100.0, 2000.0, 16000.0)
        assert len(cascade.sections) == 4
        assert len(cascade.poles()) == 8

    def test_reversed_cutoffs_rejected(self):
        with pytest.raises(ConfigError):
            design_butterworth_bandpass(30.0, 0.5, 173.61)

    def test_cutoffs_must_respect_nyquist(self):
        with pytest.raises(ConfigError):
            design_butterworth_bandpass(0.0, 30.0, 173.61)
        with pytest.raises(ConfigError):
            design_butterworth_bandpass(10.0, 90.0, 173.61)
        with pytest.raises(ConfigError):
            design_butterworth_bandpass(10.0, 30.0, -5.0)

    def test_random_designs_stable_and_on_spec(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            fs = rng.uniform(50.0, 48000.0)
            low = rng.uniform(1e-3, 0.4) * fs
            high = rng.uniform(low / fs + 0.02, 0.49) * fs
            cascade = design_butterworth_bandpass(low, high, fs)
            assert np.all(np.abs(cascade.poles()) < 1.0)
            peak = peak_gain(cascade, n_grid=512)
            peak = max(peak, cascade_gain(cascade.sections, math.sqrt(low * high), fs))
            for edge in (low, high):
                rel_db = 20.0 * math.log10(cascade_gain(cascade.sections, edge, fs) / peak)
                assert abs(rel_db - (-3.0103)) < 0.05, (low, high, fs)


class TestApplyIir:
    def setup_method(self):
        self.cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)

    def test_zero_in_zero_out(self):
        out = apply_iir(Signal(np.zeros(256), 173.61), self.cascade)
        np.testing.assert_array_equal(out.samples, 0.0)

    def test_constant_signal_is_rejected_in_the_tail(self):
        n = 4000
        out = apply_iir(Signal(np.ones(n), 173.61), self.cascade)
        tail = out.samples[0, -n // 10:]
        assert np.max(np.abs(tail)) < 1e-3

    def test_impulse_response_decays(self):
        n = 8000
        x = np.zeros(n)
        x[0] = 1.0
        out = apply_iir(Signal(x, 173.61), self.cascade)
        settle = int(10 * 173.61 / 0.5)
        assert np.max(np.abs(out.samples[0, settle + 1:])) < 1e-6

    def test_sample_rate_mismatch(self):
        with pytest.raises(ConfigError):
            apply_iir(Signal(np.zeros(16), 200.0), self.cascade)

    def test_channels_filtered_independently(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(300)
        both = apply_iir(Signal(np.stack([x, np.zeros(300)]), 173.61), self.cascade)
        single = apply_iir(Signal(x, 173.61), self.cascade)
        np.testing.assert_array_equal(both.samples[0], single.samples[0])
        np.testing.assert_array_equal(both.samples[1], 0.0)

    def test_passband_tone_survives_stopband_tone_dies(self):
        fs = 173.61
        t = np.arange(3000) / fs
        inband = apply_iir(Signal(np.sin(2 * math.pi * 10.0 * t), fs), self.cascade)
        outband = apply_iir(Signal(np.sin(2 * math.pi * 70.0 * t), fs), self.cascade)
        assert np.max(np.abs(inband.samples[0, -300:])) > 0.9
        assert np.max(np.abs(outband.samples[0, -300:])) < 0.05

    def test_output_length_matches_input(self):
        out = apply_iir(Signal(np.ones(123), 173.61), self.cascade)
        assert out.length == 123 and out.channels == 1


def relative_error(got, oracle):
    """Worst |got - oracle| as a fraction of the oracle's peak, per channel."""
    peak = np.max(np.abs(oracle), axis=1, keepdims=True)
    return float(np.max(np.abs(got - oracle) / peak))


class TestBlockFilterAgainstOracle:
    """apply_iir's block realization against the per-sample loop it replaced."""

    def test_default_eeg_band_within_1e_11(self):
        cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)
        rng = np.random.default_rng(17)
        t = np.arange(4097) / 173.61
        x = np.concatenate([100.0 * rng.standard_normal((3, 4097)),
                            np.sin(2 * math.pi * np.array([[0.5], [10.0], [30.0]]) * t)])
        sig = Signal(x, 173.61)
        assert relative_error(apply_iir(sig, cascade).samples, oracle_apply_iir(sig, cascade)) < 1e-11

    def test_design_range_within_1e_8_and_channels_do_not_share_bits(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        lengths = st.one_of(st.sampled_from([1, IIR_BLOCK - 1, IIR_BLOCK, IIR_BLOCK + 1, 4097]),
                            st.integers(1, 3 * IIR_BLOCK))

        # the acceptance design range: high = 1.05 * low at width 0, the narrowest band
        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(st.floats(50.0, 48000.0), st.floats(1e-3, 0.45), st.floats(0.0, 1.0),
                          st.integers(1, 3), lengths, st.integers(0, 2**32 - 1))
        def check(fs, low_fraction, width, channels, length, seed):
            low = low_fraction * fs
            high = 1.05 * low + width * (0.499 * fs - 1.05 * low)
            cascade = design_butterworth_bandpass(low, high, fs)
            sig = Signal(np.random.default_rng(seed).standard_normal((channels, length)), fs)
            got = apply_iir(sig, cascade).samples
            assert relative_error(got, oracle_apply_iir(sig, cascade)) <= 1e-8
            for ch in range(channels):
                alone = apply_iir(Signal(sig.samples[ch], fs), cascade).samples[0]
                assert got[ch].tobytes() == alone.tobytes()

        check()

    def test_block_matrices_are_built_once_per_cascade(self):
        dsp._block_matrices.cache_clear()
        cascade = design_butterworth_bandpass(0.5, 30.0, 173.61)
        for _ in range(3):
            apply_iir(Signal(np.ones(100), 173.61), cascade)
        info = dsp._block_matrices.cache_info()
        assert (info.misses, info.hits) == (1, 2)


class TestSpectrogram:
    def test_zero_signal_gives_zero_map(self):
        fm = spectrogram(Signal(np.zeros(2048), 16000.0), 1024, 512)
        np.testing.assert_array_equal(fm.values, 0.0)

    def test_sine_peaks_at_expected_bin(self):
        fs = 16000.0
        t = np.arange(16000) / fs
        fm = spectrogram(Signal(np.sin(2 * math.pi * 440.0 * t), fs), 1024, 512)
        assert fm.rows == 513
        expected_bin = round(440.0 * 1024 / fs)
        assert expected_bin == 28
        np.testing.assert_array_equal(np.argmax(fm.values, axis=0), expected_bin)

    def test_single_frame_when_window_covers_signal(self):
        fm = spectrogram(Signal(np.ones(1024), 16000.0), 1024, 512)
        assert fm.cols == 1
        assert frame_count(1024, 1024, 512) == 1

    def test_frame_count_formula(self):
        fm = spectrogram(Signal(np.ones(1000), 100.0), 128, 40)
        assert fm.cols == 1 + (1000 - 128) // 40

    def test_window_longer_than_signal_rejected(self):
        with pytest.raises(ConfigError):
            spectrogram(Signal(np.ones(100), 100.0), 128, 64)

    def test_bad_hop_rejected(self):
        with pytest.raises(ConfigError):
            spectrogram(Signal(np.ones(256), 100.0), 128, 0)
        with pytest.raises(ConfigError):
            spectrogram(Signal(np.ones(256), 100.0), 128, 129)

    def test_multichannel_rejected(self):
        with pytest.raises(ConfigError):
            spectrogram(Signal(np.zeros((2, 256)), 100.0), 128, 64)

    def test_axis_metadata_puts_time_on_columns(self):
        fs = 8000.0
        fm = spectrogram(Signal(np.ones(1600), fs), 200, 80)
        assert fm.seconds_per_frame == pytest.approx(80 / fs)
        assert fm.row_axis_hz.shape == (101,)
        assert fm.row_axis_hz[1] == pytest.approx(fs / 200)

    def test_energy_bounded_by_window_scaled_signal_energy(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(1024)
        fm = spectrogram(Signal(x, 100.0), 128, 128)
        assert fm.values.sum() <= 128 * np.sum(x * x) + 1e-9

    def test_values_are_power(self):
        # one frame of a DC-free ramp: compare against a direct DFT
        x = np.linspace(-1.0, 1.0, 64)
        fm = spectrogram(Signal(x, 100.0), 64, 64)
        window = 0.5 * (1 - np.cos(2 * math.pi * np.arange(64) / 64))
        oracle = np.abs(np.fft.rfft(x * window)) ** 2
        np.testing.assert_allclose(fm.values[:, 0], oracle, rtol=1e-12, atol=1e-12)


class TestMelFilterbank:
    def test_mel_scale_fixed_points(self):
        assert hz_to_mel(0.0) == 0.0
        assert abs(hz_to_mel(1000.0) - 1000.0) < 0.1

    def test_mel_round_trip(self):
        freqs = np.array([12.5, 440.0, 1000.0, 7742.0])
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, rtol=1e-12)

    def test_rows_peak_at_exactly_one(self):
        bank = mel_filterbank(26, 513, 16000.0, 0.0, 8000.0)
        assert bank.shape == (26, 513)
        np.testing.assert_array_equal(bank.max(axis=1), 1.0)

    def test_rows_have_single_maximum(self):
        bank = mel_filterbank(26, 513, 16000.0, 0.0, 8000.0)
        for row in bank:
            assert np.count_nonzero(row == row.max()) == 1

    def test_rows_non_negative(self):
        bank = mel_filterbank(40, 257, 16000.0, 50.0, 7000.0)
        assert np.all(bank >= 0.0)

    def test_range_violations_rejected(self):
        with pytest.raises(ConfigError):
            mel_filterbank(10, 257, 16000.0, -1.0, 8000.0)
        with pytest.raises(ConfigError):
            mel_filterbank(10, 257, 16000.0, 4000.0, 4000.0)
        with pytest.raises(ConfigError):
            mel_filterbank(10, 257, 16000.0, 0.0, 8001.0)
        with pytest.raises(ConfigError):
            mel_filterbank(0, 257, 16000.0, 0.0, 8000.0)

    def test_too_many_bands_for_resolution_rejected(self):
        with pytest.raises(ConfigError, match="band"):
            mel_filterbank(64, 9, 16000.0, 0.0, 8000.0)

    def test_bank_is_cached_per_geometry_and_read_only(self):
        bank = mel_filterbank(26, 513, 16000.0, 0.0, 8000.0)
        assert mel_filterbank(26, 513, 16000.0, 0.0, 8000.0) is bank
        assert not bank.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            bank[0, 0] = 2.0

    def test_rejected_geometry_raises_after_a_good_one_is_cached(self):
        mel_filterbank(1, 257, 16000.0, 0.0, 8000.0)
        for _ in range(2):
            with pytest.raises(ConfigError, match="n_mels"):
                mel_filterbank(0, 257, 16000.0, 0.0, 8000.0)
        # equal to the cached key's 1, but not an integer count
        for n_mels in (True, 1.0):
            with pytest.raises(ConfigError, match="n_mels must be an integer"):
                mel_filterbank(n_mels, 257, 16000.0, 0.0, 8000.0)


class TestLogMel:
    def test_zero_signal_hits_epsilon_floor(self):
        fm = log_mel_spectrogram(Signal(np.zeros(2048), 16000.0), 1024, 512, 40, 0.0, 8000.0)
        np.testing.assert_allclose(fm.values, math.log(1e-10), rtol=1e-12)

    def test_row_count_matches_bands(self):
        fm = log_mel_spectrogram(Signal(np.ones(2048), 16000.0), 1024, 512, 40, 0.0, 8000.0)
        assert fm.rows == 40
        assert fm.row_axis_hz.shape == (40,)
        assert np.all(np.diff(fm.row_axis_hz) > 0)

    def test_doubling_amplitude_raises_cells_by_at_most_ln4(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(4096)
        base = log_mel_spectrogram(Signal(x, 16000.0), 512, 256, 20, 0.0, 8000.0)
        loud = log_mel_spectrogram(Signal(2 * x, 16000.0), 512, 256, 20, 0.0, 8000.0)
        delta = loud.values - base.values
        assert np.all(delta >= -1e-12)
        assert np.all(delta <= math.log(4.0) + 1e-12)
        np.testing.assert_array_equal(
            np.argmax(loud.values, axis=0), np.argmax(base.values, axis=0)
        )


class TestScalogram:
    def test_zero_signal_gives_zero_map(self):
        fm = scalogram(Signal(np.zeros(512), 173.61), 8, 1.0, 40.0)
        np.testing.assert_array_equal(fm.values, 0.0)

    def test_ridge_matches_sine_frequency_within_one_voice(self):
        fs = 173.61
        n_voices = 8
        t = np.arange(2048) / fs
        fm = scalogram(Signal(np.sin(2 * math.pi * 10.0 * t), fs), n_voices, 1.0, 40.0)
        ridge = int(np.argmax(fm.values.mean(axis=1)))
        assert abs(math.log2(fm.row_axis_hz[ridge] / 10.0)) <= 1.0 / n_voices + 1e-9

    def test_one_column_per_sample(self):
        fm = scalogram(Signal(np.ones(300), 100.0), 4, 2.0, 40.0)
        assert fm.cols == 300
        assert fm.seconds_per_frame == pytest.approx(1.0 / 100.0)

    def test_rows_ordered_high_to_low(self):
        fm = scalogram(Signal(np.ones(64), 100.0), 4, 2.0, 40.0)
        assert np.all(np.diff(fm.row_axis_hz) < 0)
        assert fm.row_axis_hz[0] == pytest.approx(40.0)

    def test_linearity(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(700)
        base = scalogram(Signal(x, 173.61), 8, 1.0, 40.0)
        scaled = scalogram(Signal(3.7 * x, 173.61), 8, 1.0, 40.0)
        np.testing.assert_allclose(scaled.values, 3.7 * base.values,
                                   rtol=1e-5, atol=1e-5 * base.values.max())

    def test_range_violations_rejected(self):
        sig = Signal(np.ones(64), 100.0)
        with pytest.raises(ConfigError):
            scalogram(sig, 8, 0.0, 40.0)
        with pytest.raises(ConfigError):
            scalogram(sig, 8, 40.0, 1.0)
        with pytest.raises(ConfigError):
            scalogram(sig, 8, 1.0, 51.0)
        with pytest.raises(ConfigError):
            scalogram(sig, 0, 1.0, 40.0)


class TestBlockedScalogram:
    """scalogram's ``SCALE_BLOCK`` scales per inverse FFT against one inverse FFT per scale, bit for bit."""

    def test_benchmark_geometry_equals_the_per_scale_loop(self):
        fs = 173.61
        t = np.arange(4097) / fs
        sig = Signal(np.random.default_rng(17).standard_normal(4097) + np.sin(2 * math.pi * 10.0 * t), fs)
        got = scalogram(sig, 12, 2.0, 32.0).values
        assert got.shape[0] == 49 == 6 * SCALE_BLOCK + 1
        assert got.tobytes() == loop_scalogram(sig, 12, 2.0, 32.0).tobytes()

    def test_random_lengths_and_scale_counts_equal_the_per_scale_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(st.integers(8, 5000), st.one_of(st.sampled_from([1, 8, 9, 16]), st.integers(1, 40)),
                          st.integers(1, 12), st.floats(50.0, 1000.0), st.floats(0.02, 0.5),
                          st.integers(0, 2**32 - 1))
        @hypothesis.example(8, 1, 1, 100.0, 0.5, 0)
        @hypothesis.example(300, 8, 4, 100.0, 0.4, 1)
        @hypothesis.example(1000, 9, 12, 173.61, 0.2, 2)
        @hypothesis.example(5000, 16, 3, 500.0, 0.3, 3)
        def check(n, n_scales, n_voices, fs, fmax_fraction, seed):
            fmax = fmax_fraction * fs
            fmin = fmax / 2.0 ** ((n_scales - 0.5) / n_voices)  # half a voice past the last scale
            sig = Signal(np.random.default_rng(seed).standard_normal(n), fs)
            got = scalogram(sig, n_voices, fmin, fmax).values
            assert got.shape == (n_scales, n)
            assert got.tobytes() == loop_scalogram(sig, n_voices, fmin, fmax).tobytes()

        check()


def peak_relative_error(got, oracle):
    """Worst |got - oracle| as a fraction of the oracle map's peak."""
    return float(np.max(np.abs(got - oracle)) / np.max(np.abs(oracle)))


def widest_support(sample_rate, fmin_hz):
    """MORLET_SUPPORT scales of the widest wavelet, in samples, rounded up."""
    return math.ceil(dsp.MORLET_SUPPORT * dsp.MORLET_OMEGA0 * sample_rate / (2.0 * math.pi * fmin_hz))


def band_passed_noise(seed, n, fs, low, high):
    """Noise through the Butterworth band-pass, as ``preprocess --filter on`` feeds the scalogram."""
    noise = Signal(np.random.default_rng(seed).standard_normal(n), fs)
    return apply_iir(noise, design_butterworth_bandpass(low, high, fs))


class TestScalogramFftLength:
    """scalogram's wavelet-sized FFT against the power-of-two one it replaced.

    The random-geometry signals are band-passed to the scalogram's range.
    Both transforms drop the DC bin and the negative frequencies, where
    exp(-omega0^2 / 2) ~ 1.5e-8 of the Morlet spectrum lies, and each FFT
    length samples that share on its own grid; on white noise, with its
    energy near DC, the two lengths differ by up to ~2.7e-9 of the peak.
    """

    def test_benchmark_geometry_within_1e_9_of_the_power_of_two_transform(self):
        fs = 173.61
        rng = np.random.default_rng(17)
        t = np.arange(4097) / fs
        sig = Signal(rng.standard_normal(4097) + np.sin(2 * math.pi * 10.0 * t), fs)
        assert peak_relative_error(scalogram(sig, 12, 2.0, 32.0).values,
                                   oracle_scalogram(sig, 12, 2.0, 32.0)) <= 1e-9

    @staticmethod
    def geometries(min_length, max_length, room):
        """(n, fs, n_voices, fmin, fmax) strategy whose widest wavelet fits in ``room(n)`` samples."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def draw(draw):
            n = draw(st.one_of(st.sampled_from([1 << k for k in range(6, 13)]),
                               st.integers(min_length, max_length)))
            fs = draw(st.floats(50.0, 1000.0))
            fmax = draw(st.floats(0.02, 0.2)) * fs  # far from Nyquist, where the wavelets are cut
            least_fmin = 1.001 * dsp.MORLET_OMEGA0 * fs * dsp.MORLET_SUPPORT / (2.0 * math.pi * max(room(n), 1))
            hypothesis.assume(least_fmin < fmax / 1.01)
            return n, fs, draw(st.integers(1, 12)), draw(st.floats(least_fmin, fmax / 1.01)), fmax

        return draw()

    def test_random_lengths_where_the_power_of_two_does_not_wrap_within_1e_9(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(self.geometries(64, 6000, lambda n: next_pow2(n) - n),
                          hypothesis.strategies.integers(0, 2**32 - 1))
        def check(geometry, seed):
            n, fs, n_voices, fmin, fmax = geometry
            assert next_pow2(n) >= n + widest_support(fs, fmin)
            sig = band_passed_noise(seed, n, fs, fmin, fmax)
            assert peak_relative_error(scalogram(sig, n_voices, fmin, fmax).values,
                                       oracle_scalogram(sig, n_voices, fmin, fmax)) <= 1e-9

        check()

    def test_zero_extension_keeps_the_first_columns(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None, database=None)
        @hypothesis.given(self.geometries(64, 4096, lambda n: n), st.integers(1, 8192),
                          st.integers(0, 2**32 - 1))
        @hypothesis.example((4096, 173.61, 12, 2.0, 32.0), 1000, 5)  # the power-of-two FFT wraps here
        def check(geometry, extra, seed):
            n, fs, n_voices, fmin, fmax = geometry
            assert widest_support(fs, fmin) <= n
            x = band_passed_noise(seed, n, fs, fmin, fmax).samples[0]
            alone = scalogram(Signal(x, fs), n_voices, fmin, fmax).values
            extended = scalogram(Signal(np.concatenate([x, np.zeros(extra)]), fs), n_voices, fmin, fmax)
            assert peak_relative_error(extended.values[:, :n], alone) <= 1e-9

        check()

    def test_fft_length_is_the_smallest_even_5_smooth_number_not_below(self):
        def five_smooth(k):
            for p in (2, 3, 5):
                while k % p == 0:
                    k //= p
            return k == 1

        smooth_evens = [k for k in range(2, 12002, 2) if five_smooth(k)]
        for m in range(1, 6001):
            assert dsp._fft_length(m) == next(k for k in smooth_evens if k >= m)


@pytest.mark.parametrize("call", [
    lambda sig: spectrogram(sig, 64.7, 32),
    lambda sig: spectrogram(sig, 64, 32.5),
    lambda sig: scalogram(sig, 2.5, 2.0, 32.0),
    lambda sig: scalogram(sig, math.nan, 2.0, 32.0),
    lambda sig: mel_filterbank(2.5, 33, 100.0, 0.0, 50.0),
    lambda sig: log_mel_spectrogram(sig, 64, 32, 2.5, 0.0, 50.0),
], ids=["spectrogram-window_len", "spectrogram-hop", "scalogram-n_voices", "scalogram-n_voices-nan",
        "mel_filterbank-n_mels", "log_mel_spectrogram-n_mels"])
def test_non_integer_sizes_rejected(call):
    with pytest.raises(ConfigError, match="must be an integer"):
        call(Signal(np.ones(256), 100.0))


class TestFeatureMapFile:
    def _sample_map(self):
        rng = np.random.default_rng(21)
        values = rng.standard_normal((5, 9))
        return FeatureMap(values, np.linspace(100.0, 500.0, 5), 0.01)

    def test_round_trip(self, tmp_path):
        fm = self._sample_map()
        path = tmp_path / "map.dsfm"
        write_feature_map(fm, path)
        back = read_feature_map(path)
        assert back.rows == 5 and back.cols == 9
        np.testing.assert_array_equal(back.values, fm.values.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(back.row_axis_hz, fm.row_axis_hz)
        assert back.seconds_per_frame == fm.seconds_per_frame

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.dsfm"
        path.write_bytes(b"NOPE" + bytes(64))
        with pytest.raises(FormatError):
            read_feature_map(path)

    def test_bad_version(self, tmp_path):
        fm = self._sample_map()
        path = tmp_path / "map.dsfm"
        write_feature_map(fm, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            read_feature_map(path)

    def test_truncated(self, tmp_path):
        fm = self._sample_map()
        path = tmp_path / "map.dsfm"
        write_feature_map(fm, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 7])
        with pytest.raises(TruncatedFileError):
            read_feature_map(path)

    @pytest.mark.parametrize("rows, cols", [(0, 5), (2, 0)], ids=["no-rows", "no-columns"])
    def test_empty_map_rejected(self, tmp_path, rows, cols):
        path = tmp_path / "map.dsfm"
        path.write_bytes(b"DSFM" + struct.pack("<IIId", 1, rows, cols, 0.01) + bytes(8 * rows))
        with pytest.raises(FormatError, match=f"declares an empty {rows}x{cols} map"):
            read_feature_map(path)

    def test_bytes_after_map_rejected(self, tmp_path):
        path = tmp_path / "map.dsfm"
        write_feature_map(self._sample_map(), path)
        path.write_bytes(path.read_bytes() + b"\0" * 4)
        with pytest.raises(FormatError, match="4 bytes after the declared 5x9 map"):
            read_feature_map(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "map.dsfm"
        path.write_bytes(b"DSFM\x01\x00")
        with pytest.raises(TruncatedFileError):
            read_feature_map(path)

    @pytest.mark.parametrize("field", ["values", "row_axis_hz", "seconds_per_frame"])
    def test_non_finite_numbers_rejected(self, tmp_path, field):
        fm = self._sample_map()
        if field == "seconds_per_frame":
            fm.seconds_per_frame = math.nan
        else:
            getattr(fm, field)[1] = math.nan
        path = tmp_path / "map.dsfm"
        if field == "values":  # the writer refuses such a map, so its bytes are built here
            path.write_bytes(DSFM_MAGIC + struct.pack("<IIId", 1, fm.rows, fm.cols, fm.seconds_per_frame)
                             + fm.row_axis_hz.astype("<f8").tobytes() + fm.values.astype("<f4").tobytes())
        else:
            write_feature_map(fm, path)
        with pytest.raises(IntegrityError, match="non-finite"):
            read_feature_map(path)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e39], ids=["nan", "inf", "float32-overflow"])
    def test_non_finite_values_raise_before_writing(self, tmp_path, bad):
        path = tmp_path / "map.dsfm"
        write_feature_map(self._sample_map(), path)
        before = path.read_bytes()
        fm = self._sample_map()
        fm.values[4, 8] = bad
        for target in (path, tmp_path / "new.dsfm"):
            with pytest.raises(NumericError, match="not finite") as err:
                write_feature_map(fm, target)
            assert str(target) in str(err.value)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["map.dsfm"]

    def test_values_beyond_float32_raise_before_writing(self, tmp_path):
        fm = self._sample_map()
        fm.values[2, 3] = 1e39
        path = tmp_path / "map.dsfm"
        with pytest.raises(NumericError, match="feature values beyond the float32 range") as err:
            write_feature_map(fm, path)
        assert str(path) in str(err.value)
        assert os.listdir(tmp_path) == []

    def test_failed_write_keeps_previous_bytes_and_leaves_no_stray_file(self, tmp_path, monkeypatch):
        class FailingValues:
            """Handle whose write of the values array, after the header and row axis, fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, data):
                if isinstance(data, np.ndarray):
                    raise OSError("disk full")
                return self.fh.write(data)

        path = tmp_path / "map.dsfm"
        write_feature_map(self._sample_map(), path)
        before = path.read_bytes()
        failing = self._sample_map()
        real_atomic_write = dsp.atomic_write

        @contextlib.contextmanager
        def failing_atomic_write(target):
            with real_atomic_write(target) as fh:
                yield FailingValues(fh)

        monkeypatch.setattr(dsp, "atomic_write", failing_atomic_write)
        with pytest.raises(OSError, match="disk full"):
            write_feature_map(failing, path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["map.dsfm"]
        with pytest.raises(OSError, match="disk full"):
            write_feature_map(failing, tmp_path / "new.dsfm")
        assert os.listdir(tmp_path) == ["map.dsfm"]
