"""Filter-design and feature-map tests.

The Butterworth checks evaluate the returned biquad coefficients on the unit
circle with an independent transfer-function implementation, so the design
path is never trusted to judge itself.
"""

import cmath
import math

import numpy as np
import pytest

from deepself.dsp import (
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
    NumericError,
    ShapeError,
    TruncatedFileError,
    VersionError,
)


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

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "map.dsfm"
        path.write_bytes(b"DSFM\x01\x00")
        with pytest.raises(TruncatedFileError):
            read_feature_map(path)
