"""Signal pre-processing: band-pass filtering and 2-D feature-map generation.

The Butterworth band-pass is designed from an order-4 analog low-pass
prototype (so 8 poles after the low-pass to band-pass transformation),
mapped to the z-domain with a prewarped bilinear transform, and returned as
a cascade of four biquad sections.  Filtering runs a single causal
direct-form-II-transposed pass with zero initial state.

Feature maps put time on the column axis, always.  The three transforms are
a periodic-Hann power spectrogram, its projection through a peak-one
triangular mel filterbank with natural-log compression, and the magnitude of
an analytic Morlet continuous wavelet transform on dyadic scales.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    FormatError,
    NumericError,
    ShapeError,
    TruncatedFileError,
    VersionError,
)

LOG_EPS = 1e-10
MORLET_OMEGA0 = 6.0
PROTOTYPE_ORDER = 4


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------


@dataclass
class Signal:
    """Uniformly sampled multi-channel series, stored as [channels x samples]."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] < 1:
            raise ShapeError(f"signal must be [channels x samples] with at least one sample, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise NumericError("signal holds non-finite values")
        if self.sample_rate <= 0:
            raise ConfigError(f"sample rate must be positive, got {self.sample_rate}")
        self.samples = arr
        self.sample_rate = float(self.sample_rate)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def length(self) -> int:
        return self.samples.shape[1]


def _require_single_channel(signal: Signal, what: str) -> np.ndarray:
    if signal.channels != 1:
        raise ConfigError(f"{what} expects a single-channel signal, got {signal.channels} channels")
    return signal.samples[0]


# ---------------------------------------------------------------------------
# Butterworth band-pass design
# ---------------------------------------------------------------------------


@dataclass
class FilterCascade:
    """Biquad cascade (b0, b1, b2, a1, a2 per section, a0 normalised to 1)."""

    sections: list[tuple[float, float, float, float, float]]
    low_hz: float
    high_hz: float
    sample_rate: float

    def poles(self) -> np.ndarray:
        """All z-plane poles of the cascade."""
        out = []
        for _, _, _, a1, a2 in self.sections:
            out.extend(np.roots([1.0, a1, a2]))
        return np.asarray(out)

    def response_at(self, freq_hz: float) -> complex:
        """Transfer function evaluated on the unit circle at ``freq_hz``."""
        z1 = cmath.exp(-2j * math.pi * freq_hz / self.sample_rate)
        z2 = z1 * z1
        h = 1.0 + 0.0j
        for b0, b1, b2, a1, a2 in self.sections:
            h *= (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
        return h

    def gain_db_at(self, freq_hz: float) -> float:
        mag = abs(self.response_at(freq_hz))
        if mag == 0.0:
            return -math.inf
        return 20.0 * math.log10(mag)


def _validate_band(low_hz: float, high_hz: float, sample_rate: float):
    if sample_rate <= 0:
        raise ConfigError(f"sample rate must be positive, got {sample_rate}")
    nyquist = sample_rate / 2.0
    if not (0.0 < low_hz < high_hz < nyquist):
        raise ConfigError(
            f"band edges must satisfy 0 < low < high < {nyquist} Hz "
            f"(Nyquist), got low={low_hz}, high={high_hz}"
        )


def design_butterworth_bandpass(low_hz: float, high_hz: float, sample_rate: float) -> FilterCascade:
    """Band-pass from an order-4 Butterworth low-pass prototype (8 poles).

    Both cutoffs are prewarped before the bilinear transform, so the digital
    magnitude is exactly 1/sqrt(2) of the passband peak at ``low_hz`` and
    ``high_hz`` up to arithmetic error.
    """
    _validate_band(low_hz, high_hz, sample_rate)
    fs2 = 2.0 * sample_rate
    warped_low = fs2 * math.tan(math.pi * low_hz / sample_rate)
    warped_high = fs2 * math.tan(math.pi * high_hz / sample_rate)
    center = math.sqrt(warped_low * warped_high)
    bandwidth = warped_high - warped_low

    # upper-half-plane prototype poles; their conjugates complete the set
    proto = [cmath.exp(1j * math.pi * (2 * k + PROTOTYPE_ORDER - 1) / (2 * PROTOTYPE_ORDER))
             for k in range(1, PROTOTYPE_ORDER // 2 + 1)]

    # low-pass -> band-pass: each prototype pole p yields the two roots of
    # s^2 - bandwidth*p*s + center^2
    analog_poles = []
    for p in proto:
        bp = bandwidth * p
        disc = cmath.sqrt(bp * bp - 4.0 * center * center)
        analog_poles.append((bp + disc) / 2.0)
        analog_poles.append((bp - disc) / 2.0)

    # bilinear transform; zeros land at z=+1 (from s=0) and z=-1 (from s=inf)
    z_poles = [(fs2 + s) / (fs2 - s) for s in analog_poles]

    # passband peak: the analog response is exactly 1 at the warped centre
    peak_freq = math.atan(center / fs2) * sample_rate / math.pi
    zc = cmath.exp(-2j * math.pi * peak_freq / sample_rate)
    zc2 = zc * zc

    sections = []
    for zp in z_poles:
        a1 = -2.0 * zp.real
        a2 = abs(zp) ** 2
        num = 1.0 - zc2          # (1 - z^-2), one zero at +1 and one at -1
        den = 1.0 + a1 * zc + a2 * zc2
        gain = abs(den) / abs(num)
        sections.append((gain, 0.0, -gain, a1, a2))
    return FilterCascade(sections, float(low_hz), float(high_hz), float(sample_rate))


def apply_iir(signal: Signal, cascade: FilterCascade) -> Signal:
    """Causal direct-form-II-transposed pass over every channel."""
    if signal.sample_rate != cascade.sample_rate:
        raise ConfigError(
            f"signal sample rate {signal.sample_rate} differs from "
            f"filter design rate {cascade.sample_rate}"
        )
    out = np.empty_like(signal.samples)
    for ch in range(signal.channels):
        x = signal.samples[ch].tolist()
        for b0, b1, b2, a1, a2 in cascade.sections:
            y = [0.0] * len(x)
            s1 = 0.0
            s2 = 0.0
            for i, xn in enumerate(x):
                yn = b0 * xn + s1
                s1 = b1 * xn - a1 * yn + s2
                s2 = b2 * xn - a2 * yn
                y[i] = yn
            x = y
        out[ch] = x
    return Signal(out, signal.sample_rate)


# ---------------------------------------------------------------------------
# Feature maps
# ---------------------------------------------------------------------------


@dataclass
class FeatureMap:
    """2-D time-frequency map; rows are bins/bands/scales, columns are time."""

    values: np.ndarray
    row_axis_hz: np.ndarray
    seconds_per_frame: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.row_axis_hz = np.asarray(self.row_axis_hz, dtype=np.float64)
        if self.values.ndim != 2:
            raise ShapeError(f"feature map must be 2-D, got shape {self.values.shape}")
        if self.row_axis_hz.shape != (self.values.shape[0],):
            raise ShapeError("row axis metadata must have one entry per row")

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def hann_window(length: int) -> np.ndarray:
    """Periodic Hann window."""
    n = np.arange(length)
    return 0.5 * (1.0 - np.cos(2.0 * math.pi * n / length))


def frame_count(n_samples: int, window_len: int, hop: int) -> int:
    return 1 + (n_samples - window_len) // hop


def spectrogram(signal: Signal, window_len: int, hop: int) -> FeatureMap:
    """One-sided power spectrogram with a periodic Hann window.

    Column t covers samples [t*hop, t*hop + window_len); rows hold
    window_len//2 + 1 frequency bins from DC upward.
    """
    x = _require_single_channel(signal, "spectrogram")
    window_len = int(window_len)
    hop = int(hop)
    if window_len > x.size:
        raise ConfigError(f"window of {window_len} samples exceeds signal length {x.size}")
    if not (0 < hop <= window_len):
        raise ConfigError(f"hop must satisfy 0 < hop <= window_len, got hop={hop}, window={window_len}")
    frames = frame_count(x.size, window_len, hop)
    window = hann_window(window_len)
    starts = np.arange(frames) * hop
    segments = x[starts[:, None] + np.arange(window_len)[None, :]] * window[None, :]
    spectrum = np.fft.rfft(segments, axis=1)
    power = np.abs(spectrum) ** 2
    bins = window_len // 2 + 1
    bin_hz = np.arange(bins) * signal.sample_rate / window_len
    return FeatureMap(power.T, bin_hz, hop / signal.sample_rate)


def hz_to_mel(freq_hz) -> np.ndarray:
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel) -> np.ndarray:
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft_bins: int, sample_rate: float,
                   fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Triangular filters on the mel scale, each row peak-normalised to 1.0.

    Rows index mel bands, columns the one-sided FFT bins of a window of
    2*(n_fft_bins - 1) samples.
    """
    if n_mels < 1:
        raise ConfigError(f"n_mels must be at least 1, got {n_mels}")
    nyquist = sample_rate / 2.0
    if not (0.0 <= fmin_hz < fmax_hz <= nyquist):
        raise ConfigError(
            f"mel range must satisfy 0 <= fmin < fmax <= {nyquist} Hz, got fmin={fmin_hz}, fmax={fmax_hz}"
        )
    if n_fft_bins < 2:
        raise ConfigError(f"need at least 2 FFT bins, got {n_fft_bins}")
    window_len = 2 * (n_fft_bins - 1)
    bin_hz = np.arange(n_fft_bins) * sample_rate / window_len
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    bank = np.zeros((n_mels, n_fft_bins))
    for i in range(n_mels):
        left, centre, right = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        rising = (bin_hz - left) / (centre - left)
        falling = (right - bin_hz) / (right - centre)
        bank[i] = np.maximum(0.0, np.minimum(rising, falling))
        peak = bank[i].max()
        if peak <= 0.0:
            raise ConfigError(
                f"mel band {i} captures no FFT bin; lower n_mels or use a longer window"
            )
        bank[i] /= peak
    return bank


def mel_band_centers(n_mels: int, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    mel_points = np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax_hz), n_mels + 2)
    return mel_to_hz(mel_points[1:-1])


def log_mel_spectrogram(signal: Signal, window_len: int, hop: int, n_mels: int,
                        fmin_hz: float, fmax_hz: float) -> FeatureMap:
    """Natural log of the mel-projected power spectrogram, floored at 1e-10."""
    power = spectrogram(signal, window_len, hop)
    bank = mel_filterbank(n_mels, power.rows, signal.sample_rate, fmin_hz, fmax_hz)
    values = np.log(bank @ power.values + LOG_EPS)
    centers = mel_band_centers(n_mels, fmin_hz, fmax_hz)
    return FeatureMap(values, centers, power.seconds_per_frame)


def _next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


@functools.lru_cache(maxsize=8)
def _morlet_bank(n_fft: int, sample_rate: float, n_voices: int, fmin_hz: float, fmax_hz: float):
    """(scale frequencies [S], analytic Morlet spectra [S, n_fft // 2 - 1]) of one scalogram geometry.

    The spectra hold only the positive frequencies, FFT bins 1 to n_fft/2 - 1;
    an analytic wavelet is zero at the others.  Cached per geometry, so both
    arrays are read-only.
    """
    omega = 2.0 * math.pi * np.fft.fftfreq(n_fft)[1:n_fft // 2]  # rad/sample
    n_octaves = math.log2(fmax_hz / fmin_hz)
    n_scales = int(math.floor(n_voices * n_octaves + 1e-9)) + 1
    j = np.arange(n_scales)
    freqs = fmax_hz / 2.0 ** (j / n_voices)
    scales = MORLET_OMEGA0 * sample_rate / (2.0 * math.pi * freqs)

    bank = np.empty((n_scales, omega.size))
    norm = math.pi ** -0.25
    for row, s in enumerate(scales):
        bank[row] = math.sqrt(2.0 * math.pi * s) * norm * np.exp(-0.5 * (s * omega - MORLET_OMEGA0) ** 2)
    freqs.flags.writeable = False
    bank.flags.writeable = False
    return freqs, bank


def scalogram(signal: Signal, n_voices: int, fmin_hz: float, fmax_hz: float) -> FeatureMap:
    """Magnitude of the analytic Morlet CWT on dyadic scales.

    Scales run ``n_voices`` per octave from ``fmax_hz`` down to ``fmin_hz``
    using the centre-frequency rule f = omega0 * fs / (2 pi s); rows are
    ordered high frequency to low, one column per input sample.
    """
    x = _require_single_channel(signal, "scalogram")
    if n_voices < 1:
        raise ConfigError(f"n_voices must be at least 1, got {n_voices}")
    nyquist = signal.sample_rate / 2.0
    if not (0.0 < fmin_hz < fmax_hz <= nyquist):
        raise ConfigError(
            f"scalogram range must satisfy 0 < fmin < fmax <= {nyquist} Hz, "
            f"got fmin={fmin_hz}, fmax={fmax_hz}"
        )
    n = x.size
    n_fft = _next_pow2(n)
    freqs, bank = _morlet_bank(n_fft, signal.sample_rate, n_voices, fmin_hz, fmax_hz)
    spectrum = np.fft.fft(x, n=n_fft)[1:n_fft // 2]
    product = np.zeros(n_fft, dtype=np.complex128)
    values = np.empty((len(freqs), n), dtype=np.float64)
    for row, psi_hat in enumerate(bank):
        np.multiply(spectrum, psi_hat, out=product[1:n_fft // 2])
        coeff = np.fft.ifft(product)
        values[row] = np.abs(coeff[:n])
    return FeatureMap(values, freqs.copy(), 1.0 / signal.sample_rate)  # the cached axis stays read-only


# ---------------------------------------------------------------------------
# Feature-map file format
# ---------------------------------------------------------------------------

DSFM_MAGIC = b"DSFM"
DSFM_VERSION = 1


def write_feature_map(fm: FeatureMap, path):
    """Binary little-endian layout: magic, version, rows, cols, axis, f32 data."""
    rows, cols = fm.rows, fm.cols
    with open(path, "wb") as fh:
        fh.write(DSFM_MAGIC)
        fh.write(struct.pack("<III", DSFM_VERSION, rows, cols))
        fh.write(struct.pack("<d", fm.seconds_per_frame))
        fh.write(fm.row_axis_hz.astype("<f8").tobytes())
        fh.write(fm.values.astype("<f4").tobytes())


def read_feature_map(path) -> FeatureMap:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != DSFM_MAGIC:
        raise FormatError(f"{path}: not a feature-map file (bad magic)")
    if len(blob) < 24:
        raise TruncatedFileError(f"{path}: header is incomplete")
    version, rows, cols = struct.unpack_from("<III", blob, 4)
    if version != DSFM_VERSION:
        raise VersionError(f"{path}: unsupported feature-map version {version}")
    (seconds_per_frame,) = struct.unpack_from("<d", blob, 16)
    offset = 24
    axis_bytes = rows * 8
    data_bytes = rows * cols * 4
    if len(blob) < offset + axis_bytes + data_bytes:
        raise TruncatedFileError(f"{path}: payload shorter than declared {rows}x{cols} map")
    axis = np.frombuffer(blob, dtype="<f8", count=rows, offset=offset)
    values = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=offset + axis_bytes)
    return FeatureMap(values.reshape(rows, cols).astype(np.float64), axis.copy(), seconds_per_frame)
