"""Signal pre-processing: band-pass filtering and 2-D feature-map generation.

The Butterworth band-pass is designed from an order-4 analog low-pass
prototype (so 8 poles after the low-pass to band-pass transformation),
mapped to the z-domain with a prewarped bilinear transform, and returned as
a cascade of four biquad sections.  Filtering is one causal pass with zero
initial state, computed by the block realization of Burrus (1972, "Block
realization of digital filters"): the cascade is one 8-state linear system,
and each block of ``IIR_BLOCK`` samples costs a few small matmuls instead of
a Python step per sample.  Its outputs match a per-sample
direct-form-II-transposed pass to rounding, not bit for bit.

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
    IntegrityError,
    NumericError,
    ShapeError,
    VersionError,
    check_integer,
)
from .files import Reader, atomic_write

LOG_EPS = 1e-10
MORLET_OMEGA0 = 6.0
MORLET_SUPPORT = 8.6  # wavelet half-width in scales: exp(-8.6**2 / 2) < 1e-16
PROTOTYPE_ORDER = 4
IIR_BLOCK = 64  # samples apply_iir filters per matmul
SCALE_BLOCK = 8  # scales scalogram inverse-transforms per FFT call


# ---------------------------------------------------------------------------
# Signals
# ---------------------------------------------------------------------------


def _check_sample_rate(sample_rate) -> float:
    if not 0 < sample_rate < math.inf:
        raise ConfigError(f"sample rate must be positive and finite, got {sample_rate}")
    return float(sample_rate)


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
        self.samples = arr
        self.sample_rate = _check_sample_rate(self.sample_rate)

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
    nyquist = _check_sample_rate(sample_rate) / 2.0
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


def _state_space(sections) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """(A, B, C, D) of the cascade, two states per section in section order.

    A section's direct-form-II-transposed step is y = b0*x + s1,
    s1' = b1*x - a1*y + s2, s2' = b2*x - a2*y; each section filters the
    output of the one before it.
    """
    a = np.zeros((0, 0))
    b = np.zeros(0)
    c = np.zeros(0)
    d = 1.0
    for b0, b1, b2, a1, a2 in sections:
        a_k = np.array([[-a1, 1.0], [-a2, 0.0]])
        b_k = np.array([b1 - a1 * b0, b2 - a2 * b0])
        n = a.shape[0]
        grown = np.zeros((n + 2, n + 2))
        grown[:n, :n] = a
        grown[n:, :n] = np.outer(b_k, c)
        grown[n:, n:] = a_k
        a = grown
        b = np.concatenate([b, b_k * d])
        c = np.concatenate([b0 * c, [1.0, 0.0]])
        d = b0 * d
    return a, b, c, d


@functools.lru_cache(maxsize=8)
def _block_matrices(sections: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cascade's block realization for blocks of ``IIR_BLOCK`` samples.

    For a row x of one block's inputs and the state s at its start, the
    block's outputs are ``x @ toeplitz + s @ observe`` and the state at its
    end is ``s @ advance + x @ drive``:

    - ``toeplitz`` [L, L]: entry (j, i) is the impulse response h[i - j], zero for j > i;
    - ``observe`` [n, L]: column i is C A^i;
    - ``drive`` [L, n]: row j is A^(L-1-j) B;
    - ``advance`` [n, n]: (A^L) transposed.

    Cached per cascade, so all four arrays are read-only.
    """
    a, b, c, d = _state_space(sections)
    observe = np.empty((a.shape[0], IIR_BLOCK))
    row = c
    for i in range(IIR_BLOCK):
        observe[:, i] = row
        row = row @ a
    impulse = np.concatenate([[d], b @ observe[:, :-1]])
    lag = np.abs(np.subtract.outer(np.arange(IIR_BLOCK), np.arange(IIR_BLOCK)))
    toeplitz = np.triu(impulse[lag])
    drive = np.empty((IIR_BLOCK, a.shape[0]))
    col = b
    for j in range(IIR_BLOCK - 1, -1, -1):
        drive[j] = col
        col = a @ col
    advance = np.linalg.matrix_power(a.T, IIR_BLOCK)
    matrices = (toeplitz, observe, drive, advance)
    for m in matrices:
        m.flags.writeable = False
    return matrices


def apply_iir(signal: Signal, cascade: FilterCascade) -> Signal:
    """Causal pass of the cascade over every channel, zero initial state.

    Block realization (Burrus, 1972): a channel is zero-padded to whole
    blocks of ``IIR_BLOCK`` samples.  One matmul gives every block's
    zero-state output and one more every block's drive into the 8-vector
    state; a loop of one step per block carries the state, and a last
    matmul adds each block's response to its starting state.  Channels are
    filtered one at a time, so a channel's output bits do not depend on the
    other channels.
    """
    if signal.sample_rate != cascade.sample_rate:
        raise ConfigError(
            f"signal sample rate {signal.sample_rate} differs from "
            f"filter design rate {cascade.sample_rate}"
        )
    toeplitz, observe, drive, advance = _block_matrices(tuple(cascade.sections))
    n = signal.length
    blocks = -(-n // IIR_BLOCK)
    out = np.empty_like(signal.samples)
    for ch, x in enumerate(signal.samples):
        padded = np.zeros((blocks, IIR_BLOCK))
        padded.reshape(-1)[:n] = x
        drives = padded @ drive
        states = np.zeros_like(drives)  # states[k]: the state at the start of block k
        for state, previous, push in zip(states[1:], states, drives):
            np.dot(previous, advance, out=state)
            state += push
        y = padded @ toeplitz
        y += states @ observe
        out[ch] = y.reshape(-1)[:n]
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
    window_len = check_integer("window_len", window_len, 1)
    hop = check_integer("hop", hop)
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


@functools.lru_cache(maxsize=8, typed=True)
def mel_filterbank(n_mels: int, n_fft_bins: int, sample_rate: float,
                   fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """Triangular filters on the mel scale, each row peak-normalised to 1.0.

    Rows index mel bands, columns the one-sided FFT bins of a window of
    2*(n_fft_bins - 1) samples.  Cached per geometry, so the bank is
    read-only; a rejected geometry is not cached and raises on every call.
    """
    n_mels = check_integer("n_mels", n_mels, 1)
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
    bank.flags.writeable = False
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


def _fft_length(m: int) -> int:
    """Smallest even 2^a * 3^b * 5^c not below ``m``, a length pocketfft transforms fast."""
    best, p5 = 2 * m, 1
    while p5 <= m:
        p35 = p5
        while p35 <= m:  # the shortest 2 * p35 * 2^k not below m
            best = min(best, 2 * p35 << ((m - 1) // (2 * p35)).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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

    The FFT zero-pads by the widest wavelet's support (``MORLET_SUPPORT``
    scales at ``fmin_hz``), capped at the signal length, so no column reads a
    wrapped sample while that support fits in the signal, at any length.
    The inverse FFTs take ``SCALE_BLOCK`` scales per call, each into a
    block that ends with the call; each row has the bits of its own ifft.
    """
    x = _require_single_channel(signal, "scalogram")
    n_voices = check_integer("n_voices", n_voices, 1)
    nyquist = signal.sample_rate / 2.0
    if not (0.0 < fmin_hz < fmax_hz <= nyquist):
        raise ConfigError(
            f"scalogram range must satisfy 0 < fmin < fmax <= {nyquist} Hz, "
            f"got fmin={fmin_hz}, fmax={fmax_hz}"
        )
    n = x.size
    s_max = MORLET_OMEGA0 * signal.sample_rate / (2.0 * math.pi * fmin_hz)
    n_fft = _fft_length(n + min(math.ceil(MORLET_SUPPORT * s_max), n))
    freqs, bank = _morlet_bank(n_fft, signal.sample_rate, n_voices, fmin_hz, fmax_hz)
    spectrum = np.fft.fft(x, n=n_fft)[1:n_fft // 2]
    product = np.zeros((SCALE_BLOCK, n_fft), dtype=np.complex128)
    values = np.empty((len(freqs), n), dtype=np.float64)
    for start in range(0, len(freqs), SCALE_BLOCK):
        k = min(SCALE_BLOCK, len(freqs) - start)
        np.multiply(spectrum, bank[start:start + k], out=product[:k, 1:n_fft // 2])
        np.abs(np.fft.ifft(product[:k], axis=1)[:, :n], out=values[start:start + k])
    return FeatureMap(values, freqs.copy(), 1.0 / signal.sample_rate)  # the cached axis stays read-only


# ---------------------------------------------------------------------------
# Feature-map file format
# ---------------------------------------------------------------------------

DSFM_MAGIC = b"DSFM"
DSFM_VERSION = 1


def write_feature_map(fm: FeatureMap, path):
    """Binary little-endian layout: magic, version, rows, cols, axis, f32 data.

    Written through ``files.atomic_write``: ``path`` holds either its old
    bytes or the whole new map.  Values that are NaN, infinite or beyond
    float32's range raise ``NumericError`` before anything is written, since
    ``read_feature_map`` refuses the non-finite numbers they would store.
    """
    rows, cols = fm.rows, fm.cols
    with np.errstate(over="ignore"):
        values = fm.values.astype("<f4", order="C")
    if not np.isfinite(values).all():
        raise NumericError(f"{path}: feature values beyond the float32 range of a .dsfm file, or not finite")
    with atomic_write(path) as fh:
        fh.write(DSFM_MAGIC)
        fh.write(struct.pack("<III", DSFM_VERSION, rows, cols))
        fh.write(struct.pack("<d", fm.seconds_per_frame))
        fh.write(fm.row_axis_hz.astype("<f8").tobytes())
        fh.write(values)


def read_feature_map(path) -> FeatureMap:
    reader = Reader(path)
    if reader.blob[:4] != DSFM_MAGIC:
        raise FormatError(f"{path}: not a feature-map file (bad magic)")
    version, rows, cols, seconds_per_frame = reader.unpack("<4xIIId")
    if version != DSFM_VERSION:
        raise VersionError(f"{path}: unsupported feature-map version {version}")
    if rows == 0 or cols == 0:
        raise FormatError(f"{path}: declares an empty {rows}x{cols} map")
    axis = reader.array("<f8", rows)
    values = reader.array("<f4", rows * cols, np.float64)
    reader.finish(f"the declared {rows}x{cols} map")
    for what, stored in (("seconds_per_frame", seconds_per_frame), ("row axis", axis), ("values", values)):
        if not np.isfinite(stored).all():
            raise IntegrityError(f"{path}: {what} holds non-finite numbers")
    return FeatureMap(values.reshape(rows, cols), axis, seconds_per_frame)
