"""Two earlier forms of ``dsp.scalogram``, kept as its test oracles.

``oracle_scalogram`` is the power-of-two transform that the wavelet-sized
FFT replaced.  It zero-pads the signal to the next power of two (Torrence &
Compo, 1998, "A Practical Guide to Wavelet Analysis"), so a power-of-two
length is not padded at all and its end wraps onto its start.  Where the
padding covers the widest wavelet, its output is the same transform as
``dsp.scalogram``.

``loop_scalogram`` is the wavelet-sized transform with one inverse FFT per
scale, which the blocked calls must match bit for bit.
"""

import math

import numpy as np

from deepself.dsp import MORLET_OMEGA0, MORLET_SUPPORT, Signal, _fft_length, _morlet_bank


def next_pow2(n: int) -> int:
    return 1 << (n - 1).bit_length()


def oracle_scalogram(signal: Signal, n_voices: int, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """[scales x samples] Morlet CWT magnitude through FFTs of length ``next_pow2(n)``."""
    x = signal.samples[0]
    n = x.size
    n_fft = next_pow2(n)
    omega = 2.0 * math.pi * np.fft.fftfreq(n_fft)  # rad/sample
    n_scales = int(math.floor(n_voices * math.log2(fmax_hz / fmin_hz) + 1e-9)) + 1
    freqs = fmax_hz / 2.0 ** (np.arange(n_scales) / n_voices)
    scales = MORLET_OMEGA0 * signal.sample_rate / (2.0 * math.pi * freqs)
    spectrum = np.fft.fft(x, n=n_fft)
    out = np.empty((n_scales, n))
    for row, s in enumerate(scales):
        psi_hat = math.sqrt(2.0 * math.pi * s) * math.pi ** -0.25 * np.exp(-0.5 * (s * omega - MORLET_OMEGA0) ** 2)
        psi_hat[omega <= 0.0] = 0.0  # analytic; fftfreq puts the Nyquist bin at -0.5
        out[row] = np.abs(np.fft.ifft(spectrum * psi_hat)[:n])
    return out


def loop_scalogram(signal: Signal, n_voices: int, fmin_hz: float, fmax_hz: float) -> np.ndarray:
    """[scales x samples] ``dsp.scalogram`` with one inverse FFT per scale, as it ran before its blocked calls.

    Same ``_fft_length`` and cached ``_morlet_bank``, so its bits are the ones
    the blocked transform must give.
    """
    x = signal.samples[0]
    n = x.size
    s_max = MORLET_OMEGA0 * signal.sample_rate / (2.0 * math.pi * fmin_hz)
    n_fft = _fft_length(n + min(math.ceil(MORLET_SUPPORT * s_max), n))
    freqs, bank = _morlet_bank(n_fft, signal.sample_rate, n_voices, fmin_hz, fmax_hz)
    spectrum = np.fft.fft(x, n=n_fft)[1:n_fft // 2]
    product = np.zeros(n_fft, dtype=np.complex128)
    out = np.empty((len(freqs), n))
    for row, psi_hat in enumerate(bank):
        np.multiply(spectrum, psi_hat, out=product[1:n_fft // 2])
        np.abs(np.fft.ifft(product)[:n], out=out[row])
    return out
