"""The power-of-two ``dsp.scalogram`` that the wavelet-sized FFT replaced, kept as its test oracle.

It zero-pads the signal to the next power of two (Torrence & Compo, 1998,
"A Practical Guide to Wavelet Analysis"), so a power-of-two length is not
padded at all and its end wraps onto its start.  Where the padding covers
the widest wavelet, its output is the same transform as ``dsp.scalogram``.
"""

import math

import numpy as np

from deepself.dsp import MORLET_OMEGA0, Signal


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
