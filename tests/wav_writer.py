"""A RIFF PCM16 writer, the inverse of ``data.load_wav_pcm16``, for WAV fixtures."""

import struct

import numpy as np

from deepself.dsp import Signal


def write_wav_pcm16(signal: Signal, path):
    """Inverse of load_wav_pcm16 (clipping to the representable range)."""
    scaled = np.clip(np.round(signal.samples * 32768.0), -32768, 32767).astype("<i2")
    payload = scaled.T.reshape(-1).tobytes()
    channels, _ = signal.samples.shape
    rate = int(round(signal.sample_rate))
    header = struct.pack(
        "<4sI4s4sIHHIIHH4sI",
        b"RIFF", 36 + len(payload), b"WAVE",
        b"fmt ", 16, 1, channels, rate, rate * 2 * channels, 2 * channels, 16,
        b"data", len(payload),
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)
