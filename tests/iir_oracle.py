"""The per-sample biquad loop that ``dsp.apply_iir`` replaced, kept as its test oracle.

Each section runs a causal direct-form-II-transposed pass with zero initial
state over the output of the section before it, one Python step per sample.
"""

import numpy as np

from deepself.dsp import FilterCascade, Signal


def oracle_apply_iir(signal: Signal, cascade: FilterCascade) -> np.ndarray:
    """[channels x samples] output of the cascade, filtered sample by sample."""
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
    return out
