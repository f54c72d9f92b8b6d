"""Seeded synthetic inputs for the benchmark.

Everything a run feeds to deepself comes from here and depends only on the
workload and the seed: the same pair always gives byte-identical files and
arrays.  The data is learnable on purpose, so the output checks can demand a
dev UAR floor: the class of an EEG-like series is the frequency of its
rhythm (its strength differs too), and the class of a recurrent sequence is the period of a pattern
that moves through its features.
"""

from __future__ import annotations

import os

import numpy as np

SAMPLE_RATE = 173.61  # Hz, the Bonn EEG recordings' rate
SERIES_LENGTH = 4097  # samples per Bonn segment
CLASS_RHYTHM_HZ = (6.0, 14.0)
CLASS_RHYTHM_AMPLITUDE = (1.0, 2.5)
CLASS_BASELINE = (0.0, 1.0)
SEQ_LENGTH = 64
SEQ_FEATURES = 8
SEQ_PERIODS = (16.0, 6.0)


def balanced_labels(rng, n: int) -> np.ndarray:
    return rng.permutation(np.arange(n) % 2).astype(np.int64)


def eeg_series(rng, labels) -> np.ndarray:
    """[N x 4097] float64: a class rhythm with jittered frequency, phase and amplitude in noise."""
    n = len(labels)
    t = np.arange(SERIES_LENGTH) / SAMPLE_RATE
    freq = np.take(CLASS_RHYTHM_HZ, labels) + rng.uniform(-1.0, 1.0, n)
    phase = rng.uniform(0.0, 2.0 * np.pi, n)
    amplitude = np.take(CLASS_RHYTHM_AMPLITUDE, labels) * rng.uniform(0.8, 1.2, n)
    rhythm = amplitude[:, None] * np.sin(2.0 * np.pi * freq[:, None] * t[None, :] + phase[:, None])
    baseline = np.take(CLASS_BASELINE, labels)[:, None]
    return baseline + rhythm + rng.normal(0.0, 1.0, (n, SERIES_LENGTH))


def sequences(rng, labels) -> np.ndarray:
    """[N x 64 x 8] float32: a wave of a class-specific period travelling across features."""
    n = len(labels)
    t = np.arange(SEQ_LENGTH)[None, :, None]
    f = np.arange(SEQ_FEATURES)[None, None, :]
    period = np.take(SEQ_PERIODS, labels)[:, None, None]
    phase = rng.uniform(0.0, 2.0 * np.pi, n)[:, None, None]
    wave = np.sin(2.0 * np.pi * (t + f) / period + phase)
    return (wave + rng.normal(0.0, 0.5, (n, SEQ_LENGTH, SEQ_FEATURES))).astype(np.float32)


def write_series_csv(series: np.ndarray, path):
    """One value per line, printed with enough digits to parse back exactly."""
    np.savetxt(path, series, fmt="%.17g")


def write_raw_dataset(series: np.ndarray, labels: np.ndarray, directory, folds: int) -> str:
    """Write one CSV per series plus a manifest with train/dev/test splits and folds.

    Row i gets fold ``i % folds``; fold 0 is the test split, fold 1 the dev
    split and the rest train, so ``train``, ``evaluate`` and ``evaluate --cv``
    all read the same manifest.
    """
    os.makedirs(directory, exist_ok=True)
    lines = ["path,label,split,fold"]
    for i, (row, label) in enumerate(zip(series, labels)):
        name = f"rec{i:04d}.csv"
        write_series_csv(row, os.path.join(directory, name))
        fold = i % folds
        split = "test" if fold == 0 else "dev" if fold == 1 else "train"
        lines.append(f"{name},c{label},{split},{fold}")
    manifest = os.path.join(directory, "manifest.csv")
    with open(manifest, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return manifest
