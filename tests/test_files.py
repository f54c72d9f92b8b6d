"""Files written through ``files.atomic_write`` keep their old bytes on a failed write;
files read through ``files`` load or fail with a ``DeepSelfError``, a missing or
unreadable one included."""

import builtins
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from deepself import files
from deepself.config import RunConfig, load_config
from deepself.data import (
    DatasetManifest,
    ManifestRow,
    load_csv_series,
    load_manifest,
    load_pgm_image,
    load_sample,
    load_signal,
    load_wav_pcm16,
    write_manifest,
)
from deepself.dsp import FeatureMap, Signal, read_feature_map, write_feature_map
from deepself.errors import DeepSelfError, FormatError, TruncatedFileError
from deepself.evaluation import FoldReport, PredictionSet, read_predictions, write_fold_report, write_predictions
from deepself.models import Dense, ModelSpec, init_model
from deepself.training import EpochRecord, load_checkpoint, read_checkpoint, save_checkpoint, write_history
from wav_writer import write_wav_pcm16


def history(n):
    return [EpochRecord(e, 1.0 / e, 50.0 + e, 40.0 + e) for e in range(1, n + 1)]


def predictions(n):
    probs = np.random.default_rng(n).dirichlet(np.ones(3), size=n)
    return PredictionSet.from_probabilities([f"x{i}.wav" for i in range(n)], probs)


def fold_report(n):
    return FoldReport(list(range(1, n + 1)), [100.0 / (k + 2) for k in range(n)], [np.arange(k) for k in range(n)])


def manifest(n):
    rows = [ManifestRow(f"/data/s{i}.csv", f"s{i}.csv", "ab"[i % 2], "train", i % 3) for i in range(n)]
    return DatasetManifest(rows, {"a": 0, "b": 1})


# (writer, the object it writes for a size, the line end of the file's rows)
CSV_WRITERS = {
    "history": (write_history, history, b"\n"),
    "predictions": (write_predictions, predictions, b"\r\n"),
    "fold_report": (write_fold_report, fold_report, b"\r\n"),
    "manifest": (write_manifest, manifest, b"\r\n"),
}


class HalfFull:
    """A text file that refuses every write once ``limit`` characters are in it."""

    def __init__(self, fh, limit):
        self.fh, self.limit, self.count = fh, limit, 0

    def write(self, text):
        if self.count >= self.limit:
            raise OSError("disk full")
        self.count += len(text)
        return self.fh.write(text)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.mark.parametrize("name", sorted(CSV_WRITERS))
def test_failed_write_keeps_previous_bytes_and_leaves_no_stray_file(tmp_path, monkeypatch, name):
    writer, make, line_end = CSV_WRITERS[name]
    path, full = tmp_path / "out.csv", tmp_path / "full.csv"
    writer(make(3), path)
    before = path.read_bytes()
    assert before.endswith(line_end) and before.count(line_end) == before.count(b"\n")
    writer(make(8), full)
    half = len(full.read_bytes()) // 2
    full.unlink()

    def open_half_full(file, mode, **kwargs):
        return HalfFull(builtins.open(file, mode, **kwargs), half)

    monkeypatch.setattr(files, "open", open_half_full, raising=False)
    with pytest.raises(OSError, match="disk full"):
        writer(make(8), path)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["out.csv"]


def test_atomic_write_creates_a_missing_directory_and_leaves_no_stray_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "a" / "b" / "nested.bin", "plain.bin"):  # a bare name writes into the working directory
        with files.atomic_write(path) as fh:
            fh.write(b"bytes")
    assert sorted(os.listdir(tmp_path)) == ["a", "plain.bin"] and os.listdir(tmp_path / "a" / "b") == ["nested.bin"]
    assert (tmp_path / "a" / "b" / "nested.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes() == b"bytes"


# (writer of a small sample file, the loader under test) per binary format
BINARY_FORMATS = {
    "ckpt": (lambda path: save_checkpoint(init_model(ModelSpec((3,), (Dense(2),), 2, seed=0)), {"epoch": 1}, path),
             load_checkpoint),
    "dsfm": (lambda path: write_feature_map(FeatureMap(np.arange(6.0).reshape(2, 3), [100.0, 200.0], 0.01), path),
             read_feature_map),
    "wav": (lambda path: write_wav_pcm16(Signal([[0.0, 0.5, -0.25], [0.125, -1.0, 0.75]], 8000.0), path),
            load_wav_pcm16),
    "pgm-p5": (lambda path: path.write_bytes(b"P5\n3 2\n255\n" + bytes([0, 7, 255, 128, 1, 64])),
               load_pgm_image),
    "pgm-p2": (lambda path: path.write_bytes(b"P2\n# gray\n3 2\n255\n0 7 255\n128 1 64\n"),
               load_pgm_image),
}


@pytest.mark.parametrize("fmt", sorted(BINARY_FORMATS))
def test_every_bit_flip_and_truncation_loads_or_raises_deepself_error(tmp_path, fmt):
    write, load = BINARY_FORMATS[fmt]
    path = tmp_path / "sample"
    write(path)
    blob = path.read_bytes()
    load(path)
    variants = [blob[:length] for length in range(len(blob))]
    for bit in range(8 * len(blob)):
        flipped = bytearray(blob)
        flipped[bit // 8] ^= 1 << (bit % 8)
        variants.append(bytes(flipped))
    leaks = []
    for variant in variants:
        path.write_bytes(variant)
        try:
            load(path)
        except DeepSelfError:
            pass
        except Exception as exc:
            leaks.append((variant, repr(exc)))
    assert not leaks, f"{len(leaks)} of {len(variants)} variants leak, e.g. {leaks[0]}"


def test_reader_names_the_shortfall_and_the_bytes_left(tmp_path):
    path = tmp_path / "blob"
    path.write_bytes(bytes(range(10)))
    reader = files.Reader(path)
    assert reader.unpack("<HI") == (0x0100, 0x05040302)
    with pytest.raises(TruncatedFileError, match=f"^{re.escape(str(path))}: file ends 3 bytes early$"):
        reader.take(7)
    assert reader.array("<u2", 1, np.float64).tolist() == [0x0706]
    with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: 2 bytes after the header$"):
        reader.finish("the header")
    reader.take(2)
    reader.finish("the header")


# (reader, the extension of the path it is given) for every public reader, and
# for load_signal and load_sample once per extension they dispatch on
READERS = {
    "read_text": (files.read_text, ".txt"),
    "read_csv": (lambda path: next(files.read_csv(path)), ".csv"),
    "Reader": (files.Reader, ".bin"),
    "read_bytes": (files.read_bytes, ".bin"),
    "load_config": (load_config, ".cfg"),
    "RunConfig.digest": (lambda path: replace(RunConfig(), manifest=str(path)).digest(), ".csv"),
    "load_manifest": (load_manifest, ".csv"),
    "read_predictions": (read_predictions, ".csv"),
    "load_csv_series": (lambda path: load_csv_series(path, 100.0), ".csv"),
    "load_wav_pcm16": (load_wav_pcm16, ".wav"),
    "load_pgm_image": (load_pgm_image, ".pgm"),
    "read_feature_map": (read_feature_map, ".dsfm"),
    "read_checkpoint": (read_checkpoint, ".ckpt"),
    "load_checkpoint": (load_checkpoint, ".ckpt"),
    **{f"load_signal{ext}": (lambda path: load_signal(path, 100.0), ext) for ext in (".wav", ".csv", ".txt")},
    **{f"load_sample{ext}": (lambda path: load_sample(path, 100.0), ext)
       for ext in (".wav", ".csv", ".txt", ".pgm", ".dsfm")},
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_missing_directory_or_unreadable_path_raises_deepself_error_naming_it(tmp_path, name):
    read, ext = READERS[name]
    missing, directory, locked = (tmp_path / f"{stem}{ext}" for stem in ("missing", "directory", "locked"))
    directory.mkdir()
    locked.write_bytes(b"1.0\n")
    locked.chmod(0)
    cases = [missing, directory] + ([locked] if not os.access(locked, os.R_OK) else [])  # root reads mode 000
    try:
        for path in cases:
            with pytest.raises(DeepSelfError, match=re.escape(f"cannot read {path}: ")):
                read(path)
    finally:
        locked.chmod(0o600)
