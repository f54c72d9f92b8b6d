"""Files written through ``files.atomic_write``: a failed write keeps the old bytes."""

import builtins
import os

import numpy as np
import pytest

from deepself import files
from deepself.data import DatasetManifest, ManifestRow, write_manifest
from deepself.evaluation import FoldReport, PredictionSet, write_fold_report, write_predictions
from deepself.training import EpochRecord, write_history


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
