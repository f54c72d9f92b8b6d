"""Dataset ingestion: manifests, WAV (RIFF PCM16), CSV series, PGM images.

Every loader is deterministic and returns channels-first float arrays: audio
and series as [channels x samples], images as [1 x H x W] in [0, 1], stored
feature maps as [1 x rows x cols].  A stored series (one row, or a map whose
row axis is all zeros, as ``preprocess`` writes a filtered signal) loads as
[channels x samples].  Manifest paths are resolved relative to
the manifest file's directory.
"""

from __future__ import annotations

import io
import logging
import os
import struct
from dataclasses import dataclass

import numpy as np

from .dsp import Signal, read_feature_map
from .errors import (
    ConfigError,
    DataError,
    FormatError,
    TruncatedFileError,
    UnsupportedFormatError,
)
from .files import Reader, read_csv, read_int, read_text, write_csv

log = logging.getLogger("deepself")

SPLITS = ("train", "dev", "test")


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


@dataclass
class ManifestRow:
    path: str            # resolved path
    raw_path: str        # as written in the manifest (used as the instance id)
    label: str
    split: str | None = None
    fold: int | None = None


@dataclass
class DatasetManifest:
    rows: list[ManifestRow]
    label_map: dict[str, int]  # label name -> contiguous class index

    @property
    def n_classes(self) -> int:
        return len(self.label_map)

    def subset(self, split: str) -> list[ManifestRow]:
        return [r for r in self.rows if r.split == split]

    def labels(self) -> np.ndarray:
        return np.array([self.label_map[r.label] for r in self.rows], dtype=np.int64)

    def folds(self) -> np.ndarray:
        missing = [r.raw_path for r in self.rows if r.fold is None]
        if missing:
            raise DataError(f"manifest rows lack a fold id, e.g. {missing[0]!r}")
        return np.array([r.fold for r in self.rows], dtype=np.int64)


def load_manifest(path) -> DatasetManifest:
    """CSV with header ``path,label[,split][,fold]``; labels map lexicographically."""
    base_dir = os.path.dirname(os.path.abspath(path))
    records = read_csv(path)
    try:
        header = [h.strip() for h in next(records)[2]]
    except StopIteration:
        raise FormatError(f"{path}: manifest is empty") from None
    allowed = {"path", "label", "split", "fold"}
    unknown = [h for h in header if h not in allowed]
    if unknown:
        raise FormatError(f"{path}: unknown manifest column(s) {unknown}")
    if "path" not in header or "label" not in header:
        raise FormatError(f"{path}: manifest header needs 'path' and 'label', got {header}")
    if len(set(header)) != len(header):
        raise FormatError(f"{path}: duplicate manifest columns in {header}")
    col = {name: header.index(name) for name in header}

    rows: list[ManifestRow] = []
    seen_paths: set[str] = set()
    for _, line, record in records:
        where = f"{path} line {line}"
        if len(record) != len(header):
            raise FormatError(f"{where}: expected {len(header)} fields, got {len(record)}")
        raw = record[col["path"]].strip()
        label = record[col["label"]].strip()
        if not raw or not label:
            raise FormatError(f"{where}: path and label must be non-empty")
        split = None
        if "split" in col:
            split = record[col["split"]].strip() or None
            if split is not None and split not in SPLITS:
                raise FormatError(f"{where}: split must be one of {SPLITS}, got {split!r}")
        fold = None
        if "fold" in col:
            text = record[col["fold"]].strip()
            if text:
                fold = read_int(text, f"{where}: fold")
                if fold < 0:
                    raise FormatError(f"{where}: fold must be non-negative")
        resolved = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
        if not os.path.exists(resolved):
            raise DataError(f"{where}: referenced file not found: {resolved}")
        if raw in seen_paths:
            log.warning("manifest %s lists %s more than once", path, raw)
        seen_paths.add(raw)
        rows.append(ManifestRow(resolved, raw, label, split, fold))

    if not rows:
        raise DataError(f"{path}: manifest has no data rows")
    label_map = {name: i for i, name in enumerate(sorted({r.label for r in rows}))}
    return DatasetManifest(rows, label_map)


def write_manifest(manifest: DatasetManifest, path):
    """Write rows back out using their as-written paths (relative to the manifest)."""
    write_csv(path, ["path", "label", "split", "fold"],
              ([row.raw_path, row.label, row.split or "", "" if row.fold is None else row.fold]
               for row in manifest.rows))


# ---------------------------------------------------------------------------
# WAV (RIFF PCM16)
# ---------------------------------------------------------------------------


def load_wav_pcm16(path) -> Signal:
    """16-bit PCM RIFF/WAVE; samples scaled by 1/32768, channels de-interleaved."""
    reader = Reader(path)
    if reader.blob[:4] != b"RIFF" or reader.blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    reader.take(12)
    fmt = None
    payload = None
    while reader.remaining >= 8:
        chunk_id, size = reader.unpack("<4sI")
        body = reader.take(size)
        if chunk_id == b"fmt ":
            if size < 16:
                raise TruncatedFileError(f"{path}: fmt chunk is only {size} bytes")
            fmt = struct.unpack_from("<HHIIHH", body)
        elif chunk_id == b"data":
            payload = body
        if size & 1 and reader.remaining:  # chunks are word-aligned
            reader.take(1)
    if fmt is None:
        raise FormatError(f"{path}: missing fmt chunk")
    if payload is None:
        raise FormatError(f"{path}: missing data chunk")
    audio_format, channels, sample_rate, _, block_align, bits = fmt
    if audio_format == 3:
        raise UnsupportedFormatError(f"{path}: float WAV is not supported, only 16-bit PCM")
    if audio_format != 1:
        raise UnsupportedFormatError(
            f"{path}: compressed WAV (format code {audio_format}) is not supported"
        )
    if bits != 16:
        raise UnsupportedFormatError(f"{path}: {bits}-bit PCM is not supported, only 16-bit")
    if channels < 1:
        raise FormatError(f"{path}: channel count {channels} is invalid")
    if sample_rate == 0:
        raise FormatError(f"{path}: sample rate 0 is invalid")
    frame_bytes = 2 * channels
    if block_align not in (0, frame_bytes):
        raise FormatError(f"{path}: block alignment {block_align} does not match {frame_bytes}")
    if len(payload) % frame_bytes:
        raise TruncatedFileError(
            f"{path}: data chunk of {len(payload)} bytes is not whole {frame_bytes}-byte frames"
        )
    if not payload:
        raise DataError(f"{path}: no audio samples")
    raw = np.frombuffer(payload, dtype="<i2")
    samples = (raw.astype(np.float64) / 32768.0).reshape(-1, channels).T
    return Signal(samples, float(sample_rate))


# ---------------------------------------------------------------------------
# CSV / plain-text series
# ---------------------------------------------------------------------------


def load_csv_series(path, sample_rate: float) -> Signal:
    r"""Numeric CSV (or whitespace-free single-column text); one channel per column.

    Blank rows are skipped, ``#`` is data and quoted numbers are accepted.
    NumPy's C parser reads every well-formed file.  Only text it rejects is
    walked with the ``csv`` module, which accepts what ``float`` does (quoted
    cells, whitespace-only rows, lone-``\r`` line ends, ``1_000``) and
    otherwise names the offending row and column.
    """
    text = read_text(path)
    table = _numpy_table(text)
    if table is None:
        table = _walk_csv_rows(path)
    return Signal(table.T, sample_rate)


def _numpy_table(text: str) -> np.ndarray | None:
    """[rows x columns] from NumPy's C parser, or None where the walk must decide."""
    # np.loadtxt only warns on blank text, and it strips the ASCII separators
    # \x1c-\x1f around a number as whitespace where float() rejects them
    if not text.strip() or any(sep in text for sep in "\x1c\x1d\x1e\x1f"):
        return None
    try:
        return np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2,
                          dtype=np.float64, comments=None)
    except ValueError:
        return None


def _walk_csv_rows(path) -> np.ndarray:
    """[rows x columns] of the file at ``path`` parsed cell by cell with ``float``."""
    rows: list[list[float]] = []
    width = None
    for row_no, _, record in read_csv(path):
        values = []
        for col_no, cell in enumerate(record, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise FormatError(f"{path} row {row_no}, column {col_no}: {cell!r} is not numeric") from None
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise FormatError(f"{path} row {row_no}: expected {width} column(s), got {len(values)}")
        rows.append(values)
    if not rows:
        raise DataError(f"{path}: series file has no samples")
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def _pgm_header_tokens(blob, path):
    """magic + 3 integers, honoring '#' comments; returns tokens and the offset just past them."""
    tokens = []
    pos = 0
    n = len(blob)
    while len(tokens) < 4 and pos < n:
        byte = blob[pos:pos + 1]
        if byte == b"#":
            while pos < n and blob[pos:pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif byte.isspace():
            pos += 1
        else:
            start = pos
            while pos < n and not blob[pos:pos + 1].isspace() and blob[pos:pos + 1] != b"#":
                pos += 1
            tokens.append(blob[start:pos])
    if len(tokens) < 4:
        raise TruncatedFileError(f"{path}: PGM header is incomplete")
    return tokens, pos


def load_pgm_image(path) -> np.ndarray:
    """P5 (binary) or P2 (ASCII) grayscale; returns [1 x H x W] scaled to [0, 1].

    Bytes after a P5 raster are ignored, as a PGM file may hold further images.
    """
    reader = Reader(path)
    if reader.blob[:2] == b"P6":
        raise UnsupportedFormatError(f"{path}: color PPM (P6) is not supported, only gray PGM")
    if reader.blob[:2] not in (b"P5", b"P2"):
        raise FormatError(f"{path}: not a PGM file (magic {reader.blob[:2]!r})")
    tokens, header_end = _pgm_header_tokens(reader.blob, path)
    magic = tokens[0]
    width, height, maxval = (read_int(token.decode("latin-1"), f"{path}: PGM header") for token in tokens[1:4])
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid PGM size {width}x{height}")
    if maxval <= 0:
        raise FormatError(f"{path}: PGM maxval must be positive, got {maxval}")
    if maxval > 65535:
        raise FormatError(f"{path}: PGM maxval {maxval} exceeds 65535")
    count = width * height
    reader.take(header_end)
    if magic == b"P5":
        # one whitespace byte separates the header from the raster
        reader.take(1)
        pixels = reader.array(">u2" if maxval > 255 else np.uint8, count, np.float64)
    else:
        fields = reader.take(reader.remaining).split()
        if len(fields) < count:
            raise TruncatedFileError(f"{path}: raster holds {len(fields)} of {count} pixels")
        if len(fields) > count:
            raise FormatError(f"{path}: raster holds {len(fields)} values, expected {count}")
        pixels = np.array([read_int(field.decode("latin-1"), f"{path}: PGM raster") for field in fields],
                          dtype=np.float64)
    if pixels.min() < 0 or pixels.max() > maxval:
        raise FormatError(f"{path}: pixel value outside [0, maxval {maxval}]")
    image = (pixels / maxval).reshape(1, height, width)
    return image


# ---------------------------------------------------------------------------
# Uniform sample loading
# ---------------------------------------------------------------------------


def fixed_length(samples: np.ndarray, target: int) -> np.ndarray:
    """Crop from the start / zero-pad at the end to ``target`` samples."""
    if target < 1:
        raise ConfigError(f"fixed_length target must be positive, got {target}")
    channels, n = samples.shape
    if n >= target:
        return samples[:, :target]
    out = np.zeros((channels, target), dtype=samples.dtype)
    out[:, :n] = samples
    return out


def load_signal(path, sample_rate: float | None = None) -> Signal:
    """Extension-dispatched load of a raw signal; CSV/text series take ``sample_rate``."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".wav":
        return load_wav_pcm16(path)
    if ext in (".csv", ".txt"):
        if sample_rate is None:
            raise ConfigError(
                f"{path}: CSV/text series carry no sample rate; set [data] sample_rate or --sample-rate"
            )
        return load_csv_series(path, sample_rate)
    raise UnsupportedFormatError(f"{path}: unsupported input extension {ext!r}")


def load_sample(path, sample_rate: float | None = None) -> np.ndarray:
    """Extension-dispatched load to a channels-first float array."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext == ".pgm":
        return load_pgm_image(path)
    if ext == ".dsfm":
        fm = read_feature_map(path)
        if fm.rows == 1 or not fm.row_axis_hz.any():  # a stored [C x N] series
            return fm.values
        return fm.values[None, :, :]
    return load_signal(path, sample_rate).samples


def assemble_dataset(rows, label_map: dict, sample_rate: float | None = None,
                     target_length: int | None = None):
    """Stack manifest rows into (features [N x ...] float32, labels [N], ids)."""
    if not rows:
        raise DataError("no rows to assemble")
    arrays = []
    shape = None
    first_path = None
    for row in rows:
        arr = load_sample(row.path, sample_rate)
        if target_length is not None and arr.ndim == 2:
            arr = fixed_length(arr, target_length)
        if shape is None:
            shape, first_path = arr.shape, row.raw_path
        elif arr.shape != shape:
            raise DataError(
                f"sample shape mismatch: {row.raw_path} has {arr.shape}, "
                f"{first_path} has {shape}; set a fixed_length or preprocess first"
            )
        arrays.append(arr.astype(np.float32))
    features = np.stack(arrays)
    labels = np.array([label_map[r.label] for r in rows], dtype=np.int64)
    ids = [r.raw_path for r in rows]
    return features, labels, ids
