"""Dataset ingestion: manifests, WAV (RIFF PCM16), CSV series, PGM images.

Every loader is deterministic and returns channels-first float arrays: audio
and series as [channels x samples], images as [1 x H x W] in [0, 1], stored
feature maps as [1 x rows x cols].  A stored series (one row, or a map whose
row axis is all zeros, as ``preprocess`` writes a filtered signal) loads as
[channels x samples].  Manifest paths are resolved relative to
the manifest file's directory.
"""

from __future__ import annotations

import csv
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
from .files import atomic_write

log = logging.getLogger("deepself")

SPLITS = ("train", "dev", "test")


def read_text(path) -> str:
    """A text file's contents; invalid UTF-8 raises FormatError naming the byte offset."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        return blob.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(
            f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})"
        ) from None


def csv_records(fh, path):
    """The ``csv`` records of ``fh``; one the module rejects raises FormatError naming the line."""
    reader = csv.reader(fh)
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(f"{path} line {reader.line_num}: {exc}") from None


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

    def labels(self, rows=None) -> np.ndarray:
        rows = self.rows if rows is None else rows
        return np.array([self.label_map[r.label] for r in rows], dtype=np.int64)

    def folds(self, rows=None) -> np.ndarray:
        rows = self.rows if rows is None else rows
        missing = [r.raw_path for r in rows if r.fold is None]
        if missing:
            raise DataError(f"manifest rows lack a fold id, e.g. {missing[0]!r}")
        return np.array([r.fold for r in rows], dtype=np.int64)


def load_manifest(path) -> DatasetManifest:
    """CSV with header ``path,label[,split][,fold]``; labels map lexicographically."""
    base_dir = os.path.dirname(os.path.abspath(path))
    try:
        fh = io.StringIO(read_text(path), newline="")
    except OSError as exc:
        raise DataError(f"cannot read manifest {path}: {exc}") from exc
    with fh:
        reader = csv_records(fh, path)
        try:
            header = [h.strip() for h in next(reader)]
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
        for line_no, record in enumerate(reader, start=2):
            if not record or all(not field.strip() for field in record):
                continue
            if len(record) != len(header):
                raise FormatError(
                    f"{path} line {line_no}: expected {len(header)} fields, got {len(record)}"
                )
            raw = record[col["path"]].strip()
            label = record[col["label"]].strip()
            if not raw or not label:
                raise FormatError(f"{path} line {line_no}: path and label must be non-empty")
            split = None
            if "split" in col:
                split = record[col["split"]].strip() or None
                if split is not None and split not in SPLITS:
                    raise FormatError(
                        f"{path} line {line_no}: split must be one of {SPLITS}, got {split!r}"
                    )
            fold = None
            if "fold" in col:
                text = record[col["fold"]].strip()
                if text:
                    try:
                        fold = int(text)
                    except ValueError:
                        raise FormatError(
                            f"{path} line {line_no}: fold must be an integer, got {text!r}"
                        ) from None
                    if fold < 0:
                        raise FormatError(f"{path} line {line_no}: fold must be non-negative")
            resolved = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
            if not os.path.exists(resolved):
                raise DataError(f"{path} line {line_no}: referenced file not found: {resolved}")
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
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(["path", "label", "split", "fold"])
        for row in manifest.rows:
            writer.writerow([
                row.raw_path, row.label,
                row.split or "",
                "" if row.fold is None else row.fold,
            ])


# ---------------------------------------------------------------------------
# WAV (RIFF PCM16)
# ---------------------------------------------------------------------------


def load_wav_pcm16(path) -> Signal:
    """16-bit PCM RIFF/WAVE; samples scaled by 1/32768, channels de-interleaved."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 12 or blob[:4] != b"RIFF" or blob[8:12] != b"WAVE":
        raise FormatError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    payload = None
    while pos + 8 <= len(blob):
        chunk_id = blob[pos:pos + 4]
        (size,) = struct.unpack_from("<I", blob, pos + 4)
        body_start = pos + 8
        if body_start + size > len(blob):
            raise TruncatedFileError(
                f"{path}: chunk {chunk_id!r} declares {size} bytes but the file ends early"
            )
        body = blob[body_start:body_start + size]
        if chunk_id == b"fmt ":
            if size < 16:
                raise TruncatedFileError(f"{path}: fmt chunk is only {size} bytes")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            payload = body
        pos = body_start + size + (size & 1)  # chunks are word-aligned
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
        table = _walk_csv_rows(text, path)
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


def _walk_csv_rows(text: str, path) -> np.ndarray:
    """[rows x columns] of ``text`` parsed cell by cell with ``float``."""
    rows: list[list[float]] = []
    width = None
    with io.StringIO(text, newline="") as fh:
        for row_no, record in enumerate(csv_records(fh, path), start=1):
            if not record or all(not field.strip() for field in record):
                continue
            values = []
            for col_no, cell in enumerate(record, start=1):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise FormatError(
                        f"{path} row {row_no}, column {col_no}: {cell!r} is not numeric"
                    ) from None
            if width is None:
                width = len(values)
            elif len(values) != width:
                raise FormatError(
                    f"{path} row {row_no}: expected {width} column(s), got {len(values)}"
                )
            rows.append(values)
    if not rows:
        raise DataError(f"{path}: series file has no samples")
    return np.asarray(rows, dtype=np.float64)


# ---------------------------------------------------------------------------
# PGM images
# ---------------------------------------------------------------------------


def _pgm_header_tokens(blob, path):
    """magic + 3 integers, honoring '#' comments; returns tokens and data offset."""
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
    return tokens, pos + 1  # single whitespace byte separates header from raster


def load_pgm_image(path) -> np.ndarray:
    """P5 (binary) or P2 (ASCII) grayscale; returns [1 x H x W] scaled to [0, 1]."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] == b"P6":
        raise UnsupportedFormatError(f"{path}: color PPM (P6) is not supported, only gray PGM")
    if blob[:2] not in (b"P5", b"P2"):
        raise FormatError(f"{path}: not a PGM file (magic {blob[:2]!r})")
    tokens, data_offset = _pgm_header_tokens(blob, path)
    magic = tokens[0]
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise FormatError(f"{path}: PGM dimensions are not integers") from None
    if width < 1 or height < 1:
        raise FormatError(f"{path}: invalid PGM size {width}x{height}")
    if maxval <= 0:
        raise FormatError(f"{path}: PGM maxval must be positive, got {maxval}")
    if maxval > 65535:
        raise FormatError(f"{path}: PGM maxval {maxval} exceeds 65535")
    count = width * height
    if magic == b"P5":
        dtype = ">u2" if maxval > 255 else np.uint8
        itemsize = 2 if maxval > 255 else 1
        raster = blob[data_offset:data_offset + count * itemsize]
        if len(raster) < count * itemsize:
            raise TruncatedFileError(
                f"{path}: raster holds {len(raster) // itemsize} of {count} pixels"
            )
        pixels = np.frombuffer(raster, dtype=dtype, count=count).astype(np.float64)
    else:
        fields = blob[data_offset - 1:].split()
        if len(fields) < count:
            raise TruncatedFileError(f"{path}: raster holds {len(fields)} of {count} pixels")
        if len(fields) > count:
            raise FormatError(f"{path}: raster holds {len(fields)} values, expected {count}")
        try:
            pixels = np.array([int(f) for f in fields], dtype=np.float64)
        except ValueError:
            raise FormatError(f"{path}: PGM raster holds non-integer text") from None
    if pixels.max(initial=0) > maxval:
        raise FormatError(f"{path}: pixel value exceeds declared maxval {maxval}")
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
