"""Reading a binary file field by field within its bounds, and a text or CSV file whole;
writing a file so a failed write keeps its old bytes."""

import contextlib
import csv
import io
import os
import struct

import numpy as np

from .errors import DataError, FormatError, TruncatedFileError


class Reader:
    """The bytes of ``path``, read once into ``blob`` and taken field by field from ``pos`` on.

    Every field goes through ``take``, so a read past the end is always a
    ``TruncatedFileError`` naming the path and the shortfall.
    """

    def __init__(self, path):
        self.path, self.pos = path, 0
        self.blob = read_bytes(path)

    @property
    def remaining(self) -> int:
        return len(self.blob) - self.pos

    def take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.blob):
            raise TruncatedFileError(f"{self.path}: file ends {end - len(self.blob)} bytes early")
        out, self.pos = self.blob[self.pos:end], end
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def text(self, count: int, field: str) -> str:
        """``count`` bytes as UTF-8; FormatError naming ``field`` and the bad byte otherwise."""
        try:
            return self.take(count).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"{self.path}: {field} is not valid UTF-8 "
                              f"({exc.reason} at byte {exc.start} of the field)") from None

    def array(self, dtype, count: int, as_type=None) -> np.ndarray:
        """``count`` items of ``dtype`` converted to ``as_type`` (default ``dtype``) in one new, writable copy."""
        dtype = np.dtype(dtype)
        return np.frombuffer(self.take(dtype.itemsize * count), dtype=dtype).astype(as_type or dtype)

    def finish(self, what: str):
        """FormatError unless every byte has been taken; ``what`` names the last field read."""
        if self.remaining:
            raise FormatError(f"{self.path}: {self.remaining} bytes after {what}")


def read_bytes(path) -> bytes:
    """The whole file at ``path``; DataError naming the path and the reason when it cannot be read."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc


def read_text(path) -> str:
    """A text file's contents; invalid UTF-8 raises FormatError naming the byte offset."""
    try:
        return read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not valid UTF-8 ({exc.reason} at byte {exc.start})") from None


def read_csv(path):
    """``(record number, line, fields)`` for each record of the CSV file at ``path`` that is not blank.

    Records are numbered from 1, blank ones (no field, or only whitespace)
    included.  ``line`` is the physical line the record ends on, which is
    later than its number once a quoted field has held a line break.  The
    file is read on the first ``next``, through ``read_text``; a record the
    ``csv`` module rejects raises FormatError naming its line.
    """
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    try:
        for number, fields in enumerate(reader, start=1):
            if any(field.strip() for field in fields):
                yield number, reader.line_num, fields
    except csv.Error as exc:
        raise FormatError(f"{path} line {reader.line_num}: {exc}") from None


def read_int(text: str, what: str) -> int:
    """``text`` as an int; FormatError naming ``what`` unless it is ASCII digits after an optional minus.

    ``int`` alone also reads ``+1``, ``1_0`` and other scripts' digits, such
    as ``٠``.  The minus is read so that a range check reports a negative value.
    """
    if not (text.isascii() and text.removeprefix("-").isdigit()):
        raise FormatError(f"{what} holds {text[:20]!r}, not a decimal number")
    try:
        return int(text)
    except ValueError:  # more digits than int converts
        raise FormatError(f"{what} holds a number with too many digits") from None


def write_csv(path, header, rows):
    """``header`` and then each of ``rows`` as CSV records (CRLF line ends), written through ``atomic_write``."""
    with atomic_write(path, text=True) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


@contextlib.contextmanager
def atomic_write(path, text: bool = False):
    """Handle whose bytes replace ``path`` only if the block finishes.

    The handle is binary, or with ``text`` takes ``str`` and writes it as
    UTF-8 with its line ends as given.
    The bytes go to a temporary file beside ``path``, which is moved into
    place once the block ends without an exception, so ``path`` holds
    either its old bytes or all of the new ones.  On an exception the
    temporary file is removed and the exception propagates.  There is no
    ``fsync``: a power cut may still lose the new bytes.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") if text else open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise
