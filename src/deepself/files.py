"""Reading a binary file field by field within its bounds; writing a file so a failed write keeps its old bytes."""

import contextlib
import os
import struct

import numpy as np

from .errors import FormatError, TruncatedFileError


class Reader:
    """The bytes of ``path``, read once into ``blob`` and taken field by field from ``pos`` on.

    Every field goes through ``take``, so a read past the end is always a
    ``TruncatedFileError`` naming the path and the shortfall.
    """

    def __init__(self, path):
        self.path, self.pos = path, 0
        with open(path, "rb") as fh:
            self.blob = fh.read()

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
