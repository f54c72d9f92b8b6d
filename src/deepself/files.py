"""Writing a file so that a failed write leaves the file's old bytes in place."""

import contextlib
import os


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
