"""Writing a file so that a failed write leaves the file's old bytes in place."""

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path):
    """Binary handle whose bytes replace ``path`` only if the block finishes.

    The bytes go to a temporary file beside ``path``, which is moved into
    place once the block ends without an exception, so ``path`` holds
    either its old bytes or all of the new ones.  On an exception the
    temporary file is removed and the exception propagates.  There is no
    ``fsync``: a power cut may still lose the new bytes.
    """
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            yield fh
        os.replace(temporary, path)
    except BaseException:
        if os.path.exists(temporary):
            os.remove(temporary)
        raise
