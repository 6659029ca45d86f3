"""Output files written whole: a reader sees the old file or the new one."""

import os
import shutil
import uuid
from contextlib import contextmanager


@contextmanager
def write_whole(path, binary: bool = False):
    """Open a new file for writing in place of ``path`` (UTF-8 text, or
    bytes with ``binary``).

    The bytes go to a temporary file in the target's directory, which
    replaces ``path`` when the block ends; if anything fails first, the
    temporary file is removed and ``path`` keeps its old bytes. A
    symlinked ``path`` is written through, and a replaced file keeps its
    permissions. An unwritable target fails at once, naming ``path``.
    """
    target, path = path, os.path.realpath(path)
    tmp = f"{path}.{uuid.uuid4().hex}.tmp"
    try:
        f = open(tmp, "xb") if binary else open(tmp, "x", encoding="utf-8")
    except OSError as e:
        raise OSError(f"cannot write {target}: {e.strerror or e}") from e
    try:
        with f:
            yield f
        if os.path.exists(path):
            shutil.copymode(path, tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
