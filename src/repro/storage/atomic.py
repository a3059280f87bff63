"""Crash-safe file primitives shared by the persistence layer.

The invariant every writer here guarantees: at any kill point, the
destination path holds either the complete old contents or the complete
new contents — never a torn mixture, never nothing.  The recipe is the
classic one (write a temporary sibling, flush, ``fsync``, ``os.replace``,
then ``fsync`` the directory so the rename itself is durable).

The text arrives as an iterable of chunks and is written as it comes,
so a large document (a session checkpoint) never exists as one string.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Iterable, Union


def fsync_dir(path: Union[str, Path]) -> None:
    """Flush a directory's metadata (new names, renames) to disk.

    Not every platform/filesystem lets a directory be opened for fsync;
    failures are ignored — the data files themselves are always synced.
    """
    try:
        fd = os.open(str(path), os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def atomic_write_text(path: Union[str, Path],
                      data: Union[str, Iterable[str]],
                      encoding: str = "utf-8") -> Path:
    """Write ``data`` — one string or an iterable of chunks — to
    ``path`` so a crash can never leave a torn or half-written
    destination file."""
    path = Path(path)
    if isinstance(data, str):
        data = (data,)
    directory = path.parent
    fd, tmp_name = tempfile.mkstemp(prefix=path.name + ".",
                                    suffix=".tmp", dir=str(directory))
    try:
        with os.fdopen(fd, "w", encoding=encoding) as handle:
            handle.writelines(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        # Best-effort cleanup on the exception path (a real crash
        # leaves the temp file behind; recovery ignores *.tmp).
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    fsync_dir(directory)
    return path
