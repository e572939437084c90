"""Crash-safe file writes: tempfile + ``os.replace``.

Every place the system persists an artifact — binary profiles
(:mod:`repro.core.serialize`), JSON profiles (:mod:`repro.core.jsonio`),
CLI report output, the profile store's segments and manifest — writes
through these helpers.  The contract: a reader never observes a
half-written file.  Either the old content is intact or the new content is
complete, because the data lands in a temporary file in the *same
directory* (same filesystem, so the rename is atomic), is flushed and
fsynced, and only then renamed over the destination.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Union


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Write ``data`` to ``path`` atomically.

    The temporary file is created next to the destination so
    ``os.replace`` cannot cross a filesystem boundary; on any failure the
    temporary is removed and the destination is left untouched.
    """
    name = os.path.basename(path)

    def produce(write: Callable[[bytes], object]) -> str:
        write(data)
        return name

    atomic_write_stream(os.path.dirname(os.path.abspath(path)), produce,
                        prefix=name + ".", fsync=fsync)


def atomic_write_stream(directory: str,
                        produce: Callable[[Callable[[bytes], object]], str],
                        prefix: str = "", fsync: bool = True) -> str:
    """Write a file piece by piece and publish it under a name that may
    depend on its content; returns the file's path.

    ``produce(write)`` hands the content to ``write`` in pieces and
    returns the file name, so a content-addressed file is hashed while it
    is written instead of being held whole.  The pieces land in a
    temporary file in ``directory``, which is flushed, fsynced and
    renamed only after ``produce`` returns; on any failure it is removed.
    """
    fd, tmp_path = tempfile.mkstemp(dir=directory, prefix=prefix,
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            name = produce(handle.write)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        path = os.path.join(directory, name)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: str, text: str,
                      encoding: str = "utf-8", fsync: bool = True) -> None:
    """Text-mode counterpart of :func:`atomic_write_bytes`."""
    atomic_write_bytes(path, text.encode(encoding), fsync=fsync)


def atomic_write(path: str, data: Union[bytes, str],
                 fsync: bool = True) -> None:
    """Dispatch on payload type: bytes or text."""
    if isinstance(data, str):
        atomic_write_text(path, data, fsync=fsync)
    else:
        atomic_write_bytes(path, data, fsync=fsync)
