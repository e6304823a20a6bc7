"""Crash-safe file writes: tmp file in the same directory + fsync + rename.

Every durable artifact the lake produces (weight blobs, manifests,
lineage, embedding caches, metrics snapshots, checkpoints) goes through
these primitives.  The contract: **a crash at any instant leaves the
destination either absent or holding its complete previous contents** —
never a partial file.  The sequence is the classic one:

1. create a uniquely-named tmp file *in the destination directory*
   (same filesystem, so the final rename cannot degrade to a copy),
2. write all bytes, flush, ``fsync`` the file,
3. ``os.replace`` onto the destination (atomic on POSIX and Windows),
4. ``fsync`` the directory so the rename itself is durable.

Fault-injection points (:mod:`repro.reliability.faults`) are threaded
through each stage; an :class:`~repro.reliability.faults.InjectedFault`
simulates a kill, so — exactly like a real crash — it leaves the tmp
file behind for ``repro fsck`` to find, while ordinary exceptions clean
up after themselves.

:func:`read_npz` is the read side for the archives
:func:`atomic_write_npz` writes into a lake's ``cache/``: it owns its
file handle, and any file it cannot read whole (missing, empty, torn,
not a zip, another layout) comes back as ``None`` for the caller to
rebuild.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import struct
import tempfile
import zipfile
import zlib
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np
from numpy.lib.npyio import NpzFile

from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    RELIABILITY_ATOMIC_BYTES,
    RELIABILITY_ATOMIC_WRITES,
)
from repro.obs.logging import get_logger
from repro.reliability import faults

__all__ = [
    "atomic_copy_file",
    "atomic_write_bytes",
    "atomic_write_json",
    "atomic_write_npz",
    "fsync_directory",
    "read_npz",
]

_log = get_logger("reliability.atomic")


def fsync_directory(directory: str) -> None:
    """Flush a directory's metadata (new names, renames) to disk.

    Best-effort: some platforms/filesystems refuse to open directories
    for syncing; durability of the *data* does not depend on this.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        with contextlib.suppress(OSError):
            os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data``.

    On any failure the destination is untouched: either the previous
    file survives intact or (for a first write) no file exists.
    """
    directory = os.path.dirname(os.path.abspath(path))
    name = os.path.basename(path)
    faults.raise_if_triggered(faults.WRITE_BEGIN, name)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            rule = faults.trigger(faults.WRITE_DATA, name)
            if rule is not None:
                written = data[: rule.truncate_at or 0]
                handle.write(written)
                handle.flush()
                raise faults.InjectedFault(
                    f"injected fault: write.data on {name!r} "
                    f"after {len(written)} byte(s)"
                )
            handle.write(data)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        faults.raise_if_triggered(faults.WRITE_RENAME, name)
        os.replace(tmp_path, path)
    except BaseException as exc:
        # An injected fault models a process kill, which cannot clean
        # up — leave the tmp litter for fsck, as a real crash would.
        if not isinstance(exc, faults.InjectedFault):
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
        raise
    if fsync:
        fsync_directory(directory)
    obs_metrics.inc(RELIABILITY_ATOMIC_WRITES)
    obs_metrics.inc(RELIABILITY_ATOMIC_BYTES, len(data))


def atomic_copy_file(
    source: str, path: str, fsync: bool = True,
    chunk_bytes: int = 1 << 20,
) -> int:
    """Atomically replace ``path`` with the bytes of ``source``, streamed.

    The out-of-core analogue of :func:`atomic_write_bytes`: the source
    is never materialized in memory, so exporting a multi-gigabyte
    weight shard costs one chunk buffer.  Same crash contract, same
    fault-injection points (keyed on the *destination* basename), and
    copying a file onto itself is safe — the source stays readable
    until the final rename.  Returns the number of bytes copied.
    """
    directory = os.path.dirname(os.path.abspath(path))
    name = os.path.basename(path)
    faults.raise_if_triggered(faults.WRITE_BEGIN, name)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=f".{name}.", suffix=".tmp"
    )
    copied = 0
    try:
        with os.fdopen(fd, "wb") as handle, open(source, "rb") as reader:
            rule = faults.trigger(faults.WRITE_DATA, name)
            if rule is not None:
                handle.write(reader.read(rule.truncate_at or 0))
                handle.flush()
                raise faults.InjectedFault(
                    f"injected fault: write.data on {name!r} "
                    f"after {rule.truncate_at or 0} byte(s)"
                )
            while True:
                chunk = reader.read(chunk_bytes)
                if not chunk:
                    break
                handle.write(chunk)
                copied += len(chunk)
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
        faults.raise_if_triggered(faults.WRITE_RENAME, name)
        os.replace(tmp_path, path)
    except BaseException as exc:
        if not isinstance(exc, faults.InjectedFault):
            with contextlib.suppress(OSError):
                os.unlink(tmp_path)
        raise
    if fsync:
        fsync_directory(directory)
    obs_metrics.inc(RELIABILITY_ATOMIC_WRITES)
    obs_metrics.inc(RELIABILITY_ATOMIC_BYTES, copied)
    return copied


def atomic_write_json(
    path: str,
    payload: Any,
    indent: int = 1,
    sort_keys: bool = False,
    default: Any = None,
    fsync: bool = True,
) -> None:
    """Atomically write ``payload`` as JSON (UTF-8) to ``path``."""
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys, default=default)
    atomic_write_bytes(path, text.encode("utf-8"), fsync=fsync)


def atomic_write_npz(
    path: str, arrays: Mapping[str, np.ndarray], fsync: bool = True
) -> None:
    """Atomically write a name->array mapping as an ``.npz`` archive."""
    buffer = io.BytesIO()
    np.savez(buffer, **dict(arrays))
    atomic_write_bytes(path, buffer.getvalue(), fsync=fsync)


#: The ``.npy`` header numpy writes for a C-order array of a fixed-size
#: dtype.  Anything else (object arrays, Fortran order) is not a member
#: :func:`atomic_write_npz` wrote, and reads as unreadable.
_NPY_HEADER = re.compile(
    r"\{'descr': '([<>|=]?[A-Za-z]\d*)', 'fortran_order': False, "
    r"'shape': \(([\d, ]*)\), \}\s*\Z"
)


def _npy_array(raw: bytes) -> np.ndarray:
    """The array one ``.npy`` member holds, as a read-only view of ``raw``.

    Parses the header with a pattern rather than through the archive's
    own member reader, whose ``ast.literal_eval`` leaves reference
    cycles for the collector on every member, and requires the data to
    fill the rest of the member exactly.
    """
    if raw[:6] != b"\x93NUMPY":
        raise ValueError("not an .npy member")
    size_format, start = ("<H", 10) if raw[6] == 1 else ("<I", 12)
    (length,) = struct.unpack_from(size_format, raw, 8)
    match = _NPY_HEADER.match(raw[start:start + length].decode("latin-1"))
    if match is None:
        raise ValueError("unsupported .npy header")
    dtype = np.dtype(match.group(1))
    shape = tuple(int(dim) for dim in match.group(2).split(",") if dim.strip())
    offset = start + length
    count = math.prod(shape)
    if dtype.hasobject or len(raw) - offset != count * dtype.itemsize:
        raise ValueError("member data does not match its header")
    return np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)


def read_npz(
    path: str, members: Sequence[str]
) -> Optional[Dict[str, np.ndarray]]:
    """The arrays of the ``.npz`` archive at ``path``, or None.

    The archive must hold exactly ``members``, in that order, as
    :func:`atomic_write_npz` writes them; arrays come back read-only.  A
    missing file or one with other members is None quietly.  A file
    that cannot be read (empty, truncated, not a zip, a bare ``.npy``,
    a damaged member) is None with a warning.  The handle is closed on
    every path.
    """
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle)  # allow_pickle=False: never unpickles
            if not isinstance(archive, NpzFile):
                raise ValueError("not an .npz archive")
            with archive:
                if archive.files != list(members):
                    return None
                return {
                    name: _npy_array(archive.zip.read(f"{name}.npy"))
                    for name in members
                }
    except FileNotFoundError:
        return None
    except (OSError, ValueError, EOFError, struct.error, zlib.error,
            zipfile.BadZipFile) as exc:
        _log.warning("npz.unreadable", path=path, error=str(exc))
        return None
