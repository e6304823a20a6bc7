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

:func:`open_npz` is the read side for the archives
:func:`atomic_write_npz` writes into a lake's ``cache/``: it owns its
file handle, hands out each member whole or in row blocks, and turns
any file it cannot read (missing, empty, torn, not a zip, another
layout, a damaged member) into a ``None`` archive or a suppressed read
for the caller to rebuild.  :func:`read_npz` reads every member whole.
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
from typing import (
    IO,
    Any,
    Callable,
    Dict,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

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
    "NpzMembers",
    "open_npz",
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


#: What bad archive bytes raise from the readers below.
_UNREADABLE = (OSError, ValueError, EOFError, struct.error, zlib.error,
               zipfile.BadZipFile)


class _Damaged(Exception):
    """A member read met bad bytes; :func:`open_npz` makes it a miss."""


@contextlib.contextmanager
def _member_read() -> Iterator[None]:
    """Re-raise what bad bytes raise as :class:`_Damaged`, so a caller's
    own error inside :func:`open_npz` is not mistaken for them."""
    try:
        yield
    except _UNREADABLE as exc:
        raise _Damaged(str(exc)) from exc


def _npy_header(read: Callable[[int], bytes]) -> Tuple[np.dtype, Tuple[int, ...]]:
    """The dtype and shape of the ``.npy`` member whose bytes ``read``
    yields from the start, leaving ``read`` at the member's data.

    Parses the header with a pattern rather than through the archive's
    own member reader, whose ``ast.literal_eval`` leaves reference
    cycles for the collector on every member.
    """
    lead = read(10)
    if lead[:6] != b"\x93NUMPY" or len(lead) != 10:
        raise ValueError("not an .npy member")
    if lead[6] == 1:
        (length,) = struct.unpack_from("<H", lead, 8)
    else:
        (length,) = struct.unpack("<I", lead[8:] + read(2))
    match = _NPY_HEADER.match(read(length).decode("latin-1"))
    if match is None:
        raise ValueError("unsupported .npy header")
    dtype = np.dtype(match.group(1))
    if dtype.hasobject:
        raise ValueError("object member")
    return dtype, tuple(int(dim) for dim in match.group(2).split(",") if dim.strip())


def _npy_array(raw: bytes) -> np.ndarray:
    """The array one ``.npy`` member holds, as a read-only view of ``raw``;
    the data must fill the rest of the member exactly."""
    stream = io.BytesIO(raw)
    dtype, shape = _npy_header(stream.read)
    offset = stream.tell()
    count = math.prod(shape)
    if len(raw) - offset != count * dtype.itemsize:
        raise ValueError("member data does not match its header")
    return np.frombuffer(raw, dtype=dtype, count=count, offset=offset).reshape(shape)


class NpzMembers:
    """The members of an archive :func:`open_npz` opened."""

    def __init__(self, archive: zipfile.ZipFile):
        self._zip = archive

    def read(self, name: str) -> np.ndarray:
        """Member ``name`` whole, as a read-only array."""
        with _member_read():
            return _npy_array(self._zip.read(f"{name}.npy"))

    def row_blocks(
        self, name: str, rows: int
    ) -> Tuple[Tuple[int, ...], Iterator[np.ndarray]]:
        """Member ``name``'s shape, and its rows in blocks.

        The blocks are read-only arrays of ``rows`` consecutive rows
        each (the last may be shorter), read from the member one at a
        time.  The member's size and CRC are checked only as the
        iteration ends, where a damaged member raises; so a block is
        not known good until the iteration has finished.
        """
        with _member_read():
            handle = self._zip.open(f"{name}.npy")
            dtype, shape = _npy_header(handle.read)
            if not shape:
                handle.close()
                raise ValueError("a 0-d member has no rows")
        return shape, _blocks(handle, dtype, shape, rows)


def _blocks(
    handle: IO[bytes], dtype: np.dtype, shape: Tuple[int, ...], rows: int
) -> Iterator[np.ndarray]:
    row_bytes = math.prod(shape[1:]) * dtype.itemsize
    with handle, _member_read():
        for start in range(0, shape[0], rows):
            count = min(rows, shape[0] - start)
            data = handle.read(count * row_bytes)
            if len(data) != count * row_bytes:
                raise ValueError("member data is shorter than its header")
            yield np.frombuffer(data, dtype=dtype).reshape((count,) + shape[1:])
        # Reading past the end checks the CRC and that nothing trails.
        if handle.read(1):
            raise ValueError("member data is longer than its header")


@contextlib.contextmanager
def open_npz(path: str, members: Sequence[str]) -> Iterator[Optional[NpzMembers]]:
    """The ``.npz`` archive at ``path``, open for reading, or None.

    The archive must hold exactly ``members``, in that order, as
    :func:`atomic_write_npz` writes them.  A missing file or one with
    other members is None quietly.  A file that cannot be read (empty,
    truncated, not a zip, a bare ``.npy``) is None with a warning, and
    so is a damaged member met inside the ``with`` block: the read is
    abandoned there, with the warning, and the block's statements after
    it do not run.  Any other error inside the block is the caller's
    and propagates.  The handle is closed on every path.
    """
    entered = False
    try:
        with open(path, "rb") as handle:
            archive = np.load(handle)  # allow_pickle=False: never unpickles
            if not isinstance(archive, NpzFile):
                raise ValueError("not an .npz archive")
            with archive:
                entered = True
                yield NpzMembers(archive.zip) if archive.files == list(members) else None
    except _Damaged as exc:
        _log.warning("npz.unreadable", path=path, error=str(exc))
    except _UNREADABLE as exc:
        if entered:
            raise
        if not isinstance(exc, FileNotFoundError):
            _log.warning("npz.unreadable", path=path, error=str(exc))
    if not entered:
        yield None


def read_npz(
    path: str, members: Sequence[str]
) -> Optional[Dict[str, np.ndarray]]:
    """The arrays of the ``.npz`` archive at ``path``, or None.

    Every member read whole through :func:`open_npz`, whose rules say
    which files are None; arrays come back read-only.
    """
    with open_npz(path, members) as archive:
        if archive is not None:
            return {name: archive.read(name) for name in members}
    return None
