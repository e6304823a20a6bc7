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
for the caller to rebuild.  :func:`read_npz` reads every member whole;
:func:`map_npz` checks every member the same way and then serves them
as views of one read-only mapping of the file.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import io
import json
import math
import mmap
import os
import re
import struct
import tempfile
import weakref
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
    "map_npz",
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


#: Member data starts on a multiple of this in an archive
#: :func:`atomic_write_npz` writes; ``.npy`` headers are padded to it.
_NPZ_ALIGN = 64

#: The extra-field ID of the local-header padding that aligns a
#: member's data; readers skip extra fields they do not know.
_PAD_EXTRA_ID = 0xD935

#: Bytes of the ZIP64 extra field a member opened with ``force_zip64``
#: carries in its local header (ID, size, and two 8-byte sizes).
_ZIP64_EXTRA = 20


def atomic_write_npz(
    path: str, arrays: Mapping[str, np.ndarray], fsync: bool = True
) -> None:
    """Atomically write a name->array mapping as an ``.npz`` archive.

    The archive is what ``np.savez`` writes (one stored ``.npy`` member
    per array, in order), except that each member's local header is
    padded with an extra field so that its array data starts on a
    64-byte boundary of the file: :func:`map_npz` then views every
    member of the file's mapping aligned, as numpy's fast paths need.
    """
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_STORED) as archive:
        for name, value in arrays.items():
            info = zipfile.ZipInfo(f"{name}.npy")
            # A local header is 30 fixed bytes, the name and the extra
            # field; the .npy header is a multiple of the alignment.
            pad = -(buffer.tell() + 30 + len(info.filename) + _ZIP64_EXTRA) % _NPZ_ALIGN
            if pad:
                pad += _NPZ_ALIGN if pad < 4 else 0
                info.extra = struct.pack("<HH", _PAD_EXTRA_ID, pad - 4) + bytes(pad - 4)
            with archive.open(info, "w", force_zip64=True) as member:
                np.lib.format.write_array(
                    member, np.asanyarray(value), allow_pickle=False
                )
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


#: Bytes per read of :meth:`NpzMembers.mapped`'s size and CRC check.
_CHECK_CHUNK = 1 << 16


@functools.lru_cache(maxsize=None)
def _libc_map() -> Optional[Tuple[Any, Any]]:
    """``(mmap, munmap)`` from the C library, or None where there is
    none to bind (the stdlib mapping is used there)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        map_, unmap = libc.mmap, libc.munmap
    except (AttributeError, OSError, TypeError):
        return None
    map_.restype = ctypes.c_void_p
    # ``off_t`` is a C long on every LP64 and ILP32 ABI.
    map_.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int,
                     ctypes.c_int, ctypes.c_int, ctypes.c_long)
    unmap.argtypes = (ctypes.c_void_p, ctypes.c_size_t)
    return map_, unmap


def _map_file(fd: int) -> Any:
    """A read-only mapping of the whole file open at ``fd`` that keeps
    no descriptor: the caller closes ``fd``, and the mapping is undone
    when the last object viewing it is freed.

    The stdlib's ``mmap.mmap`` keeps a duplicate of ``fd`` for the
    mapping's life, so the C library's ``mmap`` is called directly and
    the mapping is viewed through a ctypes array whose finalizer unmaps
    it.  Only where no C library can be bound does the mapping keep a
    descriptor.
    """
    libc = _libc_map()
    if libc is None:
        return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)
    map_, unmap = libc
    size = os.fstat(fd).st_size
    address = map_(None, size, mmap.PROT_READ, mmap.MAP_SHARED, fd, 0)
    if address is None or address == ctypes.c_void_p(-1).value:
        error = ctypes.get_errno()
        raise OSError(error, os.strerror(error))
    view = (ctypes.c_char * size).from_address(address)
    # Not at exit: an array still in use then would read unmapped
    # pages, and the process's exit unmaps everything anyway.
    weakref.finalize(view, unmap, address, size).atexit = False
    return view


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


def _npy_view(buffer: Any, start: int, size: int) -> np.ndarray:
    """The array of the ``.npy`` member whose ``size`` bytes begin at
    ``start`` of ``buffer``, as a view of ``buffer`` (read-only when
    ``buffer`` is); the data must fill the rest of the member exactly.
    Only the header's bytes are read."""
    position = start

    def read(count: int) -> bytes:
        nonlocal position
        chunk = bytes(buffer[position:position + count])
        position += len(chunk)
        return chunk

    dtype, shape = _npy_header(read)
    count = math.prod(shape)
    if start + size - position != count * dtype.itemsize:
        raise ValueError("member data does not match its header")
    return np.frombuffer(
        buffer, dtype=dtype, count=count, offset=position
    ).reshape(shape)


class NpzMembers:
    """The members of an archive :func:`open_npz` opened."""

    def __init__(self, archive: zipfile.ZipFile, handle: IO[bytes]):
        self._zip = archive
        self._handle = handle

    def read(self, name: str) -> np.ndarray:
        """Member ``name`` whole, as a read-only array."""
        with _member_read():
            raw = self._zip.read(f"{name}.npy")
            return _npy_view(raw, 0, len(raw))

    def mapped(self, names: Sequence[str]) -> Dict[str, np.ndarray]:
        """Members ``names``, each a read-only view of one mapping of the
        archive's file.

        Every member's size and CRC are checked first, reading it
        through the file a chunk at a time, so the check keeps no
        member on the heap and maps no page.  Only stored (uncompressed)
        members, as :func:`atomic_write_npz` writes them, can be mapped.
        """
        with _member_read():
            infos = [self._zip.getinfo(f"{name}.npy") for name in names]
            for info in infos:
                if info.compress_type != zipfile.ZIP_STORED:
                    raise ValueError(f"member {info.filename} is compressed")
                with self._zip.open(info) as member:
                    # The last read checks the size and the CRC.
                    while member.read(_CHECK_CHUNK):
                        pass
            mapping = _map_file(self._handle.fileno())
            arrays = {}
            for name, info in zip(names, infos):
                # A local file header: 30 fixed bytes, then the member's
                # name and extra field, then its data.
                name_length, extra_length = struct.unpack_from(
                    "<HH", mapping, info.header_offset + 26
                )
                start = info.header_offset + 30 + name_length + extra_length
                array = _npy_view(mapping, start, info.file_size)
                # The pages are mapped read-only: a write would fault.
                array.flags.writeable = False
                arrays[name] = array
            return arrays

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
                yield (NpzMembers(archive.zip, handle)
                       if archive.files == list(members) else None)
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


def map_npz(
    path: str, members: Sequence[str]
) -> Optional[Dict[str, np.ndarray]]:
    """:func:`read_npz`, with every array a read-only view of one
    read-only mapping of the file (:meth:`NpzMembers.mapped`).

    The file is closed on return; the mapping lives as long as any of
    the arrays does.  It pins the file's inode, so an atomic replace of
    ``path`` afterwards changes nothing the arrays hold, and a page
    nothing reads is never loaded, so it never counts as resident.
    """
    with open_npz(path, members) as archive:
        if archive is not None:
            return archive.mapped(members)
    return None
