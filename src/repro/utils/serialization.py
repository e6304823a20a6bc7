"""Serialization helpers for model weights and metadata.

Weights are stored as a flat mapping ``name -> ndarray``.  Two byte
formats live here:

* the legacy ``numpy.savez`` archive (:func:`arrays_to_bytes` /
  :func:`bytes_to_arrays`), still used for datasets and embedding
  caches, and readable for pre-shard (v1) lakes;
* the raw weight bundle (``.rwb``, :func:`pack_arrays` /
  :func:`unpack_arrays` / :func:`open_arrays_memmap`): a magic tag, a
  length-prefixed deterministic JSON header, then each array's raw
  C-contiguous bytes at a 64-byte-aligned offset.  Because the on-disk
  bytes *are* the serialized bytes (no zip container), a file can be
  digest-verified by streaming it in chunks and every array can be
  opened zero-copy from one ``mmap`` — the two properties the
  out-of-core weight store is built on.
"""

from __future__ import annotations

import io
import json
import mmap
import struct
from typing import Any, Dict, Mapping, Tuple

import numpy as np

from repro.errors import LakeError

#: Magic prefix of a raw weight bundle (format version baked in).
RWB_MAGIC = b"RWB1"

#: Array payload alignment inside a bundle.  64 bytes covers every
#: numpy dtype alignment and typical cache-line size, so memmap views
#: are as fast as the equivalent resident arrays.
RWB_ALIGN = 64

_RWB_LEN = struct.Struct("<Q")  # header length prefix


def arrays_to_bytes(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a name->array mapping into a single bytes blob."""
    buffer = io.BytesIO()
    # savez mangles '/' in names on some versions; escape deterministically.
    escaped = {name.replace("/", "__SLASH__"): arr for name, arr in arrays.items()}
    np.savez(buffer, **escaped)
    return buffer.getvalue()


def bytes_to_arrays(blob: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`arrays_to_bytes`."""
    buffer = io.BytesIO(blob)
    with np.load(buffer) as payload:
        return {
            name.replace("__SLASH__", "/"): payload[name]
            for name in payload.files
        }


def _aligned(offset: int) -> int:
    return (offset + RWB_ALIGN - 1) // RWB_ALIGN * RWB_ALIGN


def pack_arrays(arrays: Mapping[str, np.ndarray]) -> bytes:
    """Serialize a name->array mapping as one raw weight bundle.

    Deterministic: names are sorted, the header is canonical JSON, and
    payload bytes are the arrays' C-contiguous memory — so equal
    mappings always produce identical bytes (the property the
    content-addressed store digests rely on).
    """
    metas = []
    payloads = []
    offset = 0
    for name in sorted(arrays):
        # asarray(order="C"), not ascontiguousarray: the latter silently
        # promotes 0-d arrays to 1-d, which would break shape fidelity.
        arr = np.asarray(arrays[name], order="C")
        raw = arr.tobytes()
        offset = _aligned(offset)
        metas.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": list(arr.shape),
            "offset": offset,
            "nbytes": len(raw),
        })
        payloads.append((offset, raw))
        offset += len(raw)
    header = json.dumps(
        {"align": RWB_ALIGN, "arrays": metas},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    data_start = _aligned(len(RWB_MAGIC) + _RWB_LEN.size + len(header))
    out = bytearray(data_start + offset)
    out[: len(RWB_MAGIC)] = RWB_MAGIC
    out[len(RWB_MAGIC): len(RWB_MAGIC) + _RWB_LEN.size] = _RWB_LEN.pack(len(header))
    out[len(RWB_MAGIC) + _RWB_LEN.size: len(RWB_MAGIC) + _RWB_LEN.size + len(header)] = header
    for rel_offset, raw in payloads:
        out[data_start + rel_offset: data_start + rel_offset + len(raw)] = raw
    return bytes(out)


def _parse_rwb_header(prefix: bytes, where: str) -> Tuple[Dict, int]:
    """Parse a bundle's magic + header; returns (header, data_start)."""
    base = len(RWB_MAGIC) + _RWB_LEN.size
    if len(prefix) < base or prefix[: len(RWB_MAGIC)] != RWB_MAGIC:
        raise LakeError(f"not a raw weight bundle: {where}")
    (header_len,) = _RWB_LEN.unpack(prefix[len(RWB_MAGIC): base])
    if len(prefix) < base + header_len:
        raise LakeError(f"truncated raw weight bundle header: {where}")
    header = json.loads(prefix[base: base + header_len].decode("utf-8"))
    return header, _aligned(base + header_len)


def unpack_arrays(blob: bytes) -> Dict[str, np.ndarray]:
    """Inverse of :func:`pack_arrays` (arrays are read-only views)."""
    header, data_start = _parse_rwb_header(blob, "<bytes>")
    out: Dict[str, np.ndarray] = {}
    for meta in header["arrays"]:
        start = data_start + int(meta["offset"])
        count = int(np.prod(meta["shape"], dtype=np.int64)) if meta["shape"] else 1
        arr = np.frombuffer(
            blob, dtype=np.dtype(meta["dtype"]), count=count, offset=start
        ).reshape(meta["shape"])
        out[meta["name"]] = arr
    return out


def open_arrays_memmap(path: str) -> Dict[str, np.ndarray]:
    """Open a raw weight bundle file as zero-copy memory-mapped arrays.

    Only the header is read eagerly; array bytes are paged in on access
    and never copied, so opening a bundle costs O(header) memory no
    matter how large the weights are.  The returned arrays are
    read-only views — callers that mutate must copy first (as
    ``Module.load_state_dict`` already does).

    One read-only ``mmap.mmap`` backs them all, one ``np.frombuffer``
    each (no ``np.memmap`` subclass machinery per array), and only their
    ``.base`` references it: the file object is closed on return, and
    the mapping, with the descriptor ``mmap`` keeps for itself, goes
    with the last array.  A file too short for its header's arrays
    raises :class:`LakeError`, like a bad magic tag or a truncated
    header.
    """
    base = len(RWB_MAGIC) + _RWB_LEN.size
    with open(path, "rb") as handle:
        prefix = handle.read(base)
        header_len = (
            _RWB_LEN.unpack(prefix[len(RWB_MAGIC):])[0]
            if len(prefix) == base and prefix[: len(RWB_MAGIC)] == RWB_MAGIC
            else 0
        )
        prefix += handle.read(header_len)
        header, data_start = _parse_rwb_header(prefix, path)
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    out: Dict[str, np.ndarray] = {}
    for meta in header["arrays"]:
        start = data_start + int(meta["offset"])
        dtype = np.dtype(meta["dtype"])
        if start + int(meta["nbytes"]) > len(mapped):
            raise LakeError(f"truncated raw weight bundle: {path}")
        out[meta["name"]] = np.frombuffer(
            mapped, dtype=dtype, count=int(meta["nbytes"]) // dtype.itemsize,
            offset=start,
        ).reshape(meta["shape"])
    return out


def to_jsonable(obj: Any) -> Any:
    """Recursively convert numpy scalars/arrays into plain Python values."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    return obj


def dumps_json(obj: Any) -> str:
    """Deterministic JSON encoding (sorted keys, compact separators)."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))
