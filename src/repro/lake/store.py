"""Content-addressed weight storage with out-of-core reads.

Weights are stored by digest of their serialized bytes, so identical
parameter sets share storage and every stored artifact has a stable,
citable identity.  An optional directory backend persists blobs to disk
as raw weight bundles (``.rwb``), optionally sharded by digest prefix
(:class:`~repro.lake.shard.ShardLayout`).

Reads from disk are *lazy*: a blob is stream-verified against the
digest that names it (O(chunk) memory), then memory-mapped
(``open_arrays_memmap``) so array bytes are paged in on access and
never copied into the store.
The store keeps no mapping: each read maps the blob afresh, and the
mapping (with its fd) goes away when the caller drops the arrays.  That
keeps resident memory and the fd table flat no matter how many models a
lake holds — the property the ``shard.rss`` bench of ``repro bench``
gates on.  A store opened over a persisted lake
(``write_through=False``) is a pure read layer: ``put`` keeps new blobs
in memory only, so rehydrating models never mutates the on-disk lake.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.errors import LakeError, LakeIntegrityError
from repro.lake.shard import ShardLayout
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    WEIGHT_STORE_BYTES,
    WEIGHT_STORE_CACHE_HITS,
    WEIGHT_STORE_CACHE_MISSES,
    WEIGHT_STORE_DEDUP_HITS,
    WEIGHT_STORE_PUTS,
)
from repro.reliability.atomic import atomic_copy_file, atomic_write_bytes
from repro.reliability.digest import stream_digest
from repro.utils.hashing import bytes_digest
from repro.utils.serialization import (
    open_arrays_memmap,
    pack_arrays,
    unpack_arrays,
)


class WeightStore:
    """Content-addressed blob store: in-memory, optionally disk-backed."""

    def __init__(
        self,
        directory: Optional[str] = None,
        layout: Optional[ShardLayout] = None,
        write_through: bool = True,
    ):
        self._blobs: Dict[str, bytes] = {}
        self._directory = directory
        self._layout = layout or ShardLayout()
        self._write_through = write_through
        # Disk blobs that already passed a streaming digest check this
        # session; only *successes* are memoized, so a corrupted file
        # keeps failing until its bytes are actually repaired.
        self._verified: Set[str] = set()
        # Guards ``_verified``, so concurrent first reads of one digest
        # stream-verify it once.
        self._lock = threading.Lock()
        if directory is not None and write_through:
            os.makedirs(directory, exist_ok=True)
        # Pre-register the cache counters so a metrics snapshot always
        # carries both names, even before the first get().
        registry = obs_metrics.get_registry()
        registry.counter(WEIGHT_STORE_CACHE_HITS)
        registry.counter(WEIGHT_STORE_CACHE_MISSES)

    @property
    def layout(self) -> ShardLayout:
        return self._layout

    def __len__(self) -> int:
        return len(self._blobs)

    def __contains__(self, digest: str) -> bool:
        return digest in self._blobs or self._on_disk(digest)

    def put(self, state: Dict[str, np.ndarray]) -> str:
        """Store a state dict; returns its content digest."""
        # Digest format v3: hash the raw weight bundle bytes.  (v2
        # hashed the npz archive — a zip container whose bytes cannot be
        # memmapped or stream-verified without full materialization;
        # digests changed with the bump, as they did for v1 -> v2.)
        blob = pack_arrays(state)
        digest = bytes_digest(blob, length=24)
        if digest in self._blobs:
            obs_metrics.inc(WEIGHT_STORE_DEDUP_HITS)
        else:
            obs_metrics.inc(WEIGHT_STORE_PUTS)
            self._blobs[digest] = blob
            obs_metrics.set_gauge(WEIGHT_STORE_BYTES, self.total_bytes())
            if self._directory is not None and self._write_through:
                path = self._path(digest)
                if not os.path.exists(path):
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    # Atomic: a crash mid-put leaves no partial blob for a
                    # later get() to mistake for the real artifact.
                    atomic_write_bytes(path, blob)
        return digest

    def get(self, digest: str) -> Dict[str, np.ndarray]:
        """Fetch a state dict by digest.

        Memory blobs decode in place; disk blobs are stream-verified
        (once per session) and then opened as memmap-backed arrays, so
        a get() never materializes a full weight file.  The store keeps
        no reference to the mapping: it lives exactly as long as the
        caller holds the arrays.  A truncated or bit-rotted blob raises
        :class:`~repro.errors.LakeIntegrityError` (naming the path and
        the expected digest) instead of a cryptic parse failure.  Returned arrays are read-only views — callers
        that mutate must copy, as ``Module.load_state_dict`` does.
        """
        blob = self._blobs.get(digest)
        if blob is not None:
            obs_metrics.inc(WEIGHT_STORE_CACHE_HITS)
            return unpack_arrays(blob)
        obs_metrics.inc(WEIGHT_STORE_CACHE_MISSES)
        if self._on_disk(digest):
            return open_arrays_memmap(self._verify_disk(digest))
        raise LakeError(f"weights not found for digest {digest!r}")

    def blob(self, digest: str) -> bytes:
        """Raw serialized bytes for ``digest`` (verified on disk reads).

        Disk reads are *not* cached: callers that need full bytes (blob
        export, resident-mode benchmarks) are the exception, and caching
        them would silently re-grow the resident footprint the memmap
        path exists to avoid.  Use :meth:`materialize` to opt in.
        """
        blob = self._blobs.get(digest)
        if blob is not None:
            obs_metrics.inc(WEIGHT_STORE_CACHE_HITS)
            return blob
        obs_metrics.inc(WEIGHT_STORE_CACHE_MISSES)
        if self._on_disk(digest):
            path = self._verify_disk(digest)
            with open(path, "rb") as handle:
                return handle.read()
        raise LakeError(f"weights not found for digest {digest!r}")

    def materialize(self, digest: str) -> None:
        """Load a disk blob fully into memory (resident mode).

        Exists for workloads that genuinely want RAM-speed repeated
        access — and for the benchmark that demonstrates why the memmap
        default is the right one.
        """
        if digest in self._blobs:
            return
        blob = self.blob(digest)
        self._blobs[digest] = blob
        obs_metrics.set_gauge(WEIGHT_STORE_BYTES, self.total_bytes())

    def export_blob(
        self, digest: str, dest: str, fsync: bool = True
    ) -> Tuple[int, str]:
        """Atomically write a blob's bytes to ``dest``.

        Memory blobs are written directly; disk blobs are streamed via
        :func:`~repro.reliability.atomic.atomic_copy_file`, so exporting
        (e.g. during ``repro migrate``) never materializes a weight
        file.  Returns ``(size, file_digest)`` for manifest integrity
        entries — ``file_digest`` is the 24-char digest of the written
        bytes, which for a weight bundle equals ``digest`` itself.
        """
        os.makedirs(os.path.dirname(os.path.abspath(dest)), exist_ok=True)
        blob = self._blobs.get(digest)
        if blob is not None:
            atomic_write_bytes(dest, blob, fsync=fsync)
            return len(blob), bytes_digest(blob, length=24)
        if self._on_disk(digest):
            path = self._verify_disk(digest)
            size = atomic_copy_file(path, dest, fsync=fsync)
            return size, digest
        raise LakeError(f"weights not found for digest {digest!r}")

    def blob_size(self, digest: str) -> int:
        blob = self._blobs.get(digest)
        if blob is not None:
            return len(blob)
        if self._on_disk(digest):
            return os.path.getsize(self._path(digest))
        raise LakeError(f"weights not found for digest {digest!r}")

    def digests(self):
        return list(self._blobs)

    def total_bytes(self) -> int:
        return sum(len(blob) for blob in self._blobs.values())

    def _verify_disk(self, digest: str) -> str:
        """Streaming digest check of a disk blob; memoized on success."""
        path = self._path(digest)
        with self._lock:
            if digest not in self._verified:
                actual = stream_digest(path, length=len(digest))
                if actual != digest:
                    raise LakeIntegrityError(
                        path=path, expected=digest, actual=actual,
                        kind="weight blob",
                    )
                self._verified.add(digest)
        return path

    def _path(self, digest: str) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, self._layout.weight_subpath(digest))

    def _on_disk(self, digest: str) -> bool:
        return self._directory is not None and os.path.exists(self._path(digest))
