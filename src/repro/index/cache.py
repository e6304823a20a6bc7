"""Persistent embedding cache keyed by weight-store content digests.

Embedding a model means rehydrating its weights and running probes or
SVDs over them — by far the most expensive part of building a
:class:`~repro.core.search.engine.SearchEngine`.  But an embedding is a
pure function of (embedder identity, model weights), and the weight
store already names every parameter set by content digest.  So the cache
key is ``(space, weights_digest)`` where *space* encodes the embedder
and its configuration; any model whose digest is cached skips
rehydration and embedding entirely.

On disk each space is one ``.npz`` under the cache directory
(conventionally ``<lake>/cache/``) — or, when the lake itself is
sharded, one ``.npz`` *per digest-prefix shard* under
``embeddings-<space>/<pp>.npz``.  Each file holds exactly two members:
``digests`` (a string array) and ``vectors`` (the matching float64
rows stacked into one matrix), so loading a file costs one open and two
member reads however many models it covers.  A file in any other
layout (such as the older one-member-per-digest archives) reads as
empty: its entries miss, get recomputed, and the next flush rewrites
the file in the current layout.  Sharded spaces load lazily, a shard at
a time as digests are looked up, so a warm rebuild touching a slice of
the lake never materializes the whole cache; and each flush rewrites
only the shards that actually changed.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Set, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.instrument import EMBED_CACHE_HITS, EMBED_CACHE_MISSES
from repro.obs.logging import get_logger
from repro.reliability.atomic import atomic_write_npz

_log = get_logger("index.embed_cache")

#: The members of a cache file, in the order ``flush`` writes them.
_MEMBERS = ["digests", "vectors"]


class EmbeddingCache:
    """Two-level (memory + optional directory) embedding cache.

    ``directory=None`` keeps the cache purely in-memory, which still
    dedups embeddings within a process; with a directory, spaces are
    persisted as ``embeddings-<space>.npz`` and survive across runs.
    ``prefix_len`` (matching the lake's
    :class:`~repro.lake.shard.ShardLayout`) shards each space by digest
    prefix instead.
    """

    def __init__(
        self, directory: Optional[str] = None, prefix_len: Optional[int] = None
    ):
        self._directory = directory
        self._prefix_len = prefix_len
        #: space -> shard key -> digest -> vector.  Unsharded caches use
        #: the single shard key "".
        self._spaces: Dict[str, Dict[str, Dict[str, np.ndarray]]] = {}
        self._dirty: Set[Tuple[str, str]] = set()
        # Serializes lazy shard loads, puts, and flushes.  Without it,
        # two requests first-touching the same shard both miss
        # ``shards.get``, both read the npz, and the loser's
        # ``shards[shard] = vectors`` overwrites a dict the winner may
        # already have put fresh embeddings into — which a later flush
        # then persists *without* those entries (silent cache loss).
        # Reentrant because ``put`` loads the shard it writes to.
        self._lock = threading.RLock()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    # ------------------------------------------------------------------
    def _shard_of(self, digest: str) -> str:
        return digest[: self._prefix_len] if self._prefix_len else ""

    def _path(self, space: str, shard: str) -> str:
        assert self._directory is not None
        if shard:
            return os.path.join(
                self._directory, f"embeddings-{space}", f"{shard}.npz"
            )
        return os.path.join(self._directory, f"embeddings-{space}.npz")

    def _load_shard(self, space: str, shard: str) -> Dict[str, np.ndarray]:
        """The (lazily loaded) digest->vector dict for one shard.

        Runs entirely under the cache lock: exactly one thread performs
        the disk read for a given shard, and every later caller gets the
        *same* dict object, so concurrent puts can never be lost to a
        racing reload.  Loaded vectors are row views of the file's one
        matrix.
        """
        with self._lock:
            shards = self._spaces.setdefault(space, {})
            vectors = shards.get(shard)
            if vectors is not None:
                return vectors
            vectors = {}
            if self._directory is not None:
                path = self._path(space, shard)
                if os.path.exists(path):
                    with np.load(path) as archive:  # repro: noqa[whole-file-read]
                        if archive.files == _MEMBERS:
                            vectors = dict(zip(
                                archive["digests"].tolist(), archive["vectors"]
                            ))
                    _log.debug(
                        "shard.loaded", space=space, shard=shard or "-",
                        entries=len(vectors),
                    )
            shards[shard] = vectors
            return vectors

    # ------------------------------------------------------------------
    def get(self, space: str, digest: str) -> Optional[np.ndarray]:
        """Cached embedding for ``digest`` in ``space``, or None."""
        vector = self._load_shard(space, self._shard_of(digest)).get(digest)
        if vector is None:
            obs_metrics.inc(EMBED_CACHE_MISSES)
            return None
        obs_metrics.inc(EMBED_CACHE_HITS)
        return vector

    def put(self, space: str, digest: str, vector: np.ndarray) -> None:
        shard = self._shard_of(digest)
        with self._lock:
            self._load_shard(space, shard)[digest] = np.asarray(
                vector, dtype=np.float64
            )
            self._dirty.add((space, shard))

    def __len__(self) -> int:
        with self._lock:
            return sum(
                len(vectors)
                for shards in self._spaces.values()
                for vectors in shards.values()
            )

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist dirty shards to disk (atomic per file); no-op in memory mode.

        A shard is written as its sorted digests plus one stacked matrix
        of their vectors.  Holds the cache lock for the whole sweep so a
        concurrent reader can neither observe a shard file mid-rewrite
        through a racing lazy load nor slip a put between the snapshot
        and the dirty-set clear (which would silently drop its dirty
        mark).
        """
        with self._lock:
            if self._directory is None:
                self._dirty.clear()
                return
            for space, shard in sorted(self._dirty):
                vectors = self._spaces[space][shard]
                digests = sorted(vectors)
                path = self._path(space, shard)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                atomic_write_npz(path, {
                    "digests": np.array(digests),
                    "vectors": np.stack([vectors[d] for d in digests]),
                })
                _log.debug(
                    "shard.flushed", space=space, shard=shard or "-",
                    entries=len(vectors),
                )
            self._dirty.clear()
