"""Persistent embedding cache keyed by weight-store content digests.

Embedding a model means rehydrating its weights and running probes or
SVDs over them — by far the most expensive part of building a
:class:`~repro.core.search.engine.SearchEngine`.  But an embedding is a
pure function of (embedder identity, model weights), and the weight
store already names every parameter set by content digest.  So the cache
key is ``(space, weights_digest)`` where *space* encodes the embedder
and its configuration; any model whose digest is cached skips
rehydration and embedding entirely.

On disk each space is one ``embeddings-<space>.npz`` under the cache
directory (conventionally ``<lake>/cache/``), whatever the lake's own
storage layout.  Each file holds exactly two members: ``digests`` (a
string array) and ``vectors`` (the matching float64 rows stacked into
one matrix), so a warm open costs one file read per space however many
models it covers.  A file in any other layout (such as the older
one-member-per-digest archives) or one that cannot be read (empty,
truncated, a bare ``.npy``) reads as empty: its entries miss, get
recomputed, and the next flush rewrites the file in the current layout.
Older per-digest-prefix directories (``embeddings-<space>/<pp>.npz``)
are never read, so a lake that still has them re-embeds once and
writes the single file; the directories can then be deleted.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, Optional, Set

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.instrument import EMBED_CACHE_HITS, EMBED_CACHE_MISSES
from repro.obs.logging import get_logger
from repro.reliability.atomic import atomic_write_npz, read_npz
from repro.reliability.faults import InjectedFault

_log = get_logger("index.embed_cache")

# Resolved once at import; registry.reset() zeroes them in place.
_hits_counter = obs_metrics.get_registry().counter(EMBED_CACHE_HITS)
_misses_counter = obs_metrics.get_registry().counter(EMBED_CACHE_MISSES)

#: The members of a cache file, in the order ``flush`` writes them.
_MEMBERS = ["digests", "vectors"]


class EmbeddingCache:
    """Two-level (memory + optional directory) embedding cache.

    ``directory=None`` keeps the cache purely in-memory, which still
    dedups embeddings within a process; with a directory, each space is
    persisted as ``embeddings-<space>.npz`` and survives across runs.
    """

    def __init__(self, directory: Optional[str] = None):
        self._directory = directory
        #: space -> digest -> vector.
        self._spaces: Dict[str, Dict[str, np.ndarray]] = {}
        self._dirty: Set[str] = set()
        # Serializes lazy space loads, puts, and flushes.  Without it,
        # two requests first-touching the same space both miss
        # ``_spaces.get``, both read the npz, and the loser's
        # ``_spaces[space] = vectors`` overwrites a dict the winner may
        # already have put fresh embeddings into — which a later flush
        # then persists *without* those entries (silent cache loss).
        # Reentrant because ``put`` loads the space it writes to.
        self._lock = threading.RLock()
        if directory is not None:
            os.makedirs(directory, exist_ok=True)

    @property
    def directory(self) -> Optional[str]:
        """The cache directory, or None for an in-memory cache."""
        return self._directory

    # ------------------------------------------------------------------
    def _path(self, space: str) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, f"embeddings-{space}.npz")

    def _load_space(self, space: str) -> Dict[str, np.ndarray]:
        """The (lazily loaded) digest->vector dict for one space.

        The load runs under the cache lock: exactly one thread performs
        the disk read for a given space, and every later caller gets the
        *same* dict object, so concurrent puts can never be lost to a
        racing reload.  A space's dict is stored once and never
        replaced, so a caller that finds it loaded needs no lock.
        Loaded vectors are read-only row views of the file's one matrix.
        """
        vectors = self._spaces.get(space)
        if vectors is not None:
            return vectors
        with self._lock:
            vectors = self._spaces.get(space)
            if vectors is not None:
                return vectors
            vectors = {}
            if self._directory is not None:
                archive = read_npz(self._path(space), _MEMBERS)
                if archive is not None:
                    vectors = dict(zip(
                        archive["digests"].tolist(), archive["vectors"]
                    ))
                    _log.debug("space.loaded", space=space, entries=len(vectors))
            self._spaces[space] = vectors
            return vectors

    # ------------------------------------------------------------------
    def get(self, space: str, digest: str) -> Optional[np.ndarray]:
        """Cached embedding for ``digest`` in ``space``, or None."""
        vector = self._load_space(space).get(digest)
        if vector is None:
            _misses_counter.inc()
            return None
        _hits_counter.inc()
        return vector

    def put(self, space: str, digest: str, vector: np.ndarray) -> None:
        with self._lock:
            self._load_space(space)[digest] = np.asarray(
                vector, dtype=np.float64
            )
            self._dirty.add(space)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(vectors) for vectors in self._spaces.values())

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist dirty spaces to disk (atomic per file); no-op in memory mode.

        A space is written as its sorted digests plus one stacked matrix
        of their vectors.  Holds the cache lock for the whole sweep so a
        concurrent reader can neither observe a file mid-rewrite through
        a racing lazy load nor slip a put between the snapshot and the
        space's dirty mark being cleared (which would silently drop it).

        A space whose file cannot be written (a read-only lake, say) is
        logged and stays dirty, its vectors still served from memory; a
        later flush tries it again.
        """
        with self._lock:
            if self._directory is None:
                self._dirty.clear()
                return
            for space in sorted(self._dirty):
                vectors = self._spaces[space]
                digests = sorted(vectors)
                path = self._path(space)
                try:
                    atomic_write_npz(path, {
                        "digests": np.array(digests),
                        "vectors": np.stack([vectors[d] for d in digests]),
                    })
                except InjectedFault:
                    # Models a process kill, which logs nothing.
                    raise
                except OSError as exc:
                    _log.warning("embeddings.save_failed", path=path, error=str(exc))
                    continue
                self._dirty.discard(space)
                _log.debug("space.flushed", space=space, entries=len(vectors))
