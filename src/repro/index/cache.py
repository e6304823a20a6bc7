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

An index build asks :meth:`EmbeddingCache.get` for a whole space at
once, passing every digest in one list: one ``np.searchsorted`` of the
wanted digests against the file's sorted ``digests`` column and one
fancy-index of ``vectors`` give the matrix in the caller's order, with
no per-digest Python object.  When every digest hits, the space is not
kept in memory, so the index's own (normalized) matrix is the only copy
left alive; a miss loads the space as a one-digest ``get`` does, so the
misses can be put and flushed into the same file.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union, overload

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

    @property
    def loaded_spaces(self) -> List[str]:
        """The spaces held in memory, sorted: those a one-digest
        :meth:`get`, a :meth:`put` or a list :meth:`get` with a miss
        loaded.  A list ``get`` that hit every digest keeps its space
        out."""
        with self._lock:
            return sorted(self._spaces)

    # ------------------------------------------------------------------
    def _path(self, space: str) -> str:
        assert self._directory is not None
        return os.path.join(self._directory, f"embeddings-{space}.npz")

    def _read(self, space: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The ``(digests, vectors)`` columns of ``space``'s file, or None.

        None for an in-memory cache, a missing or unreadable file, or
        one whose columns do not line up as ``flush`` writes them (a
        1-d string column and a 2-d matrix of as many rows).
        """
        if self._directory is None:
            return None
        archive = read_npz(self._path(space), _MEMBERS)
        if archive is None:
            return None
        digests, vectors = archive["digests"], archive["vectors"]
        if (digests.ndim != 1 or digests.dtype.kind != "U"
                or vectors.ndim != 2 or len(vectors) != len(digests)):
            return None
        return digests, vectors

    def _install(
        self, space: str, columns: Optional[Tuple[np.ndarray, np.ndarray]]
    ) -> Dict[str, np.ndarray]:
        """Make ``columns`` (or nothing) the space's digest->vector dict;
        the caller holds the lock.  Vectors are read-only row views of
        the file's one matrix."""
        vectors: Dict[str, np.ndarray] = {}
        if columns is not None:
            vectors = dict(zip(columns[0].tolist(), columns[1]))
            _log.debug("space.loaded", space=space, entries=len(vectors))
        self._spaces[space] = vectors
        return vectors

    def _load_space(self, space: str) -> Dict[str, np.ndarray]:
        """The (lazily loaded) digest->vector dict for one space.

        The load runs under the cache lock: exactly one thread performs
        the disk read for a given space, and every later caller gets the
        *same* dict object, so concurrent puts can never be lost to a
        racing reload.  A space's dict is stored once and never
        replaced, so a caller that finds it loaded needs no lock.
        """
        vectors = self._spaces.get(space)
        if vectors is not None:
            return vectors
        with self._lock:
            vectors = self._spaces.get(space)
            if vectors is not None:
                return vectors
            return self._install(space, self._read(space))

    # ------------------------------------------------------------------
    @overload
    def get(self, space: str, digests: str) -> Optional[np.ndarray]: ...

    @overload
    def get(
        self, space: str, digests: Sequence[str]
    ) -> Optional[Tuple[np.ndarray, List[int]]]: ...

    def get(
        self, space: str, digests: Union[str, Sequence[str]]
    ) -> Union[None, np.ndarray, Tuple[np.ndarray, List[int]]]:
        """Cached embeddings in ``space``, or None when none is cached.

        One digest (a ``str``) gives its vector.  A sequence of digests
        gives one matrix in their order plus the positions that missed:
        row ``i`` is ``get(space, digests[i])``, a missed row is zero.
        None if every position missed (so no width is known), including
        for no digests.

        For a sequence, a space not yet in memory is read from its file:
        the wanted digests are located by ``np.searchsorted`` in the
        sorted ``digests`` column and a row is kept only where the stored
        digest equals the wanted one, so an absent digest or an unsorted
        or foreign column gives a miss, never a wrong row.  If every
        position hits, the digest columns are dropped and one
        fancy-index of ``vectors`` is the result; the space stays out of
        memory.  Otherwise the space is loaded as for one digest, ready
        for the caller to :meth:`put` the misses, and served from its
        dict.

        The counters move as a one-digest ``get`` per position followed
        by a ``put`` of each miss would move them: each distinct missed
        digest counts one miss, every other position one hit.
        """
        if isinstance(digests, str):
            vector = self._load_space(space).get(digests)
            (_hits_counter if vector is not None else _misses_counter).inc()
            return vector
        with self._lock:
            loaded = self._spaces.get(space)
            if loaded is None:
                columns = self._read(space)
                rows = None if columns is None else _locate(columns[0], digests)
                if rows is not None:
                    vectors = columns[1]
                    del columns  # the digest column goes before the copy
                    _hits_counter.inc(len(digests))
                    return vectors[rows].astype(np.float64, copy=False), []
                loaded = self._install(space, columns)
            found = [loaded.get(digest) for digest in digests]
        missed = [position for position, row in enumerate(found) if row is None]
        misses = len({digests[position] for position in missed})
        _misses_counter.inc(misses)
        _hits_counter.inc(len(digests) - misses)
        if len(missed) == len(digests):
            return None
        width = next(row for row in found if row is not None).shape[0]
        matrix = np.zeros((len(digests), width), dtype=np.float64)
        for position, row in enumerate(found):
            if row is not None:
                matrix[position] = row
        return matrix, missed

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


def _locate(stored: np.ndarray, digests: Sequence[str]) -> Optional[np.ndarray]:
    """The row of each of ``digests`` in the sorted column ``stored``, or
    None if any of them is not there (or there are none)."""
    if not len(digests) or not len(stored):
        return None
    wanted = np.array(digests, dtype=str)
    rows = np.searchsorted(stored, wanted)
    np.minimum(rows, len(stored) - 1, out=rows)
    return rows if (stored[rows] == wanted).all() else None
