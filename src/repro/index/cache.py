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
sorted column of fixed-width ASCII bytes, ``S<w>``) and ``vectors``
(the matching float64 rows stacked into one matrix), so a warm open
costs one file read per space however many models it covers.  A file
in any other layout (such as the older one-member-per-digest archives,
or a ``digests`` column of ``str``) or one that cannot be read (empty,
truncated, a bare ``.npy``, a damaged member) reads as empty: its
entries miss, get recomputed once, and the next flush rewrites the file
in the current layout.  Older per-digest-prefix directories
(``embeddings-<space>/<pp>.npz``) are never read, so a lake that still
has them re-embeds once and writes the single file; the directories can
then be deleted.

An index build asks :meth:`EmbeddingCache.get` for a whole space at
once, passing every digest in one list, or as one ``S<w>`` array viewed
on the lake's packed digest column: one ``np.searchsorted`` of the
wanted digests against the file's ``digests`` column locates every row,
and the ``vectors`` member is then streamed in blocks of
:data:`~repro.index.flat.BLOCK_ROWS` rows, each row copied straight to
its place in one matrix in the caller's order.  No per-digest Python
object is made and the file's matrix is never held whole, so the
result (which :meth:`~repro.index.flat.FlatIndex.adopt` normalizes in
place) is the only full-size array the gather leaves.  The member's
CRC is checked only at its end, so a damaged member gives a miss,
never a partly filled matrix.  When every digest hits, the space is not
kept in memory; a miss loads the space as a one-digest ``get`` does,
so the misses can be put and flushed into the same file.
"""

from __future__ import annotations

import os
import threading
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union, overload

import numpy as np

from repro.index.flat import BLOCK_ROWS
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import EMBED_CACHE_HITS, EMBED_CACHE_MISSES
from repro.obs.logging import get_logger
from repro.reliability.atomic import NpzMembers, atomic_write_npz, open_npz
from repro.reliability.faults import InjectedFault

_log = get_logger("index.embed_cache")

# Resolved once at import; registry.reset() zeroes them in place.
_hits_counter = obs_metrics.get_registry().counter(EMBED_CACHE_HITS)
_misses_counter = obs_metrics.get_registry().counter(EMBED_CACHE_MISSES)

#: The members of a cache file, in the order ``flush`` writes them.
_MEMBERS = ["digests", "vectors"]

#: Rows per copy of a streamed block into the gathered matrix.
_SCATTER_ROWS = 128

#: Digests as :meth:`EmbeddingCache.get` takes a whole list of them:
#: ``str`` items, or an ``S<w>`` array of their ASCII bytes.
Digests = Union[Sequence[str], np.ndarray]


def _key(digest: Union[str, bytes]) -> bytes:
    """A digest as the cache keys it: its ASCII (UTF-8) bytes."""
    return digest.encode() if isinstance(digest, str) else bytes(digest)


class EmbeddingCache:
    """Two-level (memory + optional directory) embedding cache.

    ``directory=None`` keeps the cache purely in-memory, which still
    dedups embeddings within a process; with a directory, each space is
    persisted as ``embeddings-<space>.npz`` and survives across runs.
    """

    def __init__(self, directory: Optional[str] = None):
        self._directory = directory
        #: space -> digest (ASCII bytes) -> vector.
        self._spaces: Dict[str, Dict[bytes, np.ndarray]] = {}
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

    def _read(
        self, space: str, wanted: Optional[np.ndarray] = None
    ) -> Union[None, np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """What ``space``'s file holds, or None.

        With ``wanted`` digests (an ``S`` array) that all sit in the
        file: the matrix of their rows, streamed (:func:`_gather`).
        Otherwise: the file's ``(digests, vectors)`` columns, read whole.
        None for an in-memory cache, a missing, unreadable or damaged
        file, or one whose columns do not line up as ``flush`` writes
        them (a 1-d, strictly ascending bytes column and a 2-d matrix of
        as many rows).
        """
        if self._directory is None:
            return None
        with open_npz(self._path(space), _MEMBERS) as archive:
            if archive is None:
                return None
            digests = archive.read("digests")
            if (digests.ndim != 1 or digests.dtype.kind != "S"
                    or (digests[1:] <= digests[:-1]).any()):
                return None
            located = None if wanted is None else _locate(digests, wanted)
            if located is not None:
                stored = len(digests)
                del digests  # the column goes before the matrix comes
                return _gather(archive, stored, *located)
            vectors = archive.read("vectors")
            if vectors.ndim == 2 and len(vectors) == len(digests):
                return digests, vectors
        return None

    def _install(
        self, space: str, columns: Optional[Tuple[np.ndarray, np.ndarray]]
    ) -> Dict[bytes, np.ndarray]:
        """Make ``columns`` (or nothing: a missing, unreadable or damaged
        file) the space's digest->vector dict; the caller holds the
        lock.  Vectors are read-only row views of the file's one matrix."""
        vectors: Dict[bytes, np.ndarray] = {}
        if columns is not None:
            vectors = dict(zip(columns[0].tolist(), columns[1]))
            _log.debug("space.loaded", space=space, entries=len(vectors))
        self._spaces[space] = vectors
        return vectors

    def _load_space(self, space: str) -> Dict[bytes, np.ndarray]:
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
        self, space: str, digests: Digests
    ) -> Optional[Tuple[np.ndarray, List[int]]]: ...

    def get(
        self, space: str, digests: Union[str, Digests]
    ) -> Union[None, np.ndarray, Tuple[np.ndarray, List[int]]]:
        """Cached embeddings in ``space``, or None when none is cached.

        One digest (a ``str``) gives its vector.  A sequence of digests
        (``str`` items, or an ``S<w>`` array of their ASCII bytes) gives
        one matrix in their order plus the positions that missed: row
        ``i`` is ``get(space, digests[i])``, a missed row is zero.  None
        if every position missed (so no width is known), including for
        no digests.

        For a sequence, a space not yet in memory is read from its file:
        the wanted digests are located by ``np.searchsorted`` in the
        sorted ``digests`` column and a row is kept only where the stored
        digest equals the wanted one, so an absent digest or an unsorted
        or foreign column gives a miss, never a wrong row.  If every
        position hits, the ``vectors`` member is streamed into the
        result (:func:`_gather`) and the space stays out of memory.
        Otherwise, or if the member turns out damaged, the space is
        loaded as for one digest, ready for the caller to :meth:`put`
        the misses, and served from its dict.

        The counters move as a one-digest ``get`` per position followed
        by a ``put`` of each miss would move them: each distinct missed
        digest counts one miss, every other position one hit.
        """
        if isinstance(digests, str):
            vector = self._load_space(space).get(_key(digests))
            (_hits_counter if vector is not None else _misses_counter).inc()
            return vector
        wanted = (
            digests if isinstance(digests, np.ndarray)
            else np.array([_key(digest) for digest in digests], dtype=bytes)
        )
        with self._lock:
            loaded = self._spaces.get(space)
            if loaded is None:
                read = self._read(space, wanted)
                if isinstance(read, np.ndarray):
                    _hits_counter.inc(len(wanted))
                    return read, []
                loaded = self._install(space, read)
            keys = wanted.tolist()
            found = [loaded.get(key) for key in keys]
        missed = [position for position, row in enumerate(found) if row is None]
        misses = len({keys[position] for position in missed})
        _misses_counter.inc(misses)
        _hits_counter.inc(len(keys) - misses)
        if len(missed) == len(keys):
            return None
        width = next(row for row in found if row is not None).shape[0]
        matrix = np.zeros((len(keys), width), dtype=np.float64)
        for position, row in enumerate(found):
            if row is not None:
                matrix[position] = row
        return matrix, missed

    def put(self, space: str, digest: Union[str, bytes], vector: np.ndarray) -> None:
        with self._lock:
            self._load_space(space)[_key(digest)] = np.asarray(
                vector, dtype=np.float64
            )
            self._dirty.add(space)

    def __len__(self) -> int:
        with self._lock:
            return sum(len(vectors) for vectors in self._spaces.values())

    # ------------------------------------------------------------------
    def flush(self) -> None:
        """Persist dirty spaces to disk (atomic per file); no-op in memory mode.

        A space is written as its sorted digests (``S<w>`` bytes) plus
        one stacked matrix of their vectors.  Holds the cache lock for
        the whole sweep so a concurrent reader can neither observe a
        file mid-rewrite through a racing lazy load nor slip a put
        between the snapshot and the space's dirty mark being cleared
        (which would silently drop it).

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
                        "digests": np.array(digests, dtype=bytes),
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


def _locate(
    stored: np.ndarray, wanted: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Where each of ``wanted`` sits in the sorted column ``stored``, or
    None if any of them is not there (or there are none).

    Given as ``(order, rows)``: the positions in ``wanted``, stably
    sorted by the row they sit in, and those rows, ascending; int32
    when they fit, as they are held through the whole gather.
    """
    if not len(wanted) or not len(stored):
        return None
    rows = np.searchsorted(stored, wanted)
    np.minimum(rows, len(stored) - 1, out=rows)
    if not (stored[rows] == wanted).all():
        return None
    order = np.argsort(rows, kind="stable")
    narrow = np.int32 if max(len(stored), len(wanted)) < 2**31 else np.intp
    return order.astype(narrow), rows[order].astype(narrow)


def _gather(
    archive: NpzMembers, stored: int, order: np.ndarray, rows: np.ndarray
) -> Optional[np.ndarray]:
    """The archive's ``vectors`` member, of ``stored`` rows, gathered into
    one new float64 matrix whose row ``order[i]`` is member row
    ``rows[i]`` (:func:`_locate`'s result).

    The member is read in blocks of :data:`BLOCK_ROWS` rows, and each
    block's wanted rows are copied straight to their places,
    :data:`_SCATTER_ROWS` at a time: ``rows`` ascends, so
    ``np.searchsorted`` cuts it at the block bounds.  None for a member
    of the wrong shape; a damaged one raises from the last block.
    """
    shape, blocks = archive.row_blocks("vectors", BLOCK_ROWS)
    if len(shape) != 2 or shape[0] != stored:
        return None
    cuts = np.searchsorted(rows, np.arange(0, stored + BLOCK_ROWS, BLOCK_ROWS))
    matrix = np.empty((len(order), shape[1]), dtype=np.float64)
    # Iterate the blocks to their end: the last step checks the CRC.
    for index, block in enumerate(blocks):
        lo, hi = cuts[index], cuts[index + 1]
        # An intp subtraction, as index math elsewhere does: an int32
        # one would map numpy code pages a server touches nowhere else.
        local = np.subtract(rows[lo:hi], index * BLOCK_ROWS, dtype=np.intp)
        positions = order[lo:hi]
        # A few rows per copy: a block-sized temporary would grow the
        # heap, and a process keeps what its heap grew to.
        for at in range(0, hi - lo, _SCATTER_ROWS):
            part = slice(at, at + _SCATTER_ROWS)
            matrix[positions[part]] = block[local[part]]
    return matrix
