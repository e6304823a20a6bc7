"""Read-only lake snapshots with explicit handle ownership.

A serving process holds a lake open for hours, not milliseconds, which
changes who owns the file handles: ``load_lake(materialize=False)``
memmaps weight blobs on demand, and without an owner those maps live
until garbage collection gets around to them.  :class:`LakeSnapshot`
makes the ownership explicit — the snapshot owns every handle its
engine's warm-up opened, and ``close()`` releases them
deterministically.

Hot swap works by *replacing*, never mutating: ``reload()`` builds a
completely fresh snapshot from disk (new lake, new engine, new memmaps)
and the server swaps its reference, then closes the old snapshot.
Requests that raced the swap finish against the old snapshot's arrays —
an ``np.memmap`` stays valid while any view references it, so closing
under stragglers is safe — and every later request sees the new one.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.search.engine import SearchEngine
from repro.data.probes import make_text_probes
from repro.lake.persist import load_lake
from repro.obs.logging import get_logger

_log = get_logger("serve.snapshot")


class LakeSnapshot:
    """One immutable view of a persisted lake, plus its search engine.

    Build with :meth:`open`; release with :meth:`close` (or use as a
    context manager).  The engine is constructed eagerly so the first
    request never pays index warm-up, and the embedding cache under
    ``<dir>/cache`` makes that warm-up skip model rehydration entirely
    when vectors are already on disk.
    """

    def __init__(self, directory: str, lake, engine: SearchEngine):
        self._directory = directory
        self._lake = lake
        self._engine = engine
        self._closed = False

    @classmethod
    def open(cls, directory: str) -> "LakeSnapshot":
        """Open ``directory`` read-only and build the search engine."""
        lake = load_lake(directory, materialize=False)
        engine = SearchEngine(
            lake,
            make_text_probes(),
            cache_dir=os.path.join(directory, "cache"),
        )
        _log.info("snapshot.opened", directory=directory, models=len(lake))
        return cls(directory, lake, engine)

    @property
    def directory(self) -> str:
        return self._directory

    @property
    def lake(self):
        return self._lake

    @property
    def engine(self) -> SearchEngine:
        return self._engine

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def open_handles(self) -> int:
        """Memmap handles currently held by the snapshot's weight store."""
        return self._lake.weights.open_handles

    def reload(self) -> "LakeSnapshot":
        """A fresh snapshot of the same directory (hot-swap source).

        The caller owns both snapshots during the swap: publish the new
        one first, then ``close()`` this one.
        """
        return LakeSnapshot.open(self._directory)

    def close(self) -> None:
        """Release every file handle the snapshot holds.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._lake.close()
        _log.info("snapshot.closed", directory=self._directory)

    def __enter__(self) -> "LakeSnapshot":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None
