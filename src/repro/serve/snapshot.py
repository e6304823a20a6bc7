"""Read-only lake snapshots for a long-lived serving process.

A warm open reads only derived files under ``<dir>/cache``: the record
table (ids, weight digests and column digests, so no record is built
and no id decoded until a request asks for one), the frozen BM25 table, the text probe
set and the behavioral embedding matrix.  Each is keyed by what it was
derived from, and any that is missing, stale or unreadable is rebuilt
and rewritten by the open.  The weight-statistics matrix is read (or
built and written) only when a ``related_models(view="weight")`` call
first needs it; nothing the server answers does.

A snapshot holds one OS resource, a read-only mapping of the record
table (``cache/records.npz``), and no file descriptor: the table's
members are views of that mapping, so a ``/model`` request decodes its
entry from pages that were never read before it asked, and the mapping
pins the file the open checked even if a later open replaces it (by a
rename: a write in place would cut pages out from under the server).
Weight blobs are mapped per read and the mapping goes away with the
caller's arrays (``get_model`` copies them into modules), so nothing
else stays open between requests.  Hot swap
is therefore "open a new snapshot, publish it": requests that raced the
swap finish against the old snapshot's objects, which are reclaimed
when the last of them lets go.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.search.engine import SearchEngine
from repro.lake.persist import load_lake
from repro.obs.logging import get_logger

_log = get_logger("serve.snapshot")


class LakeSnapshot:
    """One immutable view of a persisted lake, plus its search engine.

    Build with :meth:`open`.  The engine is constructed eagerly so the
    first request never pays index warm-up, and the caches under
    ``<dir>/cache`` make that warm-up skip manifest decoding, card
    tokenizing and model rehydration when they are current.
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
        engine = SearchEngine(lake, cache_dir=os.path.join(directory, "cache"))
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

    def close(self) -> None:
        """Mark the snapshot closed.  Idempotent.

        Releases nothing — the record table's mapping goes when the
        last reference to the lake does — and the lake and engine stay
        readable; it marks the end of the snapshot's service (the
        server calls it after its drain).
        """
        if self._closed:
            return
        self._closed = True
        _log.info("snapshot.closed", directory=self._directory)

    def __enter__(self) -> "LakeSnapshot":
        return self

    def __exit__(self, *exc_info) -> Optional[bool]:
        self.close()
        return None
