"""The lint cache: every phase's reusable results in one JSON file.

Each phase stores its results in a named table, one entry per file,
under a *stamp* that folds in everything the entry depends on:

* ``files`` — post-pragma per-file findings; stamp = rule-set
  fingerprint + the file's content digest.
* ``extractions`` — graph :class:`~repro.analysis.graph.extract.ModuleFacts`;
  stamp = ``EXTRACT_VERSION`` + content digest.
* ``graph_modules`` / ``dataflow_modules`` — post-pragma module-scope
  findings of the graph and dataflow packs; stamp = the module's
  *dependency digest* (the content digests of its forward import
  closure plus that pack's rule fingerprint and version), so an edit
  invalidates exactly the file plus its reverse-import closure.
* ``project`` — the global-scope graph rules (``dead-symbol``), one
  entry whose stamp covers every file digest.

A version bump in one pack changes only that pack's stamps, so the
other tables keep replaying.  Baseline suppression is *not* cached: it
is applied at report time, so editing ``.repro-lint.json`` never
requires a re-lint.

The file is loaded once and written once, atomically (tmp + rename), so
a killed run never leaves a truncated cache behind; an unwritable cache
degrades to a slower lint, never a failed one.
"""

from __future__ import annotations

import json
import os
import tempfile
from collections import Counter
from typing import Dict, Iterable, List, Optional

from repro.analysis.core import Finding
from repro.utils.hashing import text_digest

__all__ = [
    "LintCache",
    "DEFAULT_CACHE_NAME",
    "PROJECT_KEY",
    "TABLES",
    "content_digest",
]

DEFAULT_CACHE_NAME = ".repro-lint-cache.json"
_FORMAT_VERSION = 2
TABLES = ("files", "extractions", "graph_modules", "project", "dataflow_modules")
#: The key of the ``project`` table's single entry.
PROJECT_KEY = "*"


def content_digest(source: str) -> str:
    return text_digest(source, length=32)


class LintCache:
    """Load-once, save-once; ``path=None`` disables persistence."""

    def __init__(self, path: Optional[str]):
        self.path = path
        self.hits: Counter = Counter()
        self.misses: Counter = Counter()
        self._dirty = False
        self._tables: Dict[str, Dict[str, dict]] = {name: {} for name in TABLES}
        if path is not None:
            self._load(path)

    def _load(self, path: str) -> None:
        try:
            with open(path) as handle:
                payload = json.load(handle)
        except (OSError, ValueError):
            return
        if not isinstance(payload, dict) or payload.get("version") != _FORMAT_VERSION:
            return
        tables = payload.get("tables")
        if not isinstance(tables, dict):
            return
        for name in TABLES:
            table = tables.get(name)
            if isinstance(table, dict):
                self._tables[name] = table

    def get(self, table: str, key: str, stamp: str) -> Optional[object]:
        """The value stored for ``key`` under exactly ``stamp``, or ``None``."""
        entry = self._tables[table].get(key)
        if entry is None or entry.get("stamp") != stamp:
            self.misses[table] += 1
            return None
        self.hits[table] += 1
        return entry.get("value")

    def put(self, table: str, key: str, stamp: str, value: object) -> None:
        self._tables[table][key] = {"stamp": stamp, "value": value}
        self._dirty = True

    def get_findings(
        self, table: str, key: str, stamp: str
    ) -> Optional[List[Finding]]:
        raw = self.get(table, key, stamp)
        if raw is None:
            return None
        return [Finding.from_dict(item) for item in raw]  # type: ignore[union-attr]

    def put_findings(
        self, table: str, key: str, stamp: str, findings: List[Finding]
    ) -> None:
        self.put(table, key, stamp, [finding.to_dict() for finding in findings])

    def prune(self, live_paths: Iterable[str]) -> None:
        """Drop every table's entries for files no longer in the sweep."""
        live = set(live_paths) | {PROJECT_KEY}
        for table in self._tables.values():
            for stale in [key for key in table if key not in live]:
                del table[stale]
                self._dirty = True

    def save(self) -> None:
        """Atomically persist (no-op when pathless or clean).

        Any ``OSError`` — a missing directory, a full disk, a failed
        rename — leaves the cache unpersisted and the lint unaffected.
        """
        if self.path is None or not self._dirty:
            return
        payload = {"version": _FORMAT_VERSION, "tables": self._tables}
        tmp_path = None
        try:
            descriptor, tmp_path = tempfile.mkstemp(
                prefix=".repro-lint-cache.",
                dir=os.path.dirname(os.path.abspath(self.path)),
            )
            with os.fdopen(descriptor, "w") as handle:
                json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            os.replace(tmp_path, self.path)
        except OSError:
            if tmp_path is not None:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    # Best effort: the cache is optional and the write
                    # has already failed.
                    pass
            return
        self._dirty = False
