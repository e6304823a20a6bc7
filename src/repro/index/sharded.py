"""Shard-partitioned nearest-neighbor index with deterministic merge.

A sharded lake groups every artifact by weight-digest prefix; this
index mirrors that partition on the search side.  Each shard owns an
independent backend index (flat or HNSW) over just its items, shard
builds fan out across processes through
:class:`~repro.parallel.WaveExecutor`, and a query probes every shard
and merges the per-shard top-k by ``(-score, id)`` — a total order, so
results are identical for any worker count and any shard arrangement.

With the flat backend the merge is *exactly* equivalent to one global
brute-force index (each shard scan is exact, and the union of exact
top-k supersets contains the global top-k); with HNSW it bounds the
blast radius of approximation to a shard.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError, IndexError_
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.obs.tracing import trace

_BACKENDS = ("flat", "hnsw")


def _build_shard(task) -> Tuple[str, object]:
    """Build one shard's backend index (top-level: wave-picklable)."""
    key, backend, backend_kwargs, ids, vectors = task
    index = (
        HNSWIndex(**backend_kwargs) if backend == "hnsw"
        else FlatIndex(**backend_kwargs)
    )
    index.build(ids, np.asarray(vectors, dtype=np.float64))
    return key, index


class ShardedIndex:
    """Digest-prefix-partitioned index over per-shard backend indexes.

    Parameters
    ----------
    backend:
        ``"flat"`` (exact per shard, exact after merge) or ``"hnsw"``.
    prefix_len:
        Default shard key length taken from each item id when ``build``
        is not given explicit keys.
    workers:
        Shard builds run through a :class:`~repro.parallel.WaveExecutor`
        with this many processes (1 = inline).
    backend_kwargs:
        Forwarded to each shard's backend constructor.
    """

    def __init__(
        self,
        backend: str = "flat",
        prefix_len: int = 2,
        workers: int = 1,
        **backend_kwargs,
    ):
        if backend not in _BACKENDS:
            raise ConfigError(
                f"unknown sharded backend {backend!r}; expected one of {_BACKENDS}"
            )
        self.backend = backend
        self.prefix_len = prefix_len
        self.workers = max(1, int(workers))
        self._backend_kwargs = dict(backend_kwargs)
        self._shards: Dict[str, object] = {}
        self._key_of: Dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._key_of)

    @property
    def shard_keys(self) -> List[str]:
        return sorted(self._shards)

    def build(
        self,
        ids: Sequence[str],
        vectors: np.ndarray,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        """Partition items by key and build every shard index.

        ``keys`` aligns with ``ids`` and names each item's shard —
        conventionally the first ``prefix_len`` characters of its weight
        digest, falling back to a prefix of the id itself.  Shards build
        in sorted-key order (and in parallel when ``workers > 1``; wave
        results preserve task order, so the result is identical).
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(ids) != len(vectors):
            raise IndexError_(f"{len(ids)} ids but {len(vectors)} vectors")
        if keys is None:
            keys = [item_id[: self.prefix_len] for item_id in ids]
        if len(keys) != len(ids):
            raise IndexError_(f"{len(ids)} ids but {len(keys)} shard keys")

        grouped: Dict[str, List[int]] = {}
        for row, key in enumerate(keys):
            grouped.setdefault(str(key), []).append(row)
        tasks = [
            (
                key,
                self.backend,
                self._backend_kwargs,
                [ids[row] for row in grouped[key]],
                vectors[grouped[key]],
            )
            for key in sorted(grouped)
        ]
        with trace(
            "index.sharded.build",
            shards=len(tasks), items=len(ids), workers=self.workers,
        ):
            if self.workers > 1 and len(tasks) > 1:
                from repro.parallel import WaveExecutor

                built = WaveExecutor(workers=self.workers).run_wave(
                    _build_shard, tasks, label="index.shards"
                )
            else:
                built = [_build_shard(task) for task in tasks]
        self._shards = {key: index for key, index in built}
        self._key_of = {}
        for key in sorted(grouped):
            for row in grouped[key]:
                self._key_of[ids[row]] = key

    def query(self, vector: np.ndarray, k: int = 10) -> List[Tuple[str, float]]:
        """Global top-k: probe every shard, merge by ``(-score, id)``."""
        merged: List[Tuple[float, str]] = []
        for key in sorted(self._shards):
            for item_id, score in self._shards[key].query(vector, k=k):
                merged.append((-float(score), item_id))
        merged.sort()
        return [(item_id, -neg) for neg, item_id in merged[:k]]

    def query_batch(
        self, vectors: np.ndarray, k: int = 10
    ) -> List[List[Tuple[str, float]]]:
        """Batched global top-k: one batched probe per shard, then the
        same ``(-score, id)`` merge as :meth:`query`, per row.

        Each shard sees one ``query_batch`` call per batch instead of N
        ``query`` calls; a flat shard still scores each row with its own
        matrix-vector product, so the scan cost is unchanged and every
        row matches :meth:`query` exactly.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        batch = vectors.shape[0]
        if batch == 0:
            return []
        per_query: List[List[Tuple[float, str]]] = [[] for _ in range(batch)]
        for key in sorted(self._shards):
            shard_results = self._shards[key].query_batch(vectors, k=k)
            for row, hits in enumerate(shard_results):
                per_query[row].extend(
                    (-float(score), item_id) for item_id, score in hits
                )
        results: List[List[Tuple[str, float]]] = []
        for merged in per_query:
            merged.sort()
            results.append([(item_id, -neg) for neg, item_id in merged[:k]])
        return results

    def vector_of(self, item_id: str) -> np.ndarray:
        key = self._key_of.get(item_id)
        if key is None:
            raise IndexError_(f"id not in index: {item_id!r}")
        return self._shards[key].vector_of(item_id)
