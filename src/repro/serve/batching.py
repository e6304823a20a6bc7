"""Micro-batching: coalesce queries that queue behind busy workers.

The :class:`MicroBatcher` is work-conserving: it never holds a query
back while a worker is free.  A query dispatches at once while fewer
than ``workers`` batches are in flight.  Queries that arrive while
every worker is busy wait in a pending set, and when a worker frees up
they go out together as one batch of at most ``max_batch`` unique
triples.  So an idle server answers each query alone, with no added
latency, and a loaded one coalesces exactly the queries that would
otherwise have queued.

A batch shares one executor hop, one index lock and buffer
materialization (:meth:`~repro.index.flat.FlatIndex.query_batch`), and
one ranking per distinct query.  The rows are still scored one
matrix-vector product each, deliberately: a single matrix-matrix
product would make scores depend on which queries shared the batch.

Identical waiting triples ``(query, k, method)`` are deduplicated —
they share one future and one slot in the dispatched batch, so a burst
of clients asking the same question costs one ranking.  A query never
joins a batch that has already been dispatched: a twin of an in-flight
query waits for (or starts) a batch of its own.  Results are read-only
to callers by convention (hit lists are shared between deduplicated
waiters).
"""

from __future__ import annotations

import asyncio
import itertools
from typing import Any, Callable, Dict, List, Set, Tuple

from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    SERVE_BATCHES,
    SERVE_BATCH_SIZE,
    SERVE_QUEUE_DEPTH,
)
from repro.obs.logging import get_logger

_log = get_logger("serve.batching")

#: One search request: (query_text, k, method).
QueryKey = Tuple[str, int, str]
#: Scores a whole batch of triples; runs on an executor thread.
BatchRunner = Callable[[List[QueryKey]], List[Any]]


class MicroBatcher:
    """Work-conserving query coalescer over a blocking batch runner.

    Parameters
    ----------
    runner:
        Called with the batch's unique query triples on an executor
        thread; must return one result per triple, positionally.
    executor:
        Where ``runner`` runs (``None`` uses the loop's default).  The
        engine releases the GIL inside BLAS, so a small pool lets the
        scoring of one batch overlap the collection of the next.
    workers:
        Most batches in flight at once; match the executor's thread
        count.  Queries arriving while this many are in flight wait
        and coalesce.
    max_batch:
        Most unique triples in one dispatch.
    """

    def __init__(
        self,
        runner: BatchRunner,
        executor=None,
        workers: int = 2,
        max_batch: int = 64,
    ):
        self._runner = runner
        self._executor = executor
        self._workers = max(1, int(workers))
        self._max_batch = max(1, int(max_batch))
        self._pending: Dict[QueryKey, asyncio.Future] = {}
        self._inflight: Set[asyncio.Task] = set()
        self._draining = False

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    async def submit(self, query: str, k: int, method: str) -> Any:
        """Result for one query; may ride a shared batch dispatch."""
        if self._draining:
            raise RuntimeError("batcher is draining; no new queries")
        key: QueryKey = (query, int(k), method)
        future = self._pending.get(key)
        if future is None:
            future = asyncio.get_running_loop().create_future()
            self._pending[key] = future
            self._pump()
        return await future

    def _pump(self) -> None:
        """Dispatch waiting triples while a worker is free."""
        while self._pending and len(self._inflight) < self._workers:
            keys = list(itertools.islice(self._pending, self._max_batch))
            batch = {key: self._pending.pop(key) for key in keys}
            task = asyncio.get_running_loop().create_task(self._dispatch(batch))
            self._inflight.add(task)
            task.add_done_callback(self._finished)
        obs_metrics.set_gauge(SERVE_QUEUE_DEPTH, len(self._pending))

    def _finished(self, task: asyncio.Task) -> None:
        self._inflight.discard(task)
        self._pump()

    async def _dispatch(self, batch: Dict[QueryKey, asyncio.Future]) -> None:
        keys = list(batch)
        obs_metrics.inc(SERVE_BATCHES)
        obs_metrics.observe(SERVE_BATCH_SIZE, len(keys))
        loop = asyncio.get_running_loop()
        try:
            results = await loop.run_in_executor(
                self._executor, self._runner, keys
            )
        except Exception as exc:  # noqa: BLE001 - the waiters own the
            # failure: every future in the batch re-raises it.
            _log.warning("batch.failed", size=len(keys), error=str(exc))
            for future in batch.values():
                if not future.done():
                    future.set_exception(exc)
            return
        for key, result in zip(keys, results):
            future = batch[key]
            if not future.done():
                future.set_result(result)

    async def drain(self) -> None:
        """Reject new queries, then await every batch, tail included.

        Waiting triples need no flush: each finished batch dispatches
        the next, so the loop ends only once nothing is pending.
        """
        self._draining = True
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
