"""Micro-batching: coalesce concurrent queries into one engine dispatch.

Under concurrency, N in-flight searches arriving within a few
milliseconds of each other can share one executor hop, one index lock
and buffer materialization
(:meth:`~repro.index.flat.FlatIndex.query_batch`), and one ranking per
distinct query.  The rows are still scored one matrix-vector product
each, deliberately: a single matrix-matrix product would make scores
depend on which queries shared the batch.  The
:class:`MicroBatcher` trades a bounded latency window (default 2 ms)
for that coalescing: the first query in a quiet period opens the
window, every query arriving inside it joins the batch, and the batch
dispatches when the window closes or the batch fills, whichever comes
first.

Identical in-flight triples ``(query, k, method)`` are deduplicated —
they share one future and one slot in the dispatched batch, so a burst
of clients asking the same question costs one ranking.  Results are
read-only to callers by convention (hit lists are shared between
deduplicated waiters).

``window=0`` disables coalescing entirely: every query dispatches
alone, immediately.  That is the per-request baseline the serve
benchmark A/B-tests against, through exactly the same code path.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

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
    """Window-bounded query coalescer over a blocking batch runner.

    Parameters
    ----------
    runner:
        Called with the batch's unique query triples on an executor
        thread; must return one result per triple, positionally.
    executor:
        Where ``runner`` runs (``None`` uses the loop's default).  The
        engine releases the GIL inside BLAS, so a small pool lets the
        scoring of one batch overlap the collection of the next.
    window:
        Seconds the first query of a batch waits for company.  ``0``
        dispatches every query alone (per-request baseline).
    max_batch:
        Dispatch immediately once this many unique triples are pending,
        without waiting out the window.
    """

    def __init__(
        self,
        runner: BatchRunner,
        executor=None,
        window: float = 0.002,
        max_batch: int = 64,
    ):
        if window < 0:
            raise ValueError(f"window must be >= 0, got {window}")
        self._runner = runner
        self._executor = executor
        self._window = float(window)
        self._max_batch = max(1, int(max_batch))
        self._pending: Dict[QueryKey, asyncio.Future] = {}
        self._timer: Optional[asyncio.TimerHandle] = None
        self._inflight: Set[asyncio.Task] = set()
        self._draining = False

    @property
    def window(self) -> float:
        return self._window

    @property
    def queue_depth(self) -> int:
        return len(self._pending)

    async def submit(self, query: str, k: int, method: str) -> Any:
        """Result for one query; may ride a shared batch dispatch."""
        if self._draining:
            raise RuntimeError("batcher is draining; no new queries")
        loop = asyncio.get_running_loop()
        if self._window == 0:
            # Per-request mode: same executor hop, no coalescing.
            obs_metrics.inc(SERVE_BATCHES)
            obs_metrics.observe(SERVE_BATCH_SIZE, 1)
            results = await loop.run_in_executor(
                self._executor, self._runner, [(query, k, method)]
            )
            return results[0]
        key: QueryKey = (query, int(k), method)
        future = self._pending.get(key)
        if future is None:
            future = loop.create_future()
            self._pending[key] = future
            obs_metrics.set_gauge(SERVE_QUEUE_DEPTH, len(self._pending))
            if len(self._pending) >= self._max_batch:
                self._flush()
            elif self._timer is None:
                self._timer = loop.call_later(self._window, self._flush)
        return await future

    def _flush(self) -> None:
        """Close the current window and dispatch whatever is pending."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._pending:
            return
        batch, self._pending = self._pending, {}
        obs_metrics.set_gauge(SERVE_QUEUE_DEPTH, 0)
        task = asyncio.get_running_loop().create_task(self._dispatch(batch))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

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
        """Reject new queries, dispatch the tail, await every batch."""
        self._draining = True
        self._flush()
        while self._inflight:
            await asyncio.gather(
                *list(self._inflight), return_exceptions=True
            )
