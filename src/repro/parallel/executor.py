"""Wave-scheduled task execution over a process pool.

:class:`WaveExecutor` runs batches ("waves") of independent tasks and
returns their results in submission order, which is the property the
lake generator's determinism guarantee rests on: results are consumed
in task order no matter which worker finished first.

``workers <= 1`` executes inline in the calling process — no pool, no
pickling — so the sequential path stays the zero-overhead baseline and
the parallel path is bit-identical to it by construction.

Crashed workers are survivable: when the pool breaks (a worker
segfaults, is OOM-killed, or a fault plan injects
``BrokenProcessPool``), the executor disposes the dead pool, rebuilds
it, and re-runs *only* the tasks that never produced results — slotting
their results back at their submission indices, so determinism is
unaffected.  After ``max_retries`` rebuilds the failure surfaces as a
structured :class:`~repro.errors.WorkerCrashError` naming the wave and
the lost task indices, and the executor is left with no dangling dead
pool (the next wave would start a fresh one).
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, WorkerCrashError
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    PARALLEL_TASKS,
    PARALLEL_WAVE_SECONDS,
    PARALLEL_WAVES,
    PARALLEL_WORKERS,
    RELIABILITY_POOL_REBUILDS,
    RELIABILITY_TASK_RETRIES,
)
from repro.obs.logging import get_logger
from repro.obs.propagate import (
    TraceContext,
    adopt_spans,
    capture_context,
    reset_worker_tracing,
    run_with_capture,
)
from repro.obs.tracing import trace
from repro.reliability import faults

_log = get_logger("parallel.executor")


def _pool_worker_init(initializer: Optional[Callable[..., None]], initargs: Tuple[Any, ...]) -> None:
    """Per-worker bootstrap: clean inherited tracing, then user setup.

    Under the ``fork`` start method workers inherit the coordinator's
    attached exporters (shared file handles included); tracing state
    must be reset *before* anything in the worker can open a span.
    """
    reset_worker_tracing()
    if initializer is not None:
        initializer(*initargs)


def _run_captured(payload: Tuple[Optional[TraceContext], Callable[[Any], Any], Any]):
    """Pool entry point wrapping each task with worker-side span capture."""
    context, fn, task = payload
    return run_with_capture(context, fn, task)


class WaveExecutor:
    """Executes waves of independent tasks, optionally in worker processes.

    Parameters
    ----------
    workers:
        Degree of parallelism.  ``<= 1`` runs tasks inline; ``> 1``
        lazily spins up a :class:`ProcessPoolExecutor` reused across
        waves.
    initializer / initargs:
        Per-worker setup (e.g. installing shared read-only datasets).
        In inline mode the initializer runs once in the calling process
        on first use, so both modes see identical worker state.
    max_retries:
        How many times a wave may rebuild a crashed pool and re-run its
        lost tasks before surfacing :class:`WorkerCrashError`.
    """

    def __init__(
        self,
        workers: int = 1,
        initializer: Optional[Callable[..., None]] = None,
        initargs: Tuple[Any, ...] = (),
        max_retries: int = 2,
    ):
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.workers = workers
        self.max_retries = max_retries
        self._initializer = initializer
        self._initargs = initargs
        self._pool: Optional[ProcessPoolExecutor] = None
        self._inline_ready = False
        obs_metrics.set_gauge(PARALLEL_WORKERS, workers)

    # ------------------------------------------------------------------
    def __enter__(self) -> "WaveExecutor":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.shutdown()
        return False

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    def _ensure_backend(self) -> None:
        if self.workers <= 1:
            if not self._inline_ready:
                if self._initializer is not None:
                    self._initializer(*self._initargs)
                self._inline_ready = True
        elif self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_pool_worker_init,
                initargs=(self._initializer, self._initargs),
            )

    def _dispose_pool(self) -> None:
        """Tear down a (possibly broken) pool so the next run starts fresh."""
        if self._pool is not None:
            # A broken pool's workers are already dead; don't wait on them.
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def _run_indices(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        indices: Sequence[int],
        results: List[Any],
        label: str,
        context: Optional[TraceContext],
    ) -> Tuple[List[int], Optional[BaseException]]:
        """Run ``tasks[i]`` for each index, filling ``results`` in place.

        Returns ``(lost, error)``: indices that produced no result
        because the pool broke, and the first ordinary task exception
        (raised by the caller after the wave drains, preserving the
        pre-existing contract that worker processes are never abandoned
        mid-flight).
        """
        if faults.trigger(faults.POOL_WAVE, label) is not None:
            # Scripted worker crash: behave exactly as if the pool died
            # before any of these tasks completed.
            return list(indices), None
        if self._pool is None:
            # Inline mode: spans flow through the caller's span stack
            # directly — no capture, no adoption, identical trace shape.
            for index in indices:
                results[index] = fn(tasks[index])
            return [], None
        futures = {
            index: self._pool.submit(_run_captured, (context, fn, tasks[index]))
            for index in indices
        }
        lost: List[int] = []
        error: Optional[BaseException] = None
        for index in indices:
            try:
                result, worker_spans = futures[index].result()
            except BrokenProcessPool:
                lost.append(index)
            except BaseException as exc:  # keep draining the wave
                if error is None:
                    error = exc
            else:
                results[index] = result
                if context is not None and worker_spans:
                    adopt_spans(context, worker_spans)
        return lost, error

    def run_wave(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        label: str = "wave",
    ) -> List[Any]:
        """Run ``fn`` over ``tasks``; results come back in task order.

        A failing task propagates its exception after the wave's other
        futures are awaited.  A *crashed worker* (broken pool) instead
        triggers pool disposal and a retry of only the lost tasks, up to
        ``max_retries`` times.
        """
        if not tasks:
            return []
        start = time.perf_counter()
        with trace("parallel.wave", label=label, tasks=len(tasks), workers=self.workers):
            # Ship the wave span as the parent for worker-side spans, so
            # a pooled run traces as one tree instead of a parent stub.
            context = capture_context()
            results: List[Any] = [None] * len(tasks)
            pending = list(range(len(tasks)))
            attempt = 0
            while True:
                self._ensure_backend()
                pending, error = self._run_indices(
                    fn, tasks, pending, results, label, context
                )
                if error is not None:
                    # The pool may *also* be broken (the same crash that
                    # lost tasks poisons it); never leave it dangling.
                    if pending:
                        self._dispose_pool()
                    raise error
                if not pending:
                    break
                self._dispose_pool()
                attempt += 1
                if attempt > self.max_retries:
                    raise WorkerCrashError(
                        label=label, task_indices=pending, attempts=attempt
                    )
                obs_metrics.inc(RELIABILITY_POOL_REBUILDS)
                obs_metrics.inc(RELIABILITY_TASK_RETRIES, len(pending))
                _log.warning(
                    "wave.pool_crashed",
                    label=label,
                    lost_tasks=len(pending),
                    attempt=attempt,
                    max_retries=self.max_retries,
                )
        elapsed = time.perf_counter() - start
        obs_metrics.inc(PARALLEL_WAVES)
        obs_metrics.inc(PARALLEL_TASKS, len(tasks))
        obs_metrics.observe(PARALLEL_WAVE_SECONDS, elapsed)
        _log.debug(
            "wave.done", label=label, tasks=len(tasks),
            workers=self.workers, seconds=round(elapsed, 4),
        )
        return results
