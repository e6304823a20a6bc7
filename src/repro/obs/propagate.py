"""Cross-process trace propagation for pool workers.

In-process tracing links spans through a context-local stack, which a
:class:`~concurrent.futures.ProcessPoolExecutor` worker cannot see: a
traced ``repro generate --workers N`` run would record the parent's
wave span and silently drop every per-model train span executed in a
worker.  This module closes that gap with an explicit handoff:

1. the coordinator captures a :class:`TraceContext` (trace id + the
   span the worker's spans should hang under) from its current span;
2. the worker executes the task under :func:`run_with_capture`, which
   buffers every span the task opens in a :class:`SpanBuffer` and
   returns them *with* the result — spans ride the existing result
   pickle, no side channel;
3. the coordinator calls :func:`adopt_spans`, which re-parents the
   buffered spans into its own trace and hands them to its exporters.

Adoption must remap span ids: each worker process counts span ids from
1, so ids from different workers collide until replaced with fresh ids
from the coordinator's counter.  Parent links are rewritten through the
same mapping; worker-root spans (no parent in the buffer) attach to the
context's ``parent_span_id``.

:func:`reset_worker_tracing` handles the fork hazard: under the default
``fork`` start method on Linux, workers inherit the parent's attached
exporters — including a :class:`~repro.obs.tracing.JSONLExporter`'s
open file handle — and would write duplicate, unparented spans straight
into the parent's trace file.  Pool initializers call it first so each
worker starts with a clean slate.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.tracing import (
    Span,
    SpanExporter,
    add_exporter,
    clear_exporters,
    current_span,
    export_span,
    next_span_id,
    profiling_enabled,
    remove_exporter,
    set_enabled,
    set_profiling,
)

__all__ = [
    "TraceContext",
    "SpanBuffer",
    "capture_context",
    "run_with_capture",
    "adopt_spans",
    "reset_worker_tracing",
]


@dataclass(frozen=True)
class TraceContext:
    """What a worker needs to contribute spans to the caller's trace."""

    trace_id: int
    parent_span_id: int
    profiling: bool = False


def capture_context() -> Optional[TraceContext]:
    """Snapshot the current span as a context to ship to workers.

    Returns ``None`` when tracing is off or no span is open — workers
    then run untraced, which keeps the disabled path free.
    """
    span = current_span()
    if span is None:
        return None
    return TraceContext(
        trace_id=span.trace_id,
        parent_span_id=span.span_id,
        profiling=profiling_enabled(),
    )


class SpanBuffer(SpanExporter):
    """Collects finished spans in memory, in export (child-first) order."""

    def __init__(self) -> None:
        self._spans: List[Span] = []
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def drain(self) -> List[Span]:
        with self._lock:
            spans, self._spans = self._spans, []
        return spans


def run_with_capture(
    context: Optional[TraceContext],
    fn: Callable[[Any], Any],
    arg: Any,
) -> Tuple[Any, List[Span]]:
    """Worker-side: run ``fn(arg)``, buffering the spans it opens.

    With no context the call passes straight through (no buffer, no
    enablement) and returns an empty span list.  Attaching the buffer
    auto-enables tracing for the duration; the context's ``profiling``
    flag extends the coordinator's ``--profile`` choice into the worker.
    """
    if context is None:
        return fn(arg), []
    buffer = SpanBuffer()
    add_exporter(buffer)
    if context.profiling:
        set_profiling(True)
    try:
        result = fn(arg)
    finally:
        if context.profiling:
            set_profiling(False)
        remove_exporter(buffer)
    return result, buffer.drain()


def adopt_spans(context: TraceContext, spans: List[Span]) -> List[Span]:
    """Coordinator-side: graft worker spans into the current trace.

    Every span gets a fresh id from this process's counter (worker ids
    collide across processes), parent links are rewritten through the
    old→new mapping, and worker-root spans attach to the context's
    ``parent_span_id``.  Adopted spans are delivered to the attached
    exporters exactly once, preserving the buffer's child-first order.
    """
    id_map = {span.span_id: next_span_id() for span in spans}
    adopted: List[Span] = []
    for span in spans:
        if span.parent_id is not None and span.parent_id in id_map:
            parent_id = id_map[span.parent_id]
        else:
            parent_id = context.parent_span_id
        grafted = replace(
            span,
            span_id=id_map[span.span_id],
            parent_id=parent_id,
            trace_id=context.trace_id,
            attributes=dict(span.attributes),
        )
        export_span(grafted)
        adopted.append(grafted)
    return adopted


def reset_worker_tracing() -> None:
    """Drop tracing state inherited across ``fork`` into a pool worker.

    Clears exporters (a forked JSONL exporter shares the parent's file
    handle — writing through it would corrupt the parent's trace with
    duplicate, unparented spans), returns enablement to automatic, and
    switches profiling off.  :func:`run_with_capture` then re-enables
    exactly what the shipped :class:`TraceContext` asks for.
    """
    clear_exporters()
    set_enabled(False)
    set_profiling(False)
