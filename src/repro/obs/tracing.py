"""Hierarchical spans over a context-local stack, with pluggable exporters.

A span measures one operation on a monotonic clock
(:func:`time.perf_counter`).  Spans opened while another span is active
in the same :mod:`contextvars` context become its children
(``parent_id`` links), so a search request traced end-to-end yields a
tree: the CLI root span, the engine query under it, the hybrid fusion
under that.  The stack lives in a :class:`~contextvars.ContextVar`, so
each asyncio task nests its spans on its own even across ``await``,
and work handed to another thread joins the tree by running in a copy
of the caller's context (:func:`contextvars.copy_context`).  A thread
started without one begins with an empty stack.

Tracing is **off by default** and costs almost nothing while off: the
fast path of :class:`trace` is a single module-global flag check, so
instrumented hot paths stay within noise of uninstrumented code.  It
switches on automatically while at least one exporter is attached (or
explicitly via :func:`set_enabled`).

Exporters receive each span as it closes:

* :class:`InMemoryExporter` — fixed-capacity ring buffer, for tests and
  in-process inspection;
* :class:`JSONLExporter`   — one JSON object per line to a file, the
  durable operation record the paper's governance story asks for.

A failing exporter never takes down the traced operation: the failure
increments the ``obs.export_errors`` counter and (once per exporter
instance) emits a structured warning, so broken sinks are visible
without flooding the log.

**Span profiling** (:func:`set_profiling`) optionally augments each
span with CPU time (:func:`time.process_time` delta) and allocation
facts from :mod:`tracemalloc` (peak bytes live above the span's entry
watermark, and net bytes retained).  Peaks propagate to enclosing
spans, so a parent's ``alloc_peak`` is at least the largest peak of any
child.  Profiling is gated separately from tracing and costs nothing
while off; the disabled-tracing fast path is untouched either way.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
import tracemalloc
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.obs import logging as _obs_logging

__all__ = [
    "Span",
    "SpanExporter",
    "InMemoryExporter",
    "JSONLExporter",
    "trace",
    "traced",
    "current_span",
    "add_exporter",
    "remove_exporter",
    "clear_exporters",
    "set_enabled",
    "tracing_enabled",
    "set_profiling",
    "profiling_enabled",
    "export_span",
    "next_span_id",
    "OBS_EXPORT_ERRORS",
]

#: Counter bumped once per failed exporter delivery (defined here, not
#: in ``repro.obs.instrument``, because instrument imports this module).
OBS_EXPORT_ERRORS = "obs.export_errors"

_log = _obs_logging.get_logger("obs.tracing")

_span_ids = itertools.count(1)
#: Open spans, innermost last.  Tuples, not lists: a copied context
#: shares the object its variables hold, so a mutable stack would leak
#: pushes from one context into every copy of it.
_span_stack: ContextVar[Tuple["Span", ...]] = ContextVar(
    "repro_span_stack", default=()
)
#: One ``[entry watermark, absolute peak]`` cell per open profiled span.
_prof_stack: ContextVar[Tuple[List[int], ...]] = ContextVar(
    "repro_prof_stack", default=()
)
_exporter_lock = threading.Lock()
_exporters: List["SpanExporter"] = []
_force_enabled = False
#: Fast-path flag consulted by every ``trace``; derived, never set directly.
_enabled = False
#: Span profiling (CPU time + allocations); independent of ``_enabled``.
_profiling = False
#: Whether this module started tracemalloc (so it may also stop it).
_started_tracemalloc = False


def _recompute_enabled() -> None:
    global _enabled
    _enabled = _force_enabled or bool(_exporters)


@dataclass
class Span:
    """One timed operation; children reference ``span_id`` via ``parent_id``."""

    name: str
    span_id: int
    parent_id: Optional[int]
    trace_id: int
    start: float
    start_unix: float
    end: float = 0.0
    status: str = "ok"
    attributes: Dict[str, Any] = field(default_factory=dict)
    #: Profiling facts; ``None`` unless :func:`set_profiling` was on.
    cpu_time: Optional[float] = None
    alloc_peak: Optional[int] = None
    alloc_net: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        record = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "start_unix": self.start_unix,
            "duration": self.duration,
            "status": self.status,
            "attributes": dict(self.attributes),
        }
        # Profiling keys appear only when captured, keeping unprofiled
        # JSONL records byte-compatible with earlier versions.
        if self.cpu_time is not None:
            record["cpu_time"] = self.cpu_time
        if self.alloc_peak is not None:
            record["alloc_peak"] = self.alloc_peak
        if self.alloc_net is not None:
            record["alloc_net"] = self.alloc_net
        return record


class SpanExporter:
    """Receives each finished span; subclasses decide where it goes."""

    def export(self, span: Span) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class InMemoryExporter(SpanExporter):
    """Ring buffer of the most recent ``capacity`` finished spans."""

    def __init__(self, capacity: int = 4096):
        self._buffer: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        with self._lock:
            self._buffer.append(span)

    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._buffer)

    def clear(self) -> None:
        with self._lock:
            self._buffer.clear()


class JSONLExporter(SpanExporter):
    """Appends each finished span as one JSON line to ``path``."""

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = open(path, "a")

    def export(self, span: Span) -> None:
        line = json.dumps(span.to_dict(), sort_keys=True, default=str)
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "JSONLExporter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def add_exporter(exporter: SpanExporter) -> SpanExporter:
    """Attach an exporter; tracing turns on while any is attached."""
    with _exporter_lock:
        if exporter not in _exporters:
            _exporters.append(exporter)
        _recompute_enabled()
    return exporter


def remove_exporter(exporter: SpanExporter) -> None:
    with _exporter_lock:
        if exporter in _exporters:
            _exporters.remove(exporter)
        _recompute_enabled()


def clear_exporters() -> None:
    with _exporter_lock:
        _exporters.clear()
        _recompute_enabled()


def set_enabled(enabled: bool) -> None:
    """Force tracing on (spans recorded even with no exporter) or back to
    automatic (on iff exporters are attached)."""
    global _force_enabled
    with _exporter_lock:
        _force_enabled = bool(enabled)
        _recompute_enabled()


def tracing_enabled() -> bool:
    return _enabled


def set_profiling(enabled: bool) -> None:
    """Toggle span profiling (CPU time + tracemalloc allocation facts).

    Turning it on starts :mod:`tracemalloc` if nothing else has;
    turning it off stops tracemalloc only if this module started it, so
    profiling composes with an application that traces allocations for
    its own reasons.
    """
    global _profiling, _started_tracemalloc
    enabled = bool(enabled)
    if enabled and not tracemalloc.is_tracing():
        tracemalloc.start()
        _started_tracemalloc = True
    if not enabled and _started_tracemalloc:
        tracemalloc.stop()
        _started_tracemalloc = False
    _profiling = enabled


def profiling_enabled() -> bool:
    return _profiling


def next_span_id() -> int:
    """A fresh span id from this process's counter.

    Used by cross-process adoption (:mod:`repro.obs.propagate`) to remap
    worker-side span ids — each pool worker counts from 1, so ids from
    different processes collide until reassigned here.
    """
    return next(_span_ids)


def export_span(span: Span) -> None:
    """Deliver a finished span to every attached exporter.

    A failing exporter must not take down the traced operation: the
    failure bumps :data:`OBS_EXPORT_ERRORS` and logs one structured
    warning per exporter instance (first failure only), then delivery
    continues to the remaining exporters.
    """
    with _exporter_lock:
        exporters = tuple(_exporters)
    for exporter in exporters:
        try:
            exporter.export(span)
        except Exception as exc:  # noqa: BLE001 - a broken sink must
            # not break traced code, but it must leave evidence.
            from repro.obs import metrics as _metrics

            _metrics.inc(OBS_EXPORT_ERRORS)
            if not getattr(exporter, "_export_error_logged", False):
                exporter._export_error_logged = True
                _log.warning(
                    "span.export_failed",
                    exporter=type(exporter).__name__,
                    span=span.name,
                    error=str(exc),
                )


def current_span() -> Optional[Span]:
    """The innermost open span in the current context, if any."""
    stack = _span_stack.get()
    return stack[-1] if stack else None


def _pop(var: ContextVar, item: Any) -> None:
    """Drop ``item`` from the stack in ``var``.

    Filtering rather than resetting to the value before the push keeps
    an out-of-order exit from restoring spans that already closed.
    """
    var.set(tuple(entry for entry in var.get() if entry is not item))


class _NullTrace:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_TRACE = _NullTrace()


class trace:
    """Context manager opening a span: ``with trace("search", k=5) as s:``.

    Yields the open :class:`Span`.  While tracing is off, construction
    returns a shared no-op object instead — no allocation, no clock
    reads, no locking — so instrumented hot paths cost one flag check.
    """

    __slots__ = ("_name", "_attrs", "_span", "_prof")

    def __new__(cls, name: str, /, **attributes: Any):
        if not _enabled:
            return _NULL_TRACE
        self = object.__new__(cls)
        self._name = name
        self._attrs = attributes
        self._span = None
        self._prof = None
        return self

    def __enter__(self) -> Optional[Span]:
        if not _enabled:
            return None
        stack = _span_stack.get()
        parent = stack[-1] if stack else None
        span_id = next(_span_ids)
        span = Span(
            name=self._name,
            span_id=span_id,
            parent_id=parent.span_id if parent else None,
            trace_id=parent.trace_id if parent else span_id,
            start=time.perf_counter(),
            start_unix=time.time(),
            attributes=dict(self._attrs),
        )
        _span_stack.set(stack + (span,))
        self._span = span
        if _profiling and tracemalloc.is_tracing():
            current, _ = tracemalloc.get_traced_memory()
            # [entry watermark, absolute peak seen so far] — children
            # raise the second cell so parents inherit their peaks.
            cell = [current, current]
            _prof_stack.set(_prof_stack.get() + (cell,))
            tracemalloc.reset_peak()
            self._prof = (time.process_time(), cell)
        return span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        if span is None:
            return False
        span.end = time.perf_counter()
        if self._prof is not None:
            cpu_start, cell = self._prof
            _pop(_prof_stack, cell)
            if tracemalloc.is_tracing():
                span.cpu_time = time.process_time() - cpu_start
                current, seg_peak = tracemalloc.get_traced_memory()
                peak_abs = max(cell[1], seg_peak)
                span.alloc_peak = max(0, peak_abs - cell[0])
                span.alloc_net = current - cell[0]
                parents = _prof_stack.get()
                if parents:
                    parents[-1][1] = max(parents[-1][1], peak_abs)
                # Start a fresh segment for whatever the parent (or the
                # next sibling span) allocates after this span closes.
                tracemalloc.reset_peak()
        if exc_type is not None:
            span.status = f"error:{exc_type.__name__}"
        _pop(_span_stack, span)
        export_span(span)
        self._span = None
        return False


def traced(name_or_fn=None, **attributes: Any):
    """Decorator form of :func:`trace`.

    Usable bare (``@traced``) or configured
    (``@traced("search.query", backend="flat")``).  The span name
    defaults to the function's qualified name.
    """
    import functools

    def decorate(fn, span_name: Optional[str] = None):
        label = span_name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return fn(*args, **kwargs)
            with trace(label, **attributes):
                return fn(*args, **kwargs)

        return wrapper

    if callable(name_or_fn):
        return decorate(name_or_fn)
    return lambda fn: decorate(fn, name_or_fn)
