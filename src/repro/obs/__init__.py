"""Observability for the model lake: spans, metrics, structured logs.

The paper treats a model lake as an *operated system* — ingestion,
indexing, search, audit — so this package records the operations
themselves, complementing the artifact provenance the lake already
keeps (cards, histories, citations).  Three signal types, one module
each:

**Spans** (:mod:`repro.obs.tracing`) answer "what happened, in what
order, for how long".  ``with trace("search.query", k=5):`` opens a
span; spans opened inside it (same :mod:`contextvars` context, so the
same thread or asyncio task) become children via ``parent_id``, forming
a tree per request.  Durations come from the monotonic clock.
Tracing is off — and near-free — until an exporter is attached: an
in-memory ring buffer for tests, or a JSONL file (the CLI's global
``--trace FILE`` flag) for durable operation records.

**Metrics** (:mod:`repro.obs.metrics`) answer "how much, how often, how
slow" in aggregate.  A process-global :class:`~repro.obs.metrics.MetricsRegistry`
holds counters (weight-store cache hits), gauges (last training loss),
and fixed-bucket histograms (search latency p50/p90/p99).  Unlike
spans, metrics are always on; each instrument is individually locked so
thread pools can record concurrently.  ``repro metrics --dir LAKE``
prints the snapshot persisted by the last CLI run against that lake.

**Logs** (:mod:`repro.obs.logging`) answer "what did the system decide"
as discrete events: ``get_logger(name).info(event, **fields)`` emits
``key=value`` (or JSON) records through stdlib logging, configured
library-wide by a single :func:`~repro.obs.logging.configure` call.

:mod:`repro.obs.instrument` names every metric the library records and
hosts the ``@timed`` decorator the hot paths share.  ``repro.obs``
imports nothing from the rest of ``repro``, so any layer — storage,
index, search, training, inference — can instrument itself without
import cycles.
"""

from repro.obs.logging import StructuredLogger, configure, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.tracing import (
    InMemoryExporter,
    JSONLExporter,
    Span,
    SpanExporter,
    add_exporter,
    clear_exporters,
    current_span,
    profiling_enabled,
    remove_exporter,
    set_enabled,
    set_profiling,
    trace,
    traced,
    tracing_enabled,
)

__all__ = [
    # tracing
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
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    # logging
    "StructuredLogger",
    "configure",
    "get_logger",
]
