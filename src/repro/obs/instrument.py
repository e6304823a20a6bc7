"""Instrumentation glue for the lake's hot paths.

Central home for the metric names recorded across the library (so the
namespace stays coherent and greppable) plus the small decorators and
context managers hot paths use.  ``repro.obs`` must stay import-free of
the rest of ``repro`` — hot-path modules import *from here*, never the
reverse — which is what lets every layer instrument itself without
creating cycles.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Optional, TypeVar

from repro.obs import metrics as _metrics
from repro.obs.tracing import OBS_EXPORT_ERRORS, trace

__all__ = [
    "timed",
    "time_block",
    # observability self-monitoring (defined in tracing to avoid a cycle)
    "OBS_EXPORT_ERRORS",
    # weight store
    "WEIGHT_STORE_CACHE_HITS",
    "WEIGHT_STORE_CACHE_MISSES",
    "WEIGHT_STORE_PUTS",
    "WEIGHT_STORE_DEDUP_HITS",
    "WEIGHT_STORE_BYTES",
    # lake
    "LAKE_MODELS_ADDED",
    "LAKE_MODEL_LOADS",
    "LAKE_GENERATED_MODELS",
    # search
    "SEARCH_QUERIES",
    "SEARCH_LATENCY",
    "SEARCH_ENGINE_BUILDS",
    # serve
    "SERVE_REQUESTS",
    "SERVE_ERRORS",
    "SERVE_REJECTED",
    "SERVE_IN_FLIGHT",
    "SERVE_QUEUE_DEPTH",
    "SERVE_BATCHES",
    "SERVE_BATCH_SIZE",
    "SERVE_SEARCH_LATENCY",
    "SERVE_MODEL_LATENCY",
    "SERVE_STATS_LATENCY",
    "SERVE_HEALTH_LATENCY",
    # index
    "HNSW_DISTANCE_COMPS",
    "HNSW_INSERTS",
    "HNSW_QUERIES",
    "EMBED_CACHE_HITS",
    "EMBED_CACHE_MISSES",
    # parallel execution
    "PARALLEL_WAVES",
    "PARALLEL_TASKS",
    "PARALLEL_WAVE_SECONDS",
    "PARALLEL_WORKERS",
    # training
    "TRAIN_EPOCHS",
    "TRAIN_EPOCH_SECONDS",
    "TRAIN_LOSS",
    # inference agent
    "INFERENCE_REQUESTS",
    "INFERENCE_CANDIDATES_VERIFIED",
    # static analysis
    "LINT_FILES",
    "LINT_CACHE_HITS",
    "LINT_CACHE_MISSES",
    "LINT_FINDINGS",
    "LINT_RUN_SECONDS",
    # whole-program graph analysis
    "GRAPH_MODULES",
    "GRAPH_EDGES",
    "GRAPH_BUILD_SECONDS",
    "GRAPH_FILES_REANALYZED",
    "GRAPH_CACHE_HITS",
    "GRAPH_CACHE_MISSES",
    "GRAPH_FINDINGS",
    # reliability: atomic writes, retries, checkpoints
    "RELIABILITY_ATOMIC_WRITES",
    "RELIABILITY_ATOMIC_BYTES",
    "RELIABILITY_POOL_REBUILDS",
    "RELIABILITY_TASK_RETRIES",
    "RELIABILITY_CHECKPOINT_STORES",
    "RELIABILITY_CHECKPOINT_HITS",
    "RELIABILITY_INJECTED_FAULTS",
    # integrity verification
    "FSCK_RUNS",
    "FSCK_FILES_SCANNED",
    "FSCK_FINDINGS",
    "FSCK_REPAIRS",
    "FSCK_RUN_SECONDS",
]

F = TypeVar("F", bound=Callable[..., Any])

WEIGHT_STORE_CACHE_HITS = "lake.weight_store.cache_hits"
WEIGHT_STORE_CACHE_MISSES = "lake.weight_store.cache_misses"
WEIGHT_STORE_PUTS = "lake.weight_store.puts"
WEIGHT_STORE_DEDUP_HITS = "lake.weight_store.dedup_hits"
WEIGHT_STORE_BYTES = "lake.weight_store.bytes"

LAKE_MODELS_ADDED = "lake.models_added"
LAKE_MODEL_LOADS = "lake.model_loads"
LAKE_GENERATED_MODELS = "lake.generate.models"

SEARCH_QUERIES = "search.queries"
SEARCH_LATENCY = "search.latency_seconds"
SEARCH_ENGINE_BUILDS = "search.engine_builds"

SERVE_REQUESTS = "serve.requests"
SERVE_ERRORS = "serve.errors"
SERVE_REJECTED = "serve.rejected"
SERVE_IN_FLIGHT = "serve.in_flight"
SERVE_QUEUE_DEPTH = "serve.batch.queue_depth"
SERVE_BATCHES = "serve.batch.dispatches"
SERVE_BATCH_SIZE = "serve.batch.size"
SERVE_SEARCH_LATENCY = "serve.search.latency_seconds"
SERVE_MODEL_LATENCY = "serve.model.latency_seconds"
SERVE_STATS_LATENCY = "serve.stats.latency_seconds"
SERVE_HEALTH_LATENCY = "serve.healthz.latency_seconds"

HNSW_DISTANCE_COMPS = "index.hnsw.distance_computations"
HNSW_INSERTS = "index.hnsw.inserts"
HNSW_QUERIES = "index.hnsw.queries"
EMBED_CACHE_HITS = "index.embed_cache.hits"
EMBED_CACHE_MISSES = "index.embed_cache.misses"

PARALLEL_WAVES = "parallel.waves"
PARALLEL_TASKS = "parallel.tasks"
PARALLEL_WAVE_SECONDS = "parallel.wave_seconds"
PARALLEL_WORKERS = "parallel.workers"

TRAIN_EPOCHS = "nn.train.epochs"
TRAIN_EPOCH_SECONDS = "nn.train.epoch_seconds"
TRAIN_LOSS = "nn.train.loss"

INFERENCE_REQUESTS = "inference.requests"
INFERENCE_CANDIDATES_VERIFIED = "inference.candidates_verified"

LINT_FILES = "analysis.lint.files"
LINT_CACHE_HITS = "analysis.lint.cache_hits"
LINT_CACHE_MISSES = "analysis.lint.cache_misses"
LINT_FINDINGS = "analysis.lint.findings"
LINT_RUN_SECONDS = "analysis.lint.run_seconds"

RELIABILITY_ATOMIC_WRITES = "reliability.atomic.writes"
RELIABILITY_ATOMIC_BYTES = "reliability.atomic.bytes"
RELIABILITY_POOL_REBUILDS = "reliability.pool_rebuilds"
RELIABILITY_TASK_RETRIES = "reliability.task_retries"
RELIABILITY_CHECKPOINT_STORES = "reliability.checkpoint.stores"
RELIABILITY_CHECKPOINT_HITS = "reliability.checkpoint.hits"
RELIABILITY_INJECTED_FAULTS = "reliability.injected_faults"

FSCK_RUNS = "fsck.runs"
FSCK_FILES_SCANNED = "fsck.files_scanned"
FSCK_FINDINGS = "fsck.findings"
FSCK_REPAIRS = "fsck.repairs"
FSCK_RUN_SECONDS = "fsck.run_seconds"

GRAPH_MODULES = "analysis.graph.modules"
GRAPH_EDGES = "analysis.graph.edges"
GRAPH_BUILD_SECONDS = "analysis.graph.build_seconds"
GRAPH_FILES_REANALYZED = "analysis.graph.files_reanalyzed"
GRAPH_CACHE_HITS = "analysis.graph.cache_hits"
GRAPH_CACHE_MISSES = "analysis.graph.cache_misses"
GRAPH_FINDINGS = "analysis.graph.findings"

DATAFLOW_MODULES = "analysis.dataflow.modules"
DATAFLOW_FUNCTIONS = "analysis.dataflow.functions"
DATAFLOW_FILES_REANALYZED = "analysis.dataflow.files_reanalyzed"
DATAFLOW_CACHE_HITS = "analysis.dataflow.cache_hits"
DATAFLOW_CACHE_MISSES = "analysis.dataflow.cache_misses"
DATAFLOW_FINDINGS = "analysis.dataflow.findings"
DATAFLOW_RUN_SECONDS = "analysis.dataflow.run_seconds"


def timed(
    histogram_name: str,
    span_name: Optional[str] = None,
    counter_name: Optional[str] = None,
) -> Callable[[F], F]:
    """Decorator: record the call's duration into ``histogram_name``.

    Optionally opens a span (``span_name``) around the call and bumps
    ``counter_name`` once per call.  Duration is recorded whether or not
    tracing is enabled — histograms are always on; spans are the
    opt-in, exporter-gated layer.
    """

    def decorate(fn: F) -> F:
        label = span_name or fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter_name is not None:
                _metrics.inc(counter_name)
            start = time.perf_counter()
            with trace(label):
                result = fn(*args, **kwargs)
            _metrics.observe(histogram_name, time.perf_counter() - start)
            return result

        return wrapper  # type: ignore[return-value]

    return decorate


class time_block:
    """``with time_block("name"):`` — histogram-record a block's duration."""

    __slots__ = ("_name", "_start")

    def __init__(self, histogram_name: str):
        self._name = histogram_name
        self._start = 0.0

    def __enter__(self) -> "time_block":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        _metrics.observe(self._name, time.perf_counter() - self._start)
        return False
