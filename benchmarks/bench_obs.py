"""E11 — Observability overhead: instrumentation must be near-free.

The acceptance bar: with span exporters disabled (the default state),
the instrumented ``SearchEngine.search`` over a ~50-model lake stays
within 5% wall-time of the uninstrumented code.  We measure that by
timing the shipped hot path against the same engine with the
instrumentation hooks stubbed out (a faithful stand-in for the
pre-instrumentation seed), plus the cost of turning span export *on*.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import record_table
from repro.core.search import SearchEngine
from repro.core.search import engine as engine_module
from repro.obs import InMemoryExporter, add_exporter, remove_exporter

QUERIES = (
    "summarize legal documents court statute verdict",
    "analyze medical patient diagnosis clinical notes",
    "classify news election government policy reports",
    "understand code function compiler bug reports",
    "casual dialog conversation chat messages",
)


@pytest.fixture(scope="module")
def obs_lake():
    """A ~50-model lake; training is cut to the bone (only scale matters)."""
    from repro.lake import LakeSpec, generate_lake

    spec = LakeSpec(
        num_foundations=2, chains_per_foundation=16, max_chain_depth=2,
        docs_per_domain=8, foundation_epochs=2, specialize_epochs=2,
        num_merges=1, num_stitches=1, seed=42,
    )
    bundle = generate_lake(spec)
    assert bundle.num_models >= 40
    return bundle


class _NullTrace:
    """Stand-in for ``trace`` with the instrumentation compiled away."""

    def __init__(self, *args, **kwargs):
        pass

    def __enter__(self):
        return None

    def __exit__(self, *exc_info):
        return False


class _NullMetrics:
    """Stand-in for the ``obs_metrics`` module: every record is a no-op."""

    @staticmethod
    def inc(name, amount=1):
        pass

    @staticmethod
    def observe(name, value):
        pass

    @staticmethod
    def set_gauge(name, value):
        pass


class _NullInstrument:
    """Stand-in for a cached Counter/Histogram object."""

    @staticmethod
    def inc(amount=1):
        pass

    @staticmethod
    def observe(value):
        pass


def _time_sweep(engine: SearchEngine) -> float:
    """Wall time for one sweep over QUERIES."""
    start = time.perf_counter()
    for query in QUERIES:
        engine.search(query, k=5, method="hybrid")
    return time.perf_counter() - start


def _time_queries(engine: SearchEngine, rounds: int = 7) -> float:
    """Best-of-``rounds`` wall time for one sweep over QUERIES."""
    return min(_time_sweep(engine) for _ in range(rounds))


class TestObservabilityOverhead:
    def test_disabled_tracing_overhead_within_5_percent(self, obs_lake, probes):
        engine = SearchEngine(obs_lake.lake, probes)
        _time_queries(engine, rounds=2)  # warm caches before measuring

        # Interleave instrumented / stubbed sweeps round-by-round so CPU
        # frequency drift and scheduler noise hit both variants equally.
        # The stubs reconstruct the uninstrumented seed's hot path.
        saved = (
            engine_module.trace,
            engine_module.obs_metrics,
            engine_module._queries_counter,
            engine_module._latency_histogram,
        )
        stubs = (_NullTrace, _NullMetrics(), _NullInstrument(), _NullInstrument())

        def _patch(values):
            (
                engine_module.trace,
                engine_module.obs_metrics,
                engine_module._queries_counter,
                engine_module._latency_histogram,
            ) = values

        instrumented = uninstrumented = float("inf")
        try:
            for _ in range(15):
                instrumented = min(instrumented, _time_sweep(engine))
                _patch(stubs)
                try:
                    uninstrumented = min(uninstrumented, _time_sweep(engine))
                finally:
                    _patch(saved)
        finally:
            _patch(saved)

        exporter = add_exporter(InMemoryExporter())
        try:
            exporting = _time_queries(engine)
        finally:
            remove_exporter(exporter)

        overhead = instrumented / uninstrumented - 1.0
        export_overhead = exporting / uninstrumented - 1.0
        per_query = (instrumented - uninstrumented) / len(QUERIES)
        record_table("E11_obs_overhead", [
            f"models in lake:               {obs_lake.num_models}",
            f"queries per sweep:            {len(QUERIES)}",
            f"uninstrumented sweep:         {uninstrumented * 1e3:8.3f} ms",
            f"instrumented (exporters off): {instrumented * 1e3:8.3f} ms"
            f"  ({overhead:+.2%})",
            f"instrumented (ring buffer):   {exporting * 1e3:8.3f} ms"
            f"  ({export_overhead:+.2%})",
            f"overhead per query:           {per_query * 1e6:8.1f} us",
        ])
        # The acceptance bar, with 1 ms of absolute slack per sweep so
        # scheduler noise cannot fail a sub-millisecond comparison.
        assert instrumented <= uninstrumented * 1.05 + 1e-3

    def test_bench_instrumented_search(self, benchmark, obs_lake, probes):
        engine = SearchEngine(obs_lake.lake, probes)
        benchmark(engine.search, QUERIES[0], 5, "hybrid")
