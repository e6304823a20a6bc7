"""Span hierarchy, enable/disable fast path, and exporter round-trips."""

import asyncio
import json
import threading

import pytest

from repro.obs import tracing
from repro.obs.tracing import (
    InMemoryExporter,
    JSONLExporter,
    add_exporter,
    clear_exporters,
    current_span,
    remove_exporter,
    set_enabled,
    set_profiling,
    trace,
    traced,
    tracing_enabled,
)


@pytest.fixture(autouse=True)
def _clean_tracing_state():
    clear_exporters()
    set_enabled(False)
    set_profiling(False)
    yield
    clear_exporters()
    set_enabled(False)
    set_profiling(False)


@pytest.fixture()
def exporter():
    return add_exporter(InMemoryExporter())


class TestSpanHierarchy:
    def test_nested_spans_link_parent_and_trace_ids(self, exporter):
        with trace("outer", layer=1) as outer:
            with trace("inner") as inner:
                pass

        spans = {s.name: s for s in exporter.spans()}
        assert set(spans) == {"outer", "inner"}
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["outer"].parent_id is None
        # Both spans share the root's trace id.
        assert spans["inner"].trace_id == spans["outer"].span_id
        assert spans["outer"].trace_id == spans["outer"].span_id
        assert inner is not outer

    def test_children_export_before_parents(self, exporter):
        with trace("parent"):
            with trace("child"):
                pass
        names = [s.name for s in exporter.spans()]
        assert names == ["child", "parent"]

    def test_sibling_spans_share_parent(self, exporter):
        with trace("root"):
            with trace("first"):
                pass
            with trace("second"):
                pass
        spans = {s.name: s for s in exporter.spans()}
        assert spans["first"].parent_id == spans["root"].span_id
        assert spans["second"].parent_id == spans["root"].span_id
        assert spans["first"].span_id != spans["second"].span_id

    def test_current_span_tracks_innermost(self, exporter):
        assert current_span() is None
        with trace("outer"):
            assert current_span().name == "outer"
            with trace("inner"):
                assert current_span().name == "inner"
            assert current_span().name == "outer"
        assert current_span() is None

    def test_exception_marks_span_status_and_propagates(self, exporter):
        with pytest.raises(ValueError):
            with trace("failing"):
                raise ValueError("boom")
        (span,) = exporter.spans()
        assert span.status == "error:ValueError"

    def test_spans_on_separate_threads_get_separate_stacks(self, exporter):
        started = threading.Event()
        release = threading.Event()

        def worker():
            with trace("thread_span"):
                started.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        with trace("main_span"):
            thread.start()
            assert started.wait(timeout=5)
            # The worker's open span must not become our child/parent.
            assert current_span().name == "main_span"
            release.set()
        thread.join(timeout=5)

        spans = {s.name: s for s in exporter.spans()}
        assert spans["thread_span"].parent_id is None
        assert spans["main_span"].parent_id is None

    def test_interleaved_tasks_keep_their_own_stacks(self, exporter):
        async def request(name, entered, other_entered):
            with trace(name):
                entered.set()
                await other_entered.wait()  # both spans open at once
                with trace(f"{name}.child"):
                    pass

        async def main():
            first, second = asyncio.Event(), asyncio.Event()
            with trace("root"):
                await asyncio.gather(
                    request("a", first, second), request("b", second, first)
                )

        asyncio.run(main())
        spans = {s.name: s for s in exporter.spans()}
        assert spans["a"].parent_id == spans["root"].span_id
        assert spans["b"].parent_id == spans["root"].span_id
        assert spans["a.child"].parent_id == spans["a"].span_id
        assert spans["b.child"].parent_id == spans["b"].span_id

    def test_out_of_order_exit_leaves_no_span_open(self, exporter):
        outer, inner = trace("outer"), trace("inner")
        outer.__enter__()
        inner.__enter__()
        outer.__exit__(None, None, None)
        assert current_span().name == "inner"
        inner.__exit__(None, None, None)
        assert current_span() is None


class TestEnableDisable:
    def test_disabled_by_default_records_nothing(self):
        assert not tracing_enabled()
        with trace("invisible") as span:
            assert span is None

    def test_disabled_trace_returns_shared_null_object(self):
        assert trace("a") is trace("b", k=1)

    def test_attaching_exporter_enables_tracing(self):
        assert not tracing_enabled()
        exporter = add_exporter(InMemoryExporter())
        assert tracing_enabled()
        remove_exporter(exporter)
        assert not tracing_enabled()

    def test_set_enabled_forces_on_without_exporters(self):
        set_enabled(True)
        assert tracing_enabled()
        with trace("forced") as span:
            assert span is not None
            assert span.name == "forced"

    def test_span_attributes_and_duration(self, exporter):
        with trace("op", model="m1", k=5) as span:
            span.set_attribute("extra", True)
        (finished,) = exporter.spans()
        assert finished.attributes == {"model": "m1", "k": 5, "extra": True}
        assert finished.duration >= 0.0

    def test_broken_exporter_does_not_break_traced_code(self, exporter):
        class Broken(tracing.SpanExporter):
            def export(self, span):
                raise RuntimeError("sink down")

        broken = add_exporter(Broken())
        try:
            with trace("survives"):
                pass
        finally:
            remove_exporter(broken)
        assert [s.name for s in exporter.spans()] == ["survives"]


class TestTracedDecorator:
    def test_bare_decorator_uses_qualname(self, exporter):
        @traced
        def compute(x):
            return x * 2

        assert compute(21) == 42
        (span,) = exporter.spans()
        assert span.name.endswith("compute")

    def test_named_decorator_with_attributes(self, exporter):
        @traced("custom.op", backend="flat")
        def compute():
            return "ok"

        assert compute() == "ok"
        (span,) = exporter.spans()
        assert span.name == "custom.op"
        assert span.attributes == {"backend": "flat"}

    def test_disabled_decorator_calls_through(self):
        @traced
        def compute():
            return 7

        assert compute() == 7


class TestExporters:
    def test_in_memory_ring_buffer_caps_capacity(self):
        exporter = add_exporter(InMemoryExporter(capacity=3))
        for i in range(5):
            with trace(f"span{i}"):
                pass
        names = [s.name for s in exporter.spans()]
        assert names == ["span2", "span3", "span4"]

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        exporter = add_exporter(JSONLExporter(str(path)))
        try:
            with trace("outer", stage="test"):
                with trace("inner"):
                    pass
        finally:
            remove_exporter(exporter)
            exporter.close()

        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["inner", "outer"]
        by_name = {r["name"]: r for r in records}
        assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["attributes"] == {"stage": "test"}
        for record in records:
            assert record["duration"] >= 0.0
            assert record["status"] == "ok"

    def test_jsonl_export_after_close_is_noop(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with JSONLExporter(str(path)) as exporter:
            add_exporter(exporter)
            with trace("before_close"):
                pass
        # Exporter closed but still attached: spans are dropped, not errors.
        with trace("after_close"):
            pass
        records = [json.loads(l) for l in path.read_text().splitlines()]
        assert [r["name"] for r in records] == ["before_close"]

class TestProfiling:
    def test_profiled_span_records_cpu_and_alloc(self, exporter):
        set_profiling(True)
        with trace("work"):
            blob = [0] * 100_000
            del blob
        (span,) = exporter.spans()
        assert span.cpu_time is not None and span.cpu_time >= 0.0
        # A 100k-element list costs several hundred KiB at peak...
        assert span.alloc_peak > 100_000
        # ...but it was freed, so the net allocation is far below peak.
        assert span.alloc_net < span.alloc_peak

    def test_unprofiled_span_leaves_fields_unset(self, exporter):
        with trace("work"):
            pass
        (span,) = exporter.spans()
        assert span.cpu_time is None
        assert span.alloc_peak is None
        assert span.alloc_net is None
        assert "cpu_time" not in span.to_dict()

    def test_child_peak_propagates_to_parent(self, exporter):
        set_profiling(True)
        with trace("parent"):
            with trace("child"):
                blob = [0] * 200_000
                del blob
        spans = {s.name: s for s in exporter.spans()}
        # The child's allocation happened on the parent's watch too.
        assert spans["parent"].alloc_peak >= spans["child"].alloc_peak

    def test_sibling_segments_do_not_inherit_each_others_peak(self, exporter):
        set_profiling(True)
        with trace("parent"):
            with trace("fat"):
                blob = [0] * 200_000
                del blob
            with trace("thin"):
                pass
        spans = {s.name: s for s in exporter.spans()}
        assert spans["thin"].alloc_peak < spans["fat"].alloc_peak

    def test_profile_fields_survive_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        set_profiling(True)
        with JSONLExporter(str(path)) as jsonl:
            add_exporter(jsonl)
            with trace("work"):
                blob = [0] * 50_000
                del blob
        (record,) = [json.loads(l) for l in path.read_text().splitlines()]
        assert record["cpu_time"] >= 0.0
        assert record["alloc_peak"] > 0

    def test_set_profiling_respects_foreign_tracemalloc(self):
        import tracemalloc

        tracemalloc.start()
        try:
            set_profiling(True)
            set_profiling(False)
            # We did not start tracemalloc, so we must not stop it.
            assert tracemalloc.is_tracing()
        finally:
            tracemalloc.stop()


class _AlwaysBroken(tracing.SpanExporter):
    def export(self, span):
        raise RuntimeError("sink down")


class TestExportErrors:
    def test_export_failure_bumps_counter_per_span(self, exporter):
        from repro.obs import metrics as obs_metrics
        from repro.obs.tracing import OBS_EXPORT_ERRORS

        counter = obs_metrics.get_registry().counter(OBS_EXPORT_ERRORS)
        before = counter.value
        broken = add_exporter(_AlwaysBroken())
        try:
            with trace("one"):
                pass
            with trace("two"):
                pass
        finally:
            remove_exporter(broken)
        assert counter.value == before + 2

    def test_export_failure_warns_once_per_exporter(self, exporter):
        import logging

        class _Capture(logging.Handler):
            def __init__(self):
                super().__init__(level=logging.WARNING)
                self.records = []

            def emit(self, record):
                self.records.append(record)

        capture = _Capture()
        logger = logging.getLogger("repro.obs.tracing")
        logger.addHandler(capture)
        broken = add_exporter(_AlwaysBroken())
        try:
            for name in ("one", "two", "three"):
                with trace(name):
                    pass
        finally:
            remove_exporter(broken)
            logger.removeHandler(capture)
        warnings = [
            r for r in capture.records if "span.export_failed" in r.getMessage()
        ]
        assert len(warnings) == 1
        # Healthy exporters still received every span.
        assert [s.name for s in exporter.spans()] == ["one", "two", "three"]


class TestConcurrentThreads:
    """The tracing satellite: spans under thread concurrency."""

    THREADS = 8
    DEPTH = 3

    def _run_threads(self):
        barrier = threading.Barrier(self.THREADS)
        errors = []

        def worker(index):
            try:
                barrier.wait(timeout=10)
                with trace(f"outer-{index}", thread=index):
                    for level in range(self.DEPTH):
                        with trace(f"level{level}-{index}"):
                            pass
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert errors == []

    def test_span_trees_stay_per_thread(self, exporter):
        self._run_threads()
        spans = exporter.spans()
        by_id = {s.span_id: s for s in spans}
        for span in spans:
            suffix = span.name.rsplit("-", 1)[1]
            if span.parent_id is None:
                assert span.name.startswith("outer-")
            else:
                parent = by_id[span.parent_id]
                # A span's parent always belongs to the same thread.
                assert parent.name.endswith(f"-{suffix}")
                assert parent.trace_id == span.trace_id
        roots = [s for s in spans if s.parent_id is None]
        assert len(roots) == self.THREADS
        assert len({s.trace_id for s in roots}) == self.THREADS

    def test_every_span_exported_exactly_once(self, exporter):
        self._run_threads()
        spans = exporter.spans()
        assert len(spans) == self.THREADS * (1 + self.DEPTH)
        # Unique ids and unique (name) occurrences: nothing doubled.
        assert len({s.span_id for s in spans}) == len(spans)
        names = [s.name for s in spans]
        assert len(set(names)) == len(names)

    def test_concurrent_profiling_keeps_fields_sane(self, exporter):
        set_profiling(True)
        self._run_threads()
        for span in exporter.spans():
            assert span.cpu_time is not None
            assert span.alloc_peak is not None and span.alloc_peak >= 0
