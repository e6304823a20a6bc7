"""The served span tree: one trace from the root span down to the engine.

A traced server must explain any request.  Each request span and each
batch span hangs directly under the span that was open when the server
started (the CLI root in ``repro serve``), the engine's spans hang under
the batch that scored them, and a failed request marks its own span.
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs.tracing import (
    InMemoryExporter,
    add_exporter,
    remove_exporter,
    trace,
)

from tests.serve.conftest import ServerHarness

QUERIES = [
    "legal court statute",
    "medical diagnosis",
    "financial market risk",
    "legal contract",
    "patient symptoms",
    "stock portfolio",
    "court ruling appeal",
    "clinical trial",
]


class _RootedHarness(ServerHarness):
    """Start and run the server inside a root span on the loop thread."""

    root = None

    async def _main(self) -> None:
        with trace("test.root") as root:
            self.root = root
            await super()._main()


@pytest.fixture()
def exporter():
    sink = add_exporter(InMemoryExporter())
    yield sink
    remove_exporter(sink)


def _by_name(spans, name):
    return [span for span in spans if span.name == name]


def test_requests_and_batches_hang_under_the_root(serve_lake_dir, exporter):
    harness = _RootedHarness(serve_lake_dir, workers=2)
    exporter.clear()  # drop the snapshot open's spans: they precede the root
    harness.start()
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            statuses = [
                status for status, _ in pool.map(harness.search, QUERIES)
            ]
    finally:
        harness.stop()
    assert statuses == [200] * len(QUERIES)

    spans = exporter.spans()
    root = harness.root
    assert root is not None and root in spans
    by_id = {span.span_id: span for span in spans}
    requests = _by_name(spans, "serve.request.search")
    batches = _by_name(spans, "serve.batch")
    assert len(requests) == len(QUERIES)
    assert batches
    for span in requests + batches:
        assert span.parent_id == root.span_id, span
    assert {span.trace_id for span in spans} == {root.trace_id}

    engine = [span for span in spans if span.name.startswith("search.")]
    assert engine
    for span in engine:
        ancestor = by_id[span.parent_id]
        while ancestor.name.startswith("search."):
            ancestor = by_id[ancestor.parent_id]
        assert ancestor.name == "serve.batch", span


def test_server_error_marks_the_request_span(
    serve_lake_dir, exporter, monkeypatch
):
    harness = _RootedHarness(serve_lake_dir, workers=1)

    def broken(triples):
        raise RuntimeError("scoring failed")

    monkeypatch.setattr(harness.snapshot.engine, "search_batch", broken)
    exporter.clear()
    harness.start()
    try:
        status, payload = harness.search("legal court statute")
    finally:
        harness.stop()
    assert status == 500, payload

    spans = exporter.spans()
    (request,) = _by_name(spans, "serve.request.search")
    assert request.status == "error:500"
    assert request.attributes["status"] == 500
    assert request.parent_id == harness.root.span_id
