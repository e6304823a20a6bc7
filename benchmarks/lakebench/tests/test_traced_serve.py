"""The traced launcher records a span for every declared layer boundary."""

import asyncio
import json
import os

from benchmarks.lakebench.loadgen import Target
from benchmarks.lakebench.servers import ServerProcess, serve_argv, server_env
from benchmarks.lakebench.traffic import BY_NAME

from conftest import ROOT

#: span name -> names its parent span may have (None: top level).
LAYERS = {
    "serve.batching.submit": {None},
    "core.search.engine.search_batch": {None},
    "core.search.keyword.query": {"core.search.engine.search_batch"},
    "core.search.behavioral.search_text_batch": {"core.search.engine.search_batch"},
    "core.search.behavioral.extract_query_domains":
        {"core.search.behavioral.search_text_batch"},
    "index.flat.query_batch": {"core.search.behavioral.search_text_batch"},
    "serve.snapshot.open": {None},
    "lake.load": {"serve.snapshot.open"},
    "core.search.keyword.build": {"serve.snapshot.open"},
    "core.search.behavioral.build": {"serve.snapshot.open"},
    "index.cache.get": {"serve.snapshot.open", "core.search.behavioral.build"},
}


def test_traced_launcher_emits_spans_for_every_layer(small_lake, tmp_path):
    spans = str(tmp_path / "spans.json")
    server = ServerProcess(
        serve_argv(small_lake.directory, traced_spans=spans),
        server_env(os.path.join(ROOT, "src")), str(tmp_path / "server.log"),
    )
    try:
        target = Target(server.host, server.port,
                        BY_NAME["mixed_1k"].stream(0, small_lake.model_ids))

        async def drive():
            await target.load(1.0)
            await target.close()

        asyncio.run(drive())
    finally:
        assert server.stop() == 0
    assert target.attempted > 0 and target.failed == 0
    with open(spans) as handle:
        rows = json.load(handle)["spans"]
    names = {row[0]: row[1] for row in rows}
    assert set(names.values()) == set(LAYERS)
    for _, name, start, end, parent, _ in rows:
        assert start <= end
        assert names.get(parent) in LAYERS[name]
