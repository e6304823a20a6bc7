"""Long-lived lake-search service (the traffic-facing app layer).

The paper's §6 applications — declarative model search, citation,
audit — are all *query* workloads, but a CLI one-shot pays full engine
construction per query and never exercises the lake under concurrency.
This package turns one lake snapshot into a small HTTP/JSON service:

* :class:`~repro.serve.snapshot.LakeSnapshot` — an explicitly closeable
  (lake, engine) pair opened through the memmap read path and the warm
  embedding cache;
* :class:`~repro.serve.batching.MicroBatcher` — dispatches a query at
  once while a worker is free, and coalesces the queries that queue
  behind busy workers into one batched index pass;
* :class:`~repro.serve.server.LakeServer` — stdlib-asyncio HTTP server
  with per-endpoint latency histograms, per-request spans, and graceful
  drain on shutdown.

Everything here sits in the *app* layer of ``.repro-arch.toml``:
compute layers must never import ``repro.serve``.
"""

from repro.serve.batching import MicroBatcher
from repro.serve.server import LakeServer, ServeConfig, run_server
from repro.serve.snapshot import LakeSnapshot

__all__ = [
    "LakeSnapshot",
    "MicroBatcher",
    "LakeServer",
    "ServeConfig",
    "run_server",
]
