"""``repro serve`` with a perf_counter span around each layer's public calls.

Usage::

    PYTHONPATH=src python benchmarks/lakebench/traced_serve.py \\
        --spans SPANS.json serve --dir LAKE --port 0

Everything after ``--spans FILE`` is passed to the ``repro`` CLI
unchanged, so the traced server is the untraced one plus the wrappers
installed by :func:`install`.  Spans stay in memory; they are written
to ``FILE`` as JSON after the server drains on SIGTERM.

A span is ``[id, name, start, end, parent, detail]``: ``start`` and
``end`` are ``time.perf_counter()`` readings (CLOCK_MONOTONIC on Linux,
so they compare with the load generator's clock), ``parent`` is the id
of the enclosing span on the same thread (``None`` at a thread's top
level), and ``detail`` carries the request key or work counts the
ledger needs.  ``MicroBatcher.submit`` is a coroutine: its span is
timed across its awaits and never becomes a parent, since interleaved
requests share the loop thread.
"""

from __future__ import annotations

import functools
import itertools
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)


class SpanRecorder:
    """In-memory span store with a per-thread parent stack."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             detail: Optional[Callable[..., Any]] = None) -> Callable:
        """``fn`` recording one span per call; ``detail(args, result)``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([
                    span_id, name, start, end, parent,
                    detail(args, result) if detail else None,
                ])

        return wrapper

    def wrap_async(self, name: str, fn: Callable,
                   detail: Callable[..., Any]) -> Callable:
        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            span_id = next(self._ids)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.spans.append([
                    span_id, name, start, time.perf_counter(), None,
                    detail(args, None),
                ])

        return wrapper

    def dump(self, path: str) -> None:
        from repro.reliability.atomic import atomic_write_json

        atomic_write_json(path, {"spans": self.spans}, indent=None, fsync=False)


def _rows_scored(args, _result) -> Dict[str, int]:
    index, vectors = args[0], args[1]
    queries = 1 if getattr(vectors, "ndim", 2) == 1 else len(vectors)
    return {"rows": len(index) * queries}


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer boundary (request path and start-up)."""
    from repro.core.search import behavioral, engine
    from repro.core.search.keyword import BM25Index
    from repro.index.cache import EmbeddingCache
    from repro.index.flat import FlatIndex
    from repro.serve import snapshot
    from repro.serve.batching import MicroBatcher

    wrap = recorder.wrap
    # Request path.
    MicroBatcher.submit = recorder.wrap_async(
        "serve.batching.submit", MicroBatcher.submit,
        lambda args, _: ["search", args[1], int(args[2]), args[3]],
    )
    engine.SearchEngine.search_batch = wrap(
        "core.search.engine.search_batch", engine.SearchEngine.search_batch,
        lambda args, _: [["search", q, int(k), m] for q, k, m in args[1]],
    )
    BM25Index.query = wrap(
        "core.search.keyword.query", BM25Index.query,
        lambda args, _: args[1],
    )
    behavioral.BehavioralSearcher.search_text_batch = wrap(
        "core.search.behavioral.search_text_batch",
        behavioral.BehavioralSearcher.search_text_batch,
    )
    behavioral.extract_query_domains = wrap(
        "core.search.behavioral.extract_query_domains",
        behavioral.extract_query_domains,
        lambda _, result: result,
    )
    FlatIndex.query_batch = wrap(
        "index.flat.query_batch", FlatIndex.query_batch, _rows_scored,
    )
    # Start-up path.
    open_fn = snapshot.LakeSnapshot.__dict__["open"].__func__
    snapshot.LakeSnapshot.open = classmethod(
        wrap("serve.snapshot.open", open_fn)
    )
    snapshot.load_lake = wrap("lake.load", snapshot.load_lake)
    engine.build_card_index = wrap(
        "core.search.keyword.build", engine.build_card_index,
    )
    behavioral.BehavioralSearcher.__init__ = wrap(
        "core.search.behavioral.build", behavioral.BehavioralSearcher.__init__,
    )
    EmbeddingCache.get = wrap(
        "index.cache.get", EmbeddingCache.get,
        lambda _, result: result is not None,
    )


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print("usage: traced_serve.py --spans FILE serve --dir LAKE ...",
              file=sys.stderr)
        return 2
    sys.path.insert(0, _SRC)
    from repro import cli

    recorder = SpanRecorder()
    install(recorder)
    code = cli.main(argv[2:])
    recorder.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
