"""Per-layer ledger: turn traced spans plus client latencies into metrics.

Every /search request's client latency ``L`` splits exactly into

* ``serve.server``     — ``L`` minus its ``submit`` span (HTTP parse,
  routing, JSON, sockets, the client's own loop), measured by
  subtraction, not by a span; a /model request is all server;
* ``serve.batching``   — ``submit`` minus the ``search_batch`` call
  that served it: the window and executor queue before (``wait``) and
  the wake-up after (``wake``);
* ``core.search.engine``     — ``search_batch`` self time;
* ``core.search.keyword``    — BM25 calls inside that batch;
* ``core.search.behavioral`` — ``search_text_batch`` minus its flat
  index calls (domain extraction included);
* ``index.flat``       — ``FlatIndex.query_batch`` calls.

A request that shared its batch with others is charged the whole batch,
because it waited for all of it.  So the six ``.share`` values of a
workload sum to 1 by construction.
"""

from __future__ import annotations

import bisect
from collections import Counter, defaultdict
from statistics import fmean
from typing import Callable, Dict, List, Sequence, Tuple

SHARE_LAYERS = (
    "serve.server",
    "serve.batching",
    "core.search.engine",
    "core.search.keyword",
    "core.search.behavioral",
    "index.flat",
)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "detail", "children")

    def __init__(self, row: Sequence):
        self.id, self.name, self.start, self.end, self.parent, self.detail = row
        self.children: List["Span"] = []

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def child_seconds(self, name: str) -> float:
        return sum(c.seconds for c in self.children if c.name == name)

    def descendants(self, name: str) -> List["Span"]:
        found = []
        for child in self.children:
            if child.name == name:
                found.append(child)
            found.extend(child.descendants(name))
        return found


def _mean(values: List[float]) -> float:
    return fmean(values) if values else 0.0


def _only(spans: Dict[str, List[Span]], name: str) -> float:
    """Duration of a start-up span that runs once per server."""
    found = spans.get(name, [])
    return found[0].seconds if found else 0.0


def layer_metrics(
    rows: Sequence[Sequence],
    windows: Sequence[Tuple[float, float]],
    latencies: Sequence[float],
    postings: Callable[[str], int],
) -> Dict[str, float]:
    """Per-layer metrics of one traced workload.

    ``rows`` are the traced server's spans, ``windows`` the measured
    load segments (same clock), ``latencies`` every successful client
    latency inside them, and ``postings(text)`` the BM25 postings a
    query walks, counted from the lake's cards.
    """
    spans = [Span(row) for row in rows]
    by_id = {s.id: s for s in spans}
    for span in spans:
        if span.parent is not None:
            by_id[span.parent].children.append(span)
    starts = sorted(w[0] for w in windows)
    ends = {w[0]: w[1] for w in windows}

    def measured(span: Span) -> bool:
        at = bisect.bisect_right(starts, span.start) - 1
        return at >= 0 and span.start <= ends[starts[at]]

    # Spans outside the windows: start-up, warm-up and the parity replay.
    outside: Dict[str, List[Span]] = defaultdict(list)
    live: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        (live if measured(span) else outside)[span.name].append(span)

    batches = live["core.search.engine.search_batch"]
    serving: Dict[tuple, List[Span]] = defaultdict(list)
    for batch in batches:
        for key in batch.detail:
            serving[tuple(key)].append(batch)

    def cost(batch: Span) -> Dict[str, float]:
        keyword = batch.child_seconds("core.search.keyword.query")
        behavioral = batch.child_seconds("core.search.behavioral.search_text_batch")
        flat = sum(s.seconds for s in batch.descendants("index.flat.query_batch"))
        return {
            "core.search.engine": batch.seconds - keyword - behavioral,
            "core.search.keyword": keyword,
            "core.search.behavioral": behavioral - flat,
            "index.flat": flat,
        }

    costs = {batch.id: cost(batch) for batch in batches}
    charged: Dict[str, float] = Counter()
    waits: List[float] = []
    wakes: List[float] = []
    submits = live["serve.batching.submit"]
    for submit in submits:
        batch = next(
            b for b in serving[tuple(submit.detail)]
            if b.start >= submit.start and b.end <= submit.end
        )
        waits.append(batch.start - submit.start)
        wakes.append(submit.end - batch.end)
        for layer, seconds in costs[batch.id].items():
            charged[layer] += seconds
    total = sum(latencies)
    charged["serve.server"] = total - sum(s.seconds for s in submits)
    charged["serve.batching"] = sum(waits) + sum(wakes)

    keyword_calls = live["core.search.keyword.query"]
    behavioral_calls = live["core.search.behavioral.search_text_batch"]
    extracts = live["core.search.behavioral.extract_query_domains"]
    flats = live["index.flat.query_batch"]
    gets = outside["index.cache.get"]
    domain_sets = {tuple(s.detail) for s in extracts}
    metrics = {
        "serve.server.residual_ms":
            1e3 * charged["serve.server"] / len(latencies),
        "serve.batching.wait_ms": 1e3 * _mean(waits),
        "serve.batching.wake_ms": 1e3 * _mean(wakes),
        "serve.batching.batch_size": _mean([len(b.detail) for b in batches]),
        "serve.batching.dedup_ratio":
            len(submits) / sum(len(b.detail) for b in batches) if batches else 0.0,
        "core.search.engine.batch_ms": 1e3 * _mean([b.seconds for b in batches]),
        "core.search.engine.self_ms":
            1e3 * _mean([costs[b.id]["core.search.engine"] for b in batches]),
        "core.search.keyword.query_ms":
            1e3 * _mean([s.seconds for s in keyword_calls]),
        "core.search.keyword.postings_per_query":
            _mean([postings(s.detail) for s in keyword_calls]),
        "core.search.keyword.build_s": _only(outside, "core.search.keyword.build"),
        "core.search.behavioral.extract_us":
            1e6 * _mean([s.seconds for s in extracts]),
        "core.search.behavioral.search_ms": 1e3 * _mean([
            s.seconds
            - s.child_seconds("core.search.behavioral.extract_query_domains")
            - s.child_seconds("index.flat.query_batch")
            for s in behavioral_calls
        ]),
        "core.search.behavioral.profile_reuse":
            len(extracts) / len(domain_sets) if domain_sets else 0.0,
        "core.search.behavioral.build_s":
            _only(outside, "core.search.behavioral.build"),
        "index.flat.query_batch_ms": 1e3 * _mean([s.seconds for s in flats]),
        "index.flat.rows_scored": _mean([s.detail["rows"] for s in flats]),
        "index.cache.hit_ratio":
            sum(1 for s in gets if s.detail) / len(gets) if gets else 0.0,
        "lake.load_s": _only(outside, "lake.load"),
        "serve.snapshot.open_s": _only(outside, "serve.snapshot.open"),
    }
    for layer in SHARE_LAYERS:
        metrics[f"{layer}.share"] = charged[layer] / total
    return metrics


def postings_counter(card_texts: Sequence[str]) -> Callable[[str], int]:
    """``postings(query)``: postings BM25 walks for ``query`` on these cards.

    Mirrors ``BM25Index.query``: every query token (repeats included)
    walks the whole posting list of that token.
    """
    from repro.utils.text import simple_tokenize

    df: Counter = Counter()
    for text in card_texts:
        df.update(set(simple_tokenize(text)))
    return lambda query: sum(df[token] for token in simple_tokenize(query))
