"""Seeded queries and the four workloads' request streams.

A query is built from 1-2 domains, 1-2 content words per domain and two
generic words (:data:`~benchmarks.lakebench.lake.GENERIC_WORDS`), in
shuffled order.  Its *intended* domains are kept beside the text:
``precision_at_10`` scores a ranking by how many of its top ten models
specialise in every one of them.

The server only ever sees HTTP requests; everything here lives in the
load generator's process.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple
from urllib.parse import quote

from repro.data.domains import DOMAIN_NAMES, get_domain

from benchmarks.lakebench.lake import GENERIC_WORDS

#: Distinct queries before the stream repeats one (a run sends a few
#: thousand, so hybrid_10k and behavioral_10k never repeat).
POOL_SIZE = 65_536
HOT_SET_SIZE = 32
ZIPF_EXPONENT = 1.1
K = 10

#: The precision set does not depend on ``--seed``: it is the same 128
#: queries on every run, so ``precision_at_10`` moves only when rankings
#: do, never with the traffic sample.
EVAL_SEED = 20_250_325
EVAL_SIZE = 128


@dataclass(frozen=True)
class Query:
    text: str
    domains: FrozenSet[str]


@dataclass(frozen=True)
class Request:
    """One HTTP request: ``key`` identifies it for parity and repeats."""

    #: ("search", text, k, method) or ("model", model_id)
    key: Tuple
    #: Intended domains of a search query (empty for /model).
    domains: FrozenSet[str] = frozenset()

    @property
    def path(self) -> str:
        if self.key[0] == "model":
            return f"/model/{self.key[1]}"
        _, text, k, method = self.key
        return f"/search?q={quote(text)}&k={k}&method={method}"


def make_query(rng: random.Random) -> Query:
    domains = rng.sample(DOMAIN_NAMES, rng.randint(1, 2))
    words = list(rng.sample(GENERIC_WORDS, 2))
    for domain in domains:
        words.extend(rng.sample(get_domain(domain).content_words(), rng.randint(1, 2)))
    rng.shuffle(words)
    return Query(" ".join(words), frozenset(domains))


def distinct_queries(seed: int) -> Iterator[Query]:
    """The seeded pool: its first :data:`POOL_SIZE` distinct queries, in
    order, then the same pool again (a run sends a few thousand).

    Lazy, so a run pays only for the queries it sends.
    """
    rng = random.Random(seed)
    seen: Set[str] = set()
    pool: List[Query] = []
    while len(pool) < POOL_SIZE:
        query = make_query(rng)
        if query.text not in seen:
            seen.add(query.text)
            pool.append(query)
            yield query
    yield from itertools.cycle(pool)


def eval_queries() -> List[Query]:
    return list(itertools.islice(distinct_queries(EVAL_SEED), EVAL_SIZE))


def _search(query: Query, method: str) -> Request:
    return Request(("search", query.text, K, method), query.domains)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one lake size."""

    name: str
    models: int
    why: str
    #: (kind, weight) with kind a search method or "model".
    mix: Tuple[Tuple[str, float], ...]
    #: Draw queries Zipf-distributed from a small hot set, not the pool.
    hot: bool = False

    def stream(self, seed: int, model_ids: Sequence[str]) -> Iterator[Request]:
        """The endless request sequence of this workload for ``seed``."""
        rng = random.Random(f"{self.name}:{seed}")
        queries = distinct_queries(seed)
        if self.hot:
            # Hot queries all carry exactly two content words, so the
            # hot set's BM25 cost does not swing with the seed.
            hot = list(itertools.islice(
                (q for q in queries if len(q.text.split()) == 4), HOT_SET_SIZE
            ))
            weights = list(itertools.accumulate(
                1.0 / rank ** ZIPF_EXPONENT for rank in range(1, HOT_SET_SIZE + 1)
            ))
            queries = iter(lambda: rng.choices(hot, cum_weights=weights)[0], None)
        kinds = [kind for kind, _ in self.mix]
        cum = list(itertools.accumulate(weight for _, weight in self.mix))
        while True:
            kind = kinds[0] if len(kinds) == 1 else rng.choices(kinds, cum_weights=cum)[0]
            if kind == "model":
                yield Request(("model", rng.choice(model_ids)))
            else:
                yield _search(next(queries), kind)

    def eval_requests(self) -> List[Request]:
        """The fixed precision set, methods in the workload's proportions."""
        weights = {kind: w for kind, w in self.mix if kind != "model"}
        total = sum(weights.values())
        requests: List[Request] = []
        queries = eval_queries()
        start = 0
        for method, weight in weights.items():
            share = round(len(queries) * weight / total)
            requests.extend(_search(q, method) for q in queries[start:start + share])
            start += share
        return requests


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "hybrid_10k", 10_000,
        "10k models, hybrid search on distinct queries: BM25 over generic "
        "words dominates engine time",
        (("hybrid", 1.0),),
    ),
    Workload(
        "behavioral_10k", 10_000,
        "same lake and queries, behavioral only: BM25 never runs, so the "
        "flat scan, batcher and HTTP dominate",
        (("behavioral", 1.0),),
    ),
    Workload(
        "hot_10k", 10_000,
        "hybrid over a Zipf(1.1) hot set of 32 queries: requests repeat, "
        "so dedup or result caches fire here only",
        (("hybrid", 1.0),),
        hot=True,
    ),
    Workload(
        "mixed_1k", 1_000,
        "1k models, 60% hybrid, 20% behavioral, 20% /model: search is cheap, "
        "so the HTTP front end and batch window dominate",
        (("hybrid", 0.6), ("behavioral", 0.2), ("model", 0.2)),
    ),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
