"""The model search engine: one facade over every search mode.

Figure 2's flow — a user query is mapped to a suitable indexer, the
indexer retrieves, and ranked models come back.  Modes:

* ``keyword``    — BM25 over model cards (metadata-only baseline),
* ``behavioral`` — competence-profile search (content-based),
* ``weight``     — intrinsic weight-statistic similarity,
* ``hybrid``     — score fusion of keyword and behavioral channels.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.search.behavioral import (
    BehavioralSearcher,
    TaskSpec,
    embedding_index,
    extract_query_domains,
)
from repro.core.search.keyword import BM25Index, build_card_index
from repro.data.datasets import TextDataset
from repro.data.probes import ProbeSet, cached_text_probes, make_text_probes
from repro.errors import ConfigError, ModelNotFoundError
from repro.index.cache import EmbeddingCache
from repro.index.embedders import WeightStatEmbedder
from repro.index.flat import FlatIndex
from repro.lake.lake import ModelLake
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    SEARCH_ENGINE_BUILDS,
    SEARCH_LATENCY,
    SEARCH_QUERIES,
)
from repro.obs.logging import get_logger
from repro.obs.tracing import trace

if TYPE_CHECKING:
    from repro.core.search.dataset_search import DatasetSearchHit
    from repro.nn.module import Module

_log = get_logger("search.engine")

# Instrument objects resolved once at import; registry.reset() zeroes them
# in place, so the references stay valid for the life of the process.
_queries_counter = obs_metrics.get_registry().counter(SEARCH_QUERIES)
_latency_histogram = obs_metrics.get_registry().histogram(SEARCH_LATENCY)

SEARCH_METHODS = ("keyword", "behavioral", "weight", "hybrid")


@dataclass
class SearchHit:
    """One ranked search result."""

    model_id: str
    score: float
    method: str

    def __iter__(self):
        yield self.model_id
        yield self.score


class SearchEngine:
    """Builds and queries all indexes for one lake snapshot.

    The engine builds the BM25 and behavioral indexes at construction
    time; the weight-statistics view, which only model-as-query
    :meth:`related_models` (``view="weight"``) reads, is built on its
    first use.  Re-create the engine after lake mutations (real
    deployments would index incrementally — see
    :mod:`repro.core.benchmarking.lifelong` for the incremental story).

    ``cache_dir`` (conventionally ``<lake>/cache/``) enables the
    persistent embedding cache: rebuilds against unchanged weights skip
    model rehydration and embedding, loading vectors by weight digest
    instead.  The same directory keeps the frozen BM25 table
    (``bm25.npz``), so a rebuild over unchanged cards skips tokenizing
    them, and, when no ``probes`` are given, the default text probe set
    (``probes.npz``), so a warm build never generates it.  Pass an
    :class:`EmbeddingCache` via ``cache`` to share one across engines
    (``cache_dir`` is then ignored, and both files live in that cache's
    directory; an in-memory cache keeps neither).
    """

    def __init__(
        self,
        lake: ModelLake,
        probes: Optional[ProbeSet] = None,
        hybrid_alpha: float = 0.5,
        cache_dir: Optional[str] = None,
        cache: Optional[EmbeddingCache] = None,
    ):
        if not 0.0 <= hybrid_alpha <= 1.0:
            raise ConfigError(f"hybrid_alpha must be in [0, 1], got {hybrid_alpha}")
        self.lake = lake
        self.hybrid_alpha = hybrid_alpha
        # One cache file per embedding space on every lake layout: warm
        # start reads every cached vector anyway, so splitting the cache
        # like the weight store would only multiply file opens.
        if cache is None and cache_dir is not None:
            cache = EmbeddingCache(cache_dir)
        self.cache = cache
        if probes is None:
            probes = (make_text_probes()
                      if cache is None or cache.directory is None
                      else cached_text_probes(cache.directory))
        self.probes = probes
        with trace("search.engine.build", models=len(lake)):
            self.keyword_index: BM25Index = build_card_index(
                lake, cache.directory if cache is not None else None
            )
            self.behavioral: BehavioralSearcher = BehavioralSearcher(
                lake, self.probes, cache=cache,
            )
            if cache is not None:
                cache.flush()
        self._weight_embedder = WeightStatEmbedder()
        self._weight_index: Optional[FlatIndex] = None
        self._weight_lock = threading.Lock()
        obs_metrics.inc(SEARCH_ENGINE_BUILDS)
        _log.debug("engine.built", models=len(lake))

    # ------------------------------------------------------------------
    # Text queries
    # ------------------------------------------------------------------
    def search(
        self, query_text: str, k: int = 10, method: str = "hybrid"
    ) -> List[SearchHit]:
        """Rank models for a free-text query using the chosen method."""
        return self._rank(
            [(query_text, k, method)], "search.query", method=method, k=k
        )[0]

    def search_batch(
        self, queries: Sequence[Tuple[str, int, str]]
    ) -> List[List[SearchHit]]:
        """Rank a batch of ``(query_text, k, method)`` triples at once.

        The serve layer's micro-batcher funnels coalesced requests here.
        Results align positionally with ``queries``, and each element
        equals what :meth:`search` returns for the same triple: both run
        :meth:`_rank`.
        """
        return self._rank(queries, "search.query_batch", size=len(queries))

    def _rank(
        self,
        queries: Sequence[Tuple[str, int, str]],
        span: str,
        **attributes: object,
    ) -> List[List[SearchHit]]:
        """The one ranking routine, inside one ``span``.

        Every behavioral lookup the triples need (including the
        behavioral channel of each hybrid query) is grouped by effective
        k, deduplicated, and passed to one ``search_text_batch`` call per
        group, so a repeated query is ranked once.  Each distinct query
        is still one matrix-vector scan.  Counts one query per triple
        and one latency sample per call.
        """
        for _, _, method in queries:
            if method not in SEARCH_METHODS:
                raise ConfigError(
                    f"unknown method {method!r}; expected {SEARCH_METHODS}"
                )
            if method == "weight":
                raise ConfigError(
                    "weight search needs a model as query; use related_models()"
                )
        start = time.perf_counter()
        with trace(span, **attributes):
            # Unique behavioral lookups the batch needs: behavioral
            # queries at their own k, hybrid queries at their pool size.
            needed: Dict[Tuple[str, int], List[Tuple[str, float]]] = {}
            for query_text, k, method in queries:
                if method == "behavioral":
                    needed[(query_text, k)] = []
                elif method == "hybrid":
                    needed[(query_text, max(k * 5, 20))] = []
            by_k: Dict[int, List[str]] = {}
            for query_text, k_eff in needed:
                by_k.setdefault(k_eff, []).append(query_text)
            for k_eff in sorted(by_k):
                texts = by_k[k_eff]
                for query_text, hits in zip(
                    texts, self.behavioral.search_text_batch(texts, k=k_eff)
                ):
                    needed[(query_text, k_eff)] = hits
            out: List[List[SearchHit]] = []
            for query_text, k, method in queries:
                if method == "keyword":
                    results = self.keyword_index.query(query_text, k=k)
                elif method == "behavioral":
                    results = needed[(query_text, k)]
                else:
                    results = self._fuse_hybrid(
                        query_text, k, needed[(query_text, max(k * 5, 20))]
                    )
                out.append([SearchHit(mid, score, method) for mid, score in results])
        _queries_counter.inc(len(queries))
        _latency_histogram.observe(time.perf_counter() - start)
        return out

    def _fuse_hybrid(
        self,
        query_text: str,
        k: int,
        behavioral_hits: Sequence[Tuple[str, float]],
    ) -> List[Tuple[str, float]]:
        """alpha * normalized-BM25 + (1 - alpha) * behavioral similarity,
        ranked by ``(-score, id)``."""
        with trace("search.hybrid", k=k):
            pool = max(k * 5, 20)
            keyword = dict(self.keyword_index.query(query_text, k=pool))
            max_bm25 = max(keyword.values()) if keyword else 1.0
            behavioral = dict(behavioral_hits)
            ids = set(keyword) | set(behavioral)
            alpha = self.hybrid_alpha
            fused = {
                mid: alpha * (keyword.get(mid, 0.0) / max_bm25)
                + (1 - alpha) * behavioral.get(mid, 0.0)
                for mid in ids
            }
            ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
            return ranked[:k]

    # ------------------------------------------------------------------
    # Structured / model / dataset queries
    # ------------------------------------------------------------------
    def search_domains(self, domains: Sequence[str], k: int = 10) -> List[SearchHit]:
        results = self.behavioral.search_domains(domains, k=k)
        return [SearchHit(mid, score, "behavioral") for mid, score in results]

    def search_by_task(self, task: TaskSpec, k: int = 10) -> List[SearchHit]:
        results = self.behavioral.search_by_task(task, k=k)
        return [SearchHit(mid, score, "task_eval") for mid, score in results]

    def related_models(
        self, model_id: str, k: int = 10, view: str = "behavioral"
    ) -> List[SearchHit]:
        """Model-as-query search from an existing lake model."""
        if view not in ("behavioral", "weight"):
            raise ConfigError(f"unknown view {view!r}; expected behavioral|weight")
        model = self.lake.get_model(model_id, force=True)
        if view == "behavioral":
            results = self.behavioral.search_by_model(model, k=k, exclude_id=model_id)
        else:
            vector = self._weight_embedder.embed(model)
            results = [
                (mid, score)
                for mid, score in self._weight_view().query(vector, k=k + 1)
                if mid != model_id
            ][:k]
        return [SearchHit(mid, score, f"related_{view}") for mid, score in results]

    def _weight_view(self) -> FlatIndex:
        """The weight-statistics index, built by its first caller.

        Concurrent first callers share one build: the rest wait on the
        lock and read the finished index.
        """
        index = self._weight_index
        if index is not None:
            return index
        with self._weight_lock:
            if self._weight_index is None:
                with trace("search.engine.weight_build", models=len(self.lake)):
                    self._weight_index = embedding_index(
                        self.lake, self._weight_embedder, self.cache
                    )
                    if self.cache is not None:
                        self.cache.flush()
            return self._weight_index

    def related_to_external_model(self, model: Module, k: int = 10) -> List[SearchHit]:
        """Model-as-query where the query model is not in the lake."""
        results = self.behavioral.search_by_model(model, k=k)
        return [SearchHit(mid, score, "related_behavioral") for mid, score in results]

    def models_trained_on(
        self,
        dataset: TextDataset,
        reference: Optional[TextDataset] = None,
        include_versions: bool = True,
    ) -> List["DatasetSearchHit"]:
        # Dataset search pulls in membership attribution; a server never
        # asks for it.
        from repro.core.search.dataset_search import models_trained_on

        return models_trained_on(
            self.lake, dataset, reference=reference, include_versions=include_versions
        )

    def models_outperforming(
        self, model_id: str, metric: str, k: int = 10
    ) -> List[SearchHit]:
        """Models whose recorded ``metric`` beats the reference model's.

        Realizes the query "Find models that outperform Model X on
        Benchmark Y" over lake-recorded benchmark metrics.
        """
        reference = self.lake.get_record(model_id)
        if metric not in reference.eval_metrics:
            raise ConfigError(
                f"model {model_id!r} has no recorded metric {metric!r}"
            )
        target = reference.eval_metrics[metric]
        hits = [
            SearchHit(record.model_id, record.eval_metrics[metric], "metric")
            for record in self.lake
            if record.model_id != model_id
            and record.eval_metrics.get(metric, -np.inf) > target
        ]
        hits.sort(key=lambda h: (-h.score, h.model_id))
        return hits[:k]

    def resolve_name(self, name: str) -> str:
        """Model name -> model id (exact match required, unique)."""
        matches = self.lake.find_by_name(name)
        if not matches:
            raise ModelNotFoundError(name)
        if len(matches) > 1:
            raise ConfigError(f"model name {name!r} is ambiguous ({len(matches)} hits)")
        return matches[0].model_id
