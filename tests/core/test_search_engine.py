"""Tests for the unified search engine."""

import numpy as np
import pytest

from repro.core.search import SearchEngine
from repro.errors import ConfigError, ModelNotFoundError
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import LAKE_MODEL_LOADS


@pytest.fixture(scope="module")
def engine(lake_bundle, probes):
    return SearchEngine(lake_bundle.lake, probes)


class TestTextSearch:
    def test_all_methods_return_hits(self, engine):
        for method in ("keyword", "behavioral", "hybrid"):
            hits = engine.search("court statute legal documents", k=5, method=method)
            assert hits, method
            assert all(h.method == method for h in hits)

    def test_unknown_method(self, engine):
        with pytest.raises(ConfigError):
            engine.search("legal", method="psychic")

    def test_weight_method_rejected_for_text(self, engine):
        with pytest.raises(ConfigError):
            engine.search("legal", method="weight")

    def test_hybrid_blends_channels(self, lake_bundle, probes):
        keyword_only = SearchEngine(lake_bundle.lake, probes, hybrid_alpha=1.0)
        content_only = SearchEngine(lake_bundle.lake, probes, hybrid_alpha=0.0)
        query = "legal court statute"
        kw = [h.model_id for h in keyword_only.search(query, k=5)]
        bh = [h.model_id for h in content_only.search(query, k=5)]
        kw_pure = [h.model_id for h in keyword_only.search(query, k=5, method="keyword")]
        bh_pure = [h.model_id for h in content_only.search(query, k=5, method="behavioral")]
        assert kw == kw_pure
        assert bh == bh_pure


class TestRelatedModels:
    def test_behavioral_view(self, engine, lake_bundle):
        model_id = lake_bundle.truth.foundations[0]
        hits = engine.related_models(model_id, k=3, view="behavioral")
        assert len(hits) == 3
        assert all(h.model_id != model_id for h in hits)

    def test_weight_view_finds_children(self, engine, lake_bundle):
        model_id = lake_bundle.truth.foundations[0]
        hits = engine.related_models(model_id, k=3, view="weight")
        children = {
            c for p, c, _ in lake_bundle.truth.edges if model_id in p
        }
        assert any(h.model_id in children for h in hits)

    def test_invalid_view(self, engine, lake_bundle):
        loads = obs_metrics.get_registry().counter(LAKE_MODEL_LOADS)
        before = loads.value
        with pytest.raises(ConfigError):
            engine.related_models(lake_bundle.truth.foundations[0], view="vibes")
        assert loads.value == before  # rejected before the model is loaded


class TestStructuredQueries:
    def test_models_trained_on_base_corpus(self, engine, lake_bundle):
        hits = engine.models_trained_on(lake_bundle.base_dataset)
        hit_ids = {h.model_id for h in hits}
        for foundation in lake_bundle.truth.foundations:
            assert foundation in hit_ids

    def test_version_closure_included(self, engine, lake_bundle):
        """Models trained on derived specialty sets count as trained on
        versions of the base corpus."""
        hits = engine.models_trained_on(lake_bundle.base_dataset)
        evidences = {h.evidence for h in hits}
        assert "history-version" in evidences

    def test_models_outperforming(self, engine, lake_bundle):
        foundation = lake_bundle.truth.foundations[0]
        base_score = lake_bundle.lake.get_record(foundation).eval_metrics["acc_legal"]
        hits = engine.models_outperforming(foundation, "acc_legal", k=20)
        for hit in hits:
            assert hit.score > base_score
            assert hit.model_id != foundation

    def test_outperforming_unknown_metric(self, engine, lake_bundle):
        with pytest.raises(ConfigError):
            engine.models_outperforming(
                lake_bundle.truth.foundations[0], "acc_martian"
            )

    def test_resolve_name(self, engine, lake_bundle):
        record = lake_bundle.lake.get_record(lake_bundle.truth.foundations[0])
        assert engine.resolve_name(record.name) == record.model_id
        with pytest.raises(ModelNotFoundError):
            engine.resolve_name("missing-model")
