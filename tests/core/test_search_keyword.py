"""Tests for BM25 keyword search."""

import pytest

from repro.core.search import BM25Index, build_card_index
from repro.errors import ConfigError


@pytest.fixture()
def index():
    idx = BM25Index()
    idx.add("legal-model", "legal court contract statute model for lawyers")
    idx.add("medical-model", "medical clinical patient diagnosis model")
    idx.add("chef-model", "recipe sauce oven cooking model")
    return idx


class TestBM25:
    def test_topical_match(self, index):
        results = index.query("court statute legal", k=3)
        assert results[0][0] == "legal-model"

    def test_rare_terms_weigh_more(self, index):
        # "model" appears everywhere; "diagnosis" only in one doc.
        results = index.query("model diagnosis", k=3)
        assert results[0][0] == "medical-model"

    def test_no_match_empty(self, index):
        assert index.query("astronomy telescope", k=3) == []

    def test_empty_index(self):
        assert BM25Index().query("anything") == []

    def test_scores_descending(self, index):
        results = index.query("model", k=3)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            BM25Index(k1=0)
        with pytest.raises(ConfigError):
            BM25Index(b=2.0)

    def test_term_frequency_saturation(self):
        idx = BM25Index()
        idx.add("spam", "legal " * 50)
        idx.add("normal", "legal court contract")
        results = dict(idx.query("legal", k=2))
        # Repetition should not dominate unboundedly (BM25 saturates).
        assert results["spam"] < results["normal"] * 3

    def test_re_add_replaces_old_text(self):
        idx = BM25Index()
        idx.add("d", "alpha beta")
        idx.add("d", "gamma")
        assert idx.query("alpha") == []
        assert idx.query("beta") == []
        assert [doc for doc, _ in idx.query("gamma")] == ["d"]
        assert idx._avg_length == 1.0
        assert len(idx) == 1

    def test_re_add_keeps_other_docs_postings(self):
        idx = BM25Index()
        idx.add("a", "alpha beta")
        idx.add("b", "alpha")
        idx.add("a", "gamma")
        assert [doc for doc, _ in idx.query("alpha")] == ["b"]
        assert idx._avg_length == 1.0


class _ReSummingBM25(BM25Index):
    """The pre-running-total ``add``: re-sums every length per call."""

    def add(self, doc_id, text):
        super().add(doc_id, text)
        self._avg_length = sum(self._doc_lengths.values()) / len(self._doc_lengths)


class TestIncrementalLengths:
    def test_running_total_scores_byte_identically(self, lake_bundle):
        incremental = build_card_index(lake_bundle.lake)
        reference = _ReSummingBM25()
        for record in lake_bundle.lake:
            reference.add(record.model_id, record.card.text())
        assert incremental._avg_length == reference._avg_length
        for query in (
            "legal court statute", "medical notes", "model for text",
            "recipe oven", "code compiler tokens",
        ):
            got = incremental.query(query, k=len(incremental))
            want = reference.query(query, k=len(reference))
            assert repr(got) == repr(want)


class TestBuildCardIndex:
    def test_indexes_all_models(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        assert len(index) == len(lake_bundle.lake)

    def test_finds_by_card_domain(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        results = index.query("legal court statute", k=5)
        assert results  # truthful cards mention the legal domain somewhere
