"""Tests for behavioral (content-based) model search."""

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import (
    BehavioralSearcher,
    TaskSpec,
    extract_query_domains,
    task_profile_vector,
)
from repro.data.domains import DOMAIN_NAMES, get_domain
from repro.errors import ConfigError
from repro.utils.text import simple_tokenize


@pytest.fixture(scope="module")
def searcher(lake_bundle, probes):
    return BehavioralSearcher(lake_bundle.lake, probes)


def _scan_query_domains(query_text: str) -> List[str]:
    """Reference: intersect the query with every domain's vocabulary."""
    tokens = set(simple_tokenize(query_text))
    hits: Dict[str, int] = {}
    for name in DOMAIN_NAMES:
        score = 3 if name in tokens else 0
        score += len(tokens.intersection(get_domain(name).content_words()))
        if score > 0:
            hits[name] = score
    if not hits:
        return []
    best = max(hits.values())
    return sorted([d for d, s in hits.items() if s >= max(1, best)])


_query_words = st.one_of(
    st.sampled_from(DOMAIN_NAMES),
    st.sampled_from(sorted({
        word for name in DOMAIN_NAMES for word in get_domain(name).content_words()
    })),
    st.sampled_from(["the", "model", "LEGAL", "zzz", "find"]),
)


class TestQueryDomainExtraction:
    def test_domain_name_hit(self):
        assert "legal" in extract_query_domains("find me a legal model")

    def test_content_word_hit(self):
        domains = extract_query_domains("summarize court verdict and statute text")
        assert domains == ["legal"]

    def test_multiple_domains(self):
        domains = extract_query_domains("patient diagnosis for court plaintiff statute")
        assert "legal" in domains or "medical" in domains

    def test_no_hit(self):
        assert extract_query_domains("zzz qqq xyzzy") == []

    @given(st.lists(_query_words, max_size=10))
    @settings(max_examples=300, deadline=None)
    def test_matches_per_domain_intersection(self, words):
        query = " ".join(words)
        assert extract_query_domains(query) == _scan_query_domains(query)


class TestTaskProfileVector:
    def test_unit_norm(self, probes):
        vector = task_profile_vector(probes, ["legal"])
        assert abs(np.linalg.norm(vector) - 1.0) < 1e-9

    def test_mass_on_target_probes(self, probes):
        vector = task_profile_vector(probes, ["legal"])
        domains = np.asarray(probes.domains)
        assert np.all(vector[domains != "legal"] == 0)

    def test_unknown_domain_raises(self, probes):
        with pytest.raises(ConfigError):
            task_profile_vector(probes, ["astrology"])


class TestDomainSearch:
    def test_specialists_rank_high(self, searcher, lake_bundle):
        """For each fine-tuned specialist's domain, that specialist should
        appear in the top half of the ranking."""
        total = len(lake_bundle.lake)
        for model_id, specialty in lake_bundle.truth.specialty.items():
            transform = lake_bundle.truth.transform_of(model_id)
            if specialty is None or transform is None or transform.kind != "finetune":
                continue
            results = searcher.search_domains([specialty], k=total)
            rank = [mid for mid, _ in results].index(model_id)
            assert rank < total / 2

    def test_free_text_query(self, searcher):
        results = searcher.search_text("court statute verdict summarization", k=5)
        assert len(results) == 5

    def test_unparseable_query_empty(self, searcher):
        assert searcher.search_text("xyzzy", k=5) == []


class TestModelAsQuery:
    def test_self_similarity_top(self, searcher, lake_bundle):
        model_id = lake_bundle.truth.foundations[0]
        model = lake_bundle.lake.get_model(model_id, force=True)
        results = searcher.search_by_model(model, k=3)
        assert results[0][0] == model_id

    def test_exclusion(self, searcher, lake_bundle):
        model_id = lake_bundle.truth.foundations[0]
        model = lake_bundle.lake.get_model(model_id, force=True)
        results = searcher.search_by_model(model, k=3, exclude_id=model_id)
        assert all(mid != model_id for mid, _ in results)

    def test_external_model(self, searcher, lake_bundle, vocabulary):
        """A fresh model not in the lake still gets a ranking."""
        from repro.nn import TextClassifier

        external = TextClassifier(len(vocabulary), 8, dim=8, hidden=(8,), seed=99)
        results = searcher.search_by_model(external, k=3)
        assert len(results) == 3


class TestTaskSpecSearch:
    def test_best_model_found(self, searcher, lake_bundle):
        eval_set = lake_bundle.eval_dataset
        task = TaskSpec(inputs=eval_set.tokens, desired_labels=eval_set.labels)
        results = searcher.search_by_task(task, k=3)
        # The top model by direct evaluation should be a strong generalist.
        top_id = results[0][0]
        accuracy = lake_bundle.truth.domain_accuracy[top_id]
        assert np.mean(list(accuracy.values())) > 0.8
