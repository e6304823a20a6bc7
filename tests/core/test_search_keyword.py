"""Tests for BM25 keyword search."""

import math
from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import BM25Index, build_card_index
from repro.errors import ConfigError
from repro.utils.text import simple_tokenize


@pytest.fixture()
def index():
    return BM25Index([
        ("legal-model", "legal court contract statute model for lawyers"),
        ("medical-model", "medical clinical patient diagnosis model"),
        ("chef-model", "recipe sauce oven cooking model"),
    ])


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
        idx = BM25Index([("spam", "legal " * 50), ("normal", "legal court contract")])
        results = dict(idx.query("legal", k=2))
        # Repetition should not dominate unboundedly (BM25 saturates).
        assert results["spam"] < results["normal"] * 3

    def test_re_add_replaces_old_text(self):
        # A repeated doc id keeps its last text.
        idx = BM25Index([("d", "alpha beta"), ("d", "gamma")])
        assert idx.query("alpha") == []
        assert idx.query("beta") == []
        assert [doc for doc, _ in idx.query("gamma")] == ["d"]
        assert idx._avg_length == 1.0
        assert len(idx) == 1

    def test_re_add_keeps_other_docs_postings(self):
        idx = BM25Index([("a", "alpha beta"), ("b", "alpha"), ("a", "gamma")])
        assert [doc for doc, _ in idx.query("alpha")] == ["b"]
        assert idx._avg_length == 1.0


class _DictBM25:
    """The per-posting dict scorer the frozen table replaced, kept as the
    reference its scores must match bit for bit."""

    def __init__(self, k1=1.5, b=0.75):
        self.k1 = k1
        self.b = b
        self._postings = defaultdict(dict)
        self._doc_lengths = {}
        self._avg_length = 0.0

    def add(self, doc_id, text):
        if doc_id in self._doc_lengths:
            for token in list(self._postings):
                posting = self._postings[token]
                if posting.pop(doc_id, None) is not None and not posting:
                    del self._postings[token]
        tokens = simple_tokenize(text)
        self._doc_lengths[doc_id] = len(tokens)
        counts = defaultdict(int)
        for token in tokens:
            counts[token] += 1
        for token, count in counts.items():
            self._postings[token][doc_id] = count
        self._avg_length = sum(self._doc_lengths.values()) / len(self._doc_lengths)

    def query(self, text, k=10):
        if not self._doc_lengths:
            return []
        num_docs = len(self._doc_lengths)
        scores = defaultdict(float)
        for token in simple_tokenize(text):
            posting = self._postings.get(token)
            if not posting:
                continue
            df = len(posting)
            idf = math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))
            for doc_id, tf in posting.items():
                length_norm = 1.0 - self.b + self.b * (
                    self._doc_lengths[doc_id] / max(self._avg_length, 1e-9)
                )
                scores[doc_id] += idf * tf * (self.k1 + 1) / (tf + self.k1 * length_norm)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


def _reference(pairs, **params):
    reference = _DictBM25(**params)
    for doc_id, text in pairs:
        reference.add(doc_id, text)
    return reference


_words = st.sampled_from(
    ["legal", "court", "model", "text", "the", "a", "zeta", "x9", "Court"]
)
_texts = st.lists(_words, max_size=12).map(" ".join)


@st.composite
def _corpora(draw):
    """(doc_id, text) pairs with repeated ids and duplicated texts."""
    texts = draw(st.lists(_texts, min_size=1, max_size=6))
    ids = st.text(alphabet="abAB1", min_size=1, max_size=3)
    size = draw(st.integers(min_value=0, max_value=14))
    # Drawing texts from a short list repeats them, so exact score ties
    # between different ids are common.
    return [(draw(ids), draw(st.sampled_from(texts))) for _ in range(size)]


class TestFrozenTableEquivalence:
    @given(
        _corpora(),
        st.lists(st.sampled_from(["legal", "court", "model", "the", "unseen"]),
                 max_size=8),
        st.integers(min_value=1, max_value=20),
        st.sampled_from([(1.5, 0.75), (1.2, 0.0), (0.5, 1.0)]),
    )
    @settings(max_examples=300, deadline=None)
    def test_rankings_match_dict_scorer(self, pairs, query_words, k, params):
        k1, b = params
        frozen = BM25Index(pairs, k1=k1, b=b)
        reference = _reference(pairs, k1=k1, b=b)
        assert frozen._avg_length == reference._avg_length
        query = " ".join(query_words)
        n = len(frozen)
        for k_case in (1, k, n, n + 1, n + 7):
            if k_case < 1:
                continue
            assert repr(frozen.query(query, k_case)) == repr(
                reference.query(query, k_case)
            ), (query, k_case)

    def test_exact_ties_order_by_id(self):
        pairs = [("b", "court model"), ("c", "court text"), ("a", "court model")]
        frozen = BM25Index(pairs)
        got = frozen.query("court", k=3)
        assert [doc for doc, _ in got] == ["a", "b", "c"]
        assert got[0][1] == got[1][1] == got[2][1]
        assert repr(got) == repr(_reference(pairs).query("court", k=3))

    def test_card_index_matches_dict_scorer(self, lake_bundle):
        pairs = [(r.model_id, r.card.text()) for r in lake_bundle.lake]
        frozen = build_card_index(lake_bundle.lake)
        reference = _reference(pairs)
        for query in (
            "legal court statute", "medical notes", "model for text",
            "recipe oven", "code compiler tokens", "model model text",
        ):
            got = frozen.query(query, k=len(frozen))
            want = reference.query(query, k=len(frozen))
            assert repr(got) == repr(want)


class TestBuildCardIndex:
    def test_indexes_all_models(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        assert len(index) == len(lake_bundle.lake)

    def test_finds_by_card_domain(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        results = index.query("legal court statute", k=5)
        assert results  # truthful cards mention the legal domain somewhere
