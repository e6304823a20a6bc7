"""Tests for BM25 keyword search."""

import math
import os
import tempfile
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import BM25Index, SearchEngine, build_card_index
from repro.core.search import keyword as keyword_module
from repro.core.search.keyword import TABLE_FILE, corpus_digest
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


def _assert_same_table(got, want):
    """Two indexes hold bit-identical weight tables."""
    assert (got.k1, got.b) == (want.k1, want.b)
    assert got._ids == want._ids
    assert list(got._rows.items()) == list(want._rows.items())  # row order
    assert repr(got._avg_length) == repr(want._avg_length)
    for name in ("_id_rank", "_offsets", "_docs", "_weights"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _round_trip(pairs, k1=1.5, b=0.75):
    """``pairs`` built, saved and loaded back: (built, loaded)."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, TABLE_FILE)
        built = BM25Index.cached(pairs, path, k1=k1, b=b)
        loaded = BM25Index._load(path, corpus_digest(pairs, k1, b),
                                 list(pairs), k1, b)
    assert loaded is not None
    _assert_same_table(loaded, built)
    return built, loaded


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
        built, loaded = _round_trip(pairs, k1, b)
        _assert_same_table(built, frozen)
        reference = _reference(pairs, k1=k1, b=b)
        assert frozen._avg_length == reference._avg_length
        query = " ".join(query_words)
        n = len(frozen)
        for k_case in (1, k, n, n + 1, n + 7):
            if k_case < 1:
                continue
            want = repr(reference.query(query, k_case))
            assert repr(frozen.query(query, k_case)) == want, (query, k_case)
            assert repr(loaded.query(query, k_case)) == want, (query, k_case)

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
        _, loaded = _round_trip(pairs)
        reference = _reference(pairs)
        for query in (
            "legal court statute", "medical notes", "model for text",
            "recipe oven", "code compiler tokens", "model model text",
        ):
            want = repr(reference.query(query, k=len(frozen)))
            assert repr(frozen.query(query, k=len(frozen))) == want
            assert repr(loaded.query(query, k=len(frozen))) == want


class TestBuildCardIndex:
    def test_indexes_all_models(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        assert len(index) == len(lake_bundle.lake)

    def test_finds_by_card_domain(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        results = index.query("legal court statute", k=5)
        assert results  # truthful cards mention the legal domain somewhere


class TestPersistedTable:
    """``BM25Index.cached``: load when the digest matches, else rebuild
    and rewrite ``bm25.npz``."""

    @pytest.fixture()
    def pairs(self, lake_bundle):
        return [(r.model_id, r.card.text()) for r in lake_bundle.lake]

    @pytest.fixture()
    def builds(self, monkeypatch):
        """Counts runs of the BM25 build (the constructor)."""
        calls = []
        build = BM25Index.__init__

        def spy(self, *args, **kwargs):
            calls.append(1)
            build(self, *args, **kwargs)

        monkeypatch.setattr(BM25Index, "__init__", spy)
        return calls

    @staticmethod
    def _stored_digest(path):
        with np.load(path) as archive:
            return archive["digest"].tolist()

    def test_second_open_loads_without_building(self, pairs, tmp_path, builds):
        path = str(tmp_path / TABLE_FILE)
        built = BM25Index.cached(pairs, path)
        assert len(builds) == 1
        loaded = BM25Index.cached(pairs, path)
        assert len(builds) == 1
        _assert_same_table(loaded, built)
        assert self._stored_digest(path) == corpus_digest(pairs, 1.5, 0.75)

    @pytest.mark.parametrize("change", [
        "card_edit", "k1", "b", "added_model", "foreign_file", "npy_file",
        "corrupt_file", "empty_file",
    ])
    def test_any_change_rebuilds_and_rewrites(self, pairs, tmp_path, builds,
                                              change):
        path = str(tmp_path / TABLE_FILE)
        BM25Index.cached(pairs, path)
        params = {"k1": 1.5, "b": 0.75}
        if change == "card_edit":
            doc_id, text = pairs[3]
            pairs = pairs[:3] + [(doc_id, text[:-1] + "#")] + pairs[4:]
        elif change == "k1":
            params["k1"] = 1.2
        elif change == "b":
            params["b"] = 0.5
        elif change == "added_model":
            pairs = pairs + [("new-model", "a legal court model")]
        elif change == "foreign_file":
            np.savez(path, digests=np.array(["aa"]), vectors=np.ones((1, 2)))
        elif change == "npy_file":
            with open(path, "wb") as handle:
                np.save(handle, np.ones(3))
        else:
            with open(path, "r+b") as handle:
                handle.truncate(
                    os.path.getsize(path) // 2 if change == "corrupt_file" else 0
                )
        before = len(builds)
        index = BM25Index.cached(pairs, path, **params)
        assert len(builds) == before + 1
        assert self._stored_digest(path) == corpus_digest(
            pairs, params["k1"], params["b"]
        )
        _assert_same_table(index, BM25Index(pairs, **params))
        # And the rewritten file is a warm hit.
        _assert_same_table(BM25Index.cached(pairs, path, **params), index)
        assert len(builds) == before + 2

    def test_digest_separates_fields(self):
        assert corpus_digest([("ab", "c")], 1.5, 0.75) != corpus_digest(
            [("a", "bc")], 1.5, 0.75
        )
        assert corpus_digest([("a", "b")], 1.5, 0.75) != corpus_digest(
            [("a", "b")], 1.5, 0.7500001
        )

    def test_failed_write_still_serves_built_table(self, lake_bundle, probes,
                                                   tmp_path, monkeypatch):
        def refuse(path, arrays, fsync=True):
            raise OSError(30, "Read-only file system", path)

        monkeypatch.setattr(keyword_module, "atomic_write_npz", refuse)
        cache_dir = tmp_path / "cache"
        engine = SearchEngine(lake_bundle.lake, probes, cache_dir=str(cache_dir))
        assert not (cache_dir / TABLE_FILE).exists()
        fresh = build_card_index(lake_bundle.lake)
        for query in ("legal court statute", "medical notes", "model text"):
            assert repr(engine.keyword_index.query(query, k=50)) == repr(
                fresh.query(query, k=50)
            )

    def test_warm_engine_skips_the_build(self, lake_bundle, probes, tmp_path,
                                         builds):
        cache_dir = str(tmp_path / "cache")
        cold = SearchEngine(lake_bundle.lake, probes, cache_dir=cache_dir)
        assert len(builds) == 1
        warm = SearchEngine(lake_bundle.lake, probes, cache_dir=cache_dir)
        assert len(builds) == 1
        _assert_same_table(warm.keyword_index, cold.keyword_index)
        for method in ("keyword", "hybrid"):
            query = ("legal court statute", 10, method)
            assert repr(warm.search(*query)) == repr(cold.search(*query))

    def test_in_memory_engine_builds(self, lake_bundle, probes, builds):
        SearchEngine(lake_bundle.lake, probes)
        SearchEngine(lake_bundle.lake, probes)
        assert len(builds) == 2
