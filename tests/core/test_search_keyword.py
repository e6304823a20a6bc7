"""Tests for BM25 keyword search."""

import dataclasses
import hashlib
import math
import os
import shutil
import tempfile
from collections import defaultdict
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import BM25Index, SearchEngine, build_card_index
from repro.core.search import keyword as keyword_module
from repro.core.search.keyword import TABLE_FILE, corpus_digest
from repro.lake.table import column_digest, pack_strings
from repro.reliability.atomic import atomic_write_npz
from repro.errors import ConfigError
from repro.lake import load_lake, save_lake
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
    # Row order: the vocabulary array, sorted, one token per row.
    assert got._vocab.dtype == want._vocab.dtype
    assert got._vocab.tobytes() == want._vocab.tobytes()
    assert repr(got._avg_length) == repr(want._avg_length)
    for name in ("_id_rank", "_offsets", "_docs", "_tf", "_idf",
                 "_length_norm"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


def _posting_weights(index):
    """Every posting's BM25 weight, row by row: the float64 ``weights``
    member of the table files before version 4."""
    rows = np.repeat(np.arange(len(index._vocab)), np.diff(index._offsets))
    tf = index._tf.astype(np.float64)
    weights = index._idf[rows] * tf
    weights *= index.k1 + 1
    denominator = index._length_norm[index._docs] * index.k1
    denominator += tf
    weights /= denominator
    return weights


def _digest(pairs, k1=1.5, b=0.75):
    """The digest naming ``BM25Index(pairs, k1, b)``'s table."""
    texts = dict(pairs)
    return corpus_digest(column_digest(pack_strings(texts)),
                         column_digest(pack_strings(texts.values())),
                         len(texts), k1, b)


def _cached(pairs, path, k1=1.5, b=0.75):
    """``BM25Index.cached`` over ``pairs``: a repeated id keeps its last
    text, as a build from ``pairs`` does."""
    texts = dict(pairs)
    return BM25Index.cached(list(texts), _digest(pairs, k1, b), texts.values,
                            path, k1, b)


def _v1_digest(pairs, k1=1.5, b=0.75):
    """The digest a version-1 ``bm25.npz`` was saved under: lengths and
    joined text of every field, no packed columns."""
    fields = list(chain.from_iterable(pairs))
    digest = hashlib.sha256(
        f"bm25 v1 k1={k1!r} b={b!r} n={len(pairs)}\n".encode()
    )
    digest.update(np.array([len(f) for f in fields], dtype=np.int64).tobytes())
    digest.update("".join(fields).encode("utf-8", "surrogatepass"))
    return digest.hexdigest()


def _v2_digest(pairs, k1=1.5, b=0.75):
    """The digest a version-2 ``bm25.npz`` was saved under: the packed id
    and text columns themselves, offsets then blob."""
    texts = dict(pairs)
    digest = hashlib.sha256(
        f"bm25 v2 k1={k1!r} b={b!r} n={len(texts)}\n".encode()
    )
    for blob, offsets in (pack_strings(texts), pack_strings(texts.values())):
        digest.update(np.asarray(offsets, dtype="<i8").tobytes())
        digest.update(blob.tobytes())
    return digest.hexdigest()


def _v3_digest(pairs, k1=1.5, b=0.75):
    """The digest a version-3 ``bm25.npz`` was saved under: the version-4
    formula with the version-3 stamp."""
    texts = dict(pairs)
    return hashlib.sha256(
        f"bm25 v3 k1={k1!r} b={b!r} n={len(texts)} "
        f"ids={column_digest(pack_strings(texts))} "
        f"texts={column_digest(pack_strings(texts.values()))}\n".encode()
    ).hexdigest()


def _round_trip(pairs, k1=1.5, b=0.75):
    """``pairs`` built, saved and loaded back: (built, loaded)."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, TABLE_FILE)
        built = _cached(pairs, path, k1=k1, b=b)
        loaded = BM25Index._load(path, _digest(pairs, k1, b),
                                 list(dict(pairs)), k1, b)
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


class TestVocabularyArray:
    """The sorted ``S<w>`` vocabulary: one ``searchsorted`` per query."""

    def _assert_matches_reference(self, pairs, queries):
        frozen = BM25Index(pairs)
        _, loaded = _round_trip(pairs)
        reference = _reference(pairs)
        for query in queries:
            for k in (1, 3, len(frozen) + 1):
                want = repr(reference.query(query, k))
                assert repr(frozen.query(query, k)) == want, query
                assert repr(loaded.query(query, k)) == want, query

    def test_vocabulary_is_sorted_bytes(self):
        index = BM25Index([("a", "zeta legal court"), ("b", "x9 court")])
        assert index._vocab.tolist() == [b"court", b"legal", b"x9", b"zeta"]
        assert index._vocab.dtype == np.dtype("S5")

    def test_non_ascii_text(self):
        pairs = [
            ("a", "café naïve résumé court"),
            ("b", "straße ǅungla court Ｋelvin"),
            ("c", "日本語 model müller"),
        ]
        self._assert_matches_reference(pairs, [
            "café", "naïve court", "stra ße", "müller model", "日本語 m",
            "ǅungla", "Ｋelvin elvin",
        ])

    def test_token_longer_than_the_width_misses(self):
        pairs = [("a", "legal court"), ("b", "court model")]
        index = BM25Index(pairs)
        assert index._vocab.dtype.itemsize == 5
        # Cast to S5, "legalese" would read "legal".
        assert index._rows_of(["legalese", "courts", "modelled"]) == []
        assert index.query("legalese courts") == []
        self._assert_matches_reference(pairs, [
            "legalese", "legalese legal", "courtship court",
        ])

    def test_tokens_before_and_after_every_entry(self):
        pairs = [("a", "legal court"), ("b", "court model")]
        index = BM25Index(pairs)
        assert index._rows_of(["0", "_", "aaa", "zzz", "zzzzz"]) == []
        self._assert_matches_reference(pairs, [
            "0 court", "aaa", "zzz legal", "_ model zzzzz", "a",
        ])

    def test_repeated_query_tokens_sum_in_query_order(self):
        pairs = [("a", "legal court court"), ("b", "court model legal"),
                 ("c", "model")]
        index = BM25Index(pairs)
        court, legal = index._rows_of(["court", "legal"])
        assert index._rows_of(["court", "zzz", "legal", "court"]) == [
            court, legal, court
        ]
        self._assert_matches_reference(pairs, [
            "court court legal court", "model model", "legal court legal",
        ])

    def test_empty_vocabulary(self):
        index = BM25Index([("a", "!!"), ("b", "")])
        assert len(index._vocab) == 0
        assert index.query("anything at all") == []


class TestNarrowPostings:
    """Doc positions and term frequencies in the narrowest unsigned
    dtypes that hold them, at each dtype's edge."""

    @staticmethod
    def _assert_matches_reference(pairs, queries, ks=(1, 5)):
        index = BM25Index(pairs)
        _, loaded = _round_trip(pairs)
        reference = _reference(pairs)
        for query in queries:
            for k in ks:
                want = repr(reference.query(query, k))
                assert repr(index.query(query, k)) == want, (query, k)
                assert repr(loaded.query(query, k)) == want, (query, k)
        return index

    @pytest.mark.parametrize("num_docs, dtype", [
        (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.uint32),
    ])
    def test_doc_positions(self, num_docs, dtype):
        # "last" is only in the last doc, at position num_docs - 1.
        pairs = [(f"d{i:06d}", f"common w{i % 5}") for i in range(num_docs - 1)]
        pairs.append((f"d{num_docs - 1:06d}", "common w2 last last"))
        if num_docs < 1000:  # the dict scorer is quadratic in its adds
            index = self._assert_matches_reference(
                pairs, ["last", "w2 last", "common last w4"]
            )
        else:
            index = BM25Index(pairs)
            _, loaded = _round_trip(pairs)
            # The scalar formula for the one doc holding "last" (tf 2,
            # 4 tokens; every other doc has 2).
            k1, b, df, tf = 1.5, 0.75, 1, 2
            idf = math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))
            avg_length = (2 * (num_docs - 1) + 4) / num_docs
            length_norm = 1.0 - b + b * (4 / max(avg_length, 1e-9))
            want = [(pairs[-1][0], idf * tf * (k1 + 1) / (tf + k1 * length_norm))]
            assert repr(index.query("last", 3)) == repr(want)
            assert repr(loaded.query("last", 3)) == repr(want)
            for query in ("w2 last", "common last w4"):
                assert repr(loaded.query(query, 5)) == repr(index.query(query, 5))
        assert index._docs.dtype == dtype
        assert int(index._docs.max()) == num_docs - 1
        assert index.query("last", 3)[0][0] == f"d{num_docs - 1:06d}"

    @pytest.mark.parametrize("repeats, dtype", [(255, np.uint8),
                                                (256, np.uint16)])
    def test_term_frequencies(self, repeats, dtype):
        pairs = [("spam", "legal " * repeats + "court"),
                 ("plain", "legal court"), ("other", "model court")]
        index = self._assert_matches_reference(
            pairs, ["legal", "court legal", "legal legal model"], ks=(1, 3)
        )
        assert index._tf.dtype == dtype
        assert int(index._tf.max()) == repeats

    def test_table_holds_three_bytes_per_posting(self, lake_bundle):
        index = build_card_index(lake_bundle.lake)
        postings = len(index._docs)
        assert index._docs.nbytes + index._tf.nbytes <= 3 * postings
        assert len(index._tf) == postings
        assert index._idf.shape == (len(index._vocab),)
        assert index._length_norm.shape == (len(index),)
        assert not hasattr(index, "_weights")
        # The `search` bench's bound holds, and a float64 weight per
        # posting (the version-3 layout) breaks it.
        held, bound = index.table_bytes()
        assert held <= bound
        index._weights = np.zeros(postings)
        assert index.table_bytes()[0] > bound


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
        built = _cached(pairs, path)
        assert len(builds) == 1
        loaded = _cached(pairs, path)
        assert len(builds) == 1
        _assert_same_table(loaded, built)
        assert self._stored_digest(path) == _digest(pairs)

    @pytest.mark.parametrize("change", [
        "card_edit", "k1", "b", "added_model", "foreign_file", "npy_file",
        "corrupt_file", "empty_file",
    ])
    def test_any_change_rebuilds_and_rewrites(self, pairs, tmp_path, builds,
                                              change):
        path = str(tmp_path / TABLE_FILE)
        _cached(pairs, path)
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
        index = _cached(pairs, path, **params)
        assert len(builds) == before + 1
        assert self._stored_digest(path) == _digest(
            pairs, params["k1"], params["b"]
        )
        _assert_same_table(index, BM25Index(pairs, **params))
        # And the rewritten file is a warm hit.
        _assert_same_table(_cached(pairs, path, **params), index)
        assert len(builds) == before + 2

    def test_digest_separates_fields(self):
        assert _digest([("ab", "c")]) != _digest([("a", "bc")])
        assert _digest([("a", "b")]) != _digest([("a", "b")], 1.5, 0.7500001)
        # Boundaries between docs, within each column, count too.
        assert _digest([("a", "bc"), ("d", "e")]) != _digest(
            [("a", "b"), ("d", "ce")]
        )
        assert _digest([("ab", "c"), ("d", "e")]) != _digest(
            [("a", "c"), ("bd", "e")]
        )

    def test_lake_layouts_share_one_digest_and_one_file(
        self, lake_bundle, tmp_path, builds
    ):
        in_memory = lake_bundle.lake
        directory = str(tmp_path / "lake")
        save_lake(in_memory, directory, sharded=True)
        shutil.rmtree(os.path.join(directory, "cache"), ignore_errors=True)
        from_manifest = load_lake(directory, materialize=False)  # writes the table
        from_table = load_lake(directory, materialize=False)
        assert from_manifest._current_table() is None
        assert from_table._current_table() is not None
        lakes = (in_memory, from_manifest, from_table)
        digests = {
            corpus_digest(lake.column_digest("ids"),
                          lake.column_digest("texts"), len(lake), 1.5, 0.75)
            for lake in lakes
        }
        assert digests == {_digest(list(zip(in_memory.model_ids(),
                                            in_memory.card_texts())))}
        cache_dir = str(tmp_path)
        indexes = [build_card_index(lake, cache_dir) for lake in lakes]
        assert len(builds) == 1  # the later two load the first one's file
        for index in indexes[1:]:
            _assert_same_table(index, indexes[0])

    def test_card_edit_on_a_lake_is_a_miss(self, mutable_lake_bundle, tmp_path,
                                           builds):
        lake = mutable_lake_bundle.lake
        cache_dir = str(tmp_path)
        build_card_index(lake, cache_dir)
        model_id = lake.model_ids()[2]
        card = lake.get_record(model_id).card
        lake.update_card(model_id, dataclasses.replace(
            card, description=(card.description or "") + " zebra"
        ))
        index = build_card_index(lake, cache_dir)
        assert len(builds) == 2
        assert [doc for doc, _ in index.query("zebra", k=3)] == [model_id]
        build_card_index(lake, cache_dir)
        assert len(builds) == 2

    def test_version_1_file_is_a_miss_and_rewritten(self, pairs, tmp_path,
                                                    builds):
        path = str(tmp_path / TABLE_FILE)
        BM25Index(pairs)._save(path, _v1_digest(pairs))
        assert len(builds) == 1
        index = _cached(pairs, path)
        assert len(builds) == 2
        assert self._stored_digest(path) == _digest(pairs)
        _assert_same_table(_cached(pairs, path), index)
        assert len(builds) == 2

    def test_version_2_file_is_a_miss_and_rewritten(self, pairs, tmp_path,
                                                    builds):
        path = str(tmp_path / TABLE_FILE)
        built = BM25Index(pairs)
        assert len(builds) == 1
        # The version-2 layout: a str vocabulary in first-seen row order.
        first_seen = list(dict.fromkeys(
            chain.from_iterable(simple_tokenize(text) for _, text in pairs)
        ))
        atomic_write_npz(path, {
            "digest": np.array(_v2_digest(pairs)),
            "vocab": np.array(first_seen, dtype=str),
            "offsets": built._offsets,
            "docs": built._docs.astype(np.int32),
            "weights": _posting_weights(built),
            "avg_length": np.array(built._avg_length),
        })
        index = _cached(pairs, path)
        assert len(builds) == 2
        assert self._stored_digest(path) == _digest(pairs)
        _assert_same_table(index, built)
        with np.load(path) as archive:
            assert archive["vocab"].dtype.kind == "S"
        _assert_same_table(_cached(pairs, path), index)
        assert len(builds) == 2

    def test_version_3_file_is_a_miss_and_rewritten(self, pairs, tmp_path,
                                                    builds):
        path = str(tmp_path / TABLE_FILE)
        built = BM25Index(pairs)
        assert len(builds) == 1
        # The version-3 layout: int32 doc positions and float64 weights.
        atomic_write_npz(path, {
            "digest": np.array(_v3_digest(pairs)),
            "vocab": built._vocab,
            "offsets": built._offsets,
            "docs": built._docs.astype(np.int32),
            "weights": _posting_weights(built),
            "avg_length": np.array(built._avg_length),
        })
        index = _cached(pairs, path)
        assert len(builds) == 2
        assert self._stored_digest(path) == _digest(pairs)
        _assert_same_table(index, built)
        with np.load(path) as archive:
            assert "weights" not in archive.files
            assert archive["tf"].dtype == built._tf.dtype
        _assert_same_table(_cached(pairs, path), index)
        assert len(builds) == 2

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
