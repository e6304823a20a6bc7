"""Property-based tests for the text/tokenizer/search substrate."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search.keyword import BM25Index
from repro.data.tokenizer import Tokenizer
from repro.data.vocab import Vocabulary
from repro.interp.watermark import WatermarkConfig, detect_watermark

words = st.text(alphabet="abcdefgh", min_size=1, max_size=6)


class TestVocabularyProperties:
    @given(st.lists(words, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip(self, tokens):
        vocab = Vocabulary(tokens)
        tokenizer = Tokenizer(vocab)
        ids = tokenizer.encode(tokens)
        assert tokenizer.decode(ids) == tokens

    @given(st.lists(words, min_size=1, max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_ids_unique_and_stable(self, tokens):
        vocab = Vocabulary(tokens)
        ids = [vocab.id_of(t) for t in set(tokens)]
        assert len(set(ids)) == len(ids)

    @given(st.lists(words, min_size=1, max_size=10), words)
    @settings(max_examples=60, deadline=None)
    def test_unknown_token_maps_to_unk(self, tokens, probe):
        vocab = Vocabulary(tokens)
        if probe not in tokens:
            assert vocab.id_of(probe) == vocab.unk_id


class TestPadBatchProperties:
    @given(
        st.lists(st.lists(st.integers(4, 50), max_size=12), min_size=1, max_size=8),
        st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_shape_and_content(self, id_lists, max_length):
        tokenizer = Tokenizer(Vocabulary(["a"]))
        batch = tokenizer.pad_batch(id_lists, max_length)
        assert batch.shape == (len(id_lists), max_length)
        for row, ids in zip(batch, id_lists):
            clipped = ids[:max_length]
            assert row[: len(clipped)].tolist() == clipped
            assert all(v == 0 for v in row[len(clipped):])


class TestBM25Properties:
    @given(st.lists(st.lists(words, min_size=1, max_size=8), min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_scores_positive_and_query_subset(self, documents):
        index = BM25Index((f"d{i}", " ".join(doc)) for i, doc in enumerate(documents))
        results = index.query(" ".join(documents[0]), k=10)
        assert results  # the document itself must match its own words
        assert all(score > 0 for _, score in results)

    @given(st.lists(words, min_size=1, max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_self_retrieval(self, doc):
        index = BM25Index([("target", " ".join(doc)), ("noise", "zzz yyy xxx www")])
        results = index.query(" ".join(doc), k=2)
        assert results[0][0] == "target"


class TestWatermarkProperties:
    @given(
        st.lists(st.integers(0, 59), min_size=2, max_size=60),
        st.integers(0, 1000),
    )
    @settings(max_examples=50, deadline=None)
    def test_green_fraction_bounds(self, tokens, key):
        config = WatermarkConfig(gamma=0.5, delta=2.0, key=key)
        result = detect_watermark(tokens, 60, config=config)
        assert 0.0 <= result.green_fraction <= 1.0
        assert result.num_scored == len(tokens) - 1

    @given(st.lists(st.integers(0, 59), min_size=2, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_detection_deterministic(self, tokens):
        config = WatermarkConfig(key=7)
        a = detect_watermark(tokens, 60, config=config)
        b = detect_watermark(tokens, 60, config=config)
        assert a.z_score == b.z_score
