"""Tests for SearchEngine.search_batch: parity, dedup, thread determinism."""

import threading

import pytest

from repro.core.search import SearchEngine
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def engine(lake_bundle, probes):
    return SearchEngine(lake_bundle.lake, probes)


def _flatten(hits):
    return [(h.model_id, float(h.score), h.method) for h in hits]


class TestBatchParity:
    TRIPLES = [
        ("legal court statute", 5, "hybrid"),
        ("medical diagnosis notes", 3, "behavioral"),
        ("code compiler tokens", 4, "keyword"),
        ("legal court statute", 5, "hybrid"),  # duplicate of the first
        ("news report headline", 2, "hybrid"),
        ("zzz qqq xyzzy", 3, "behavioral"),  # no recognizable domain
    ]

    def test_batch_matches_sequential(self, engine):
        batched = engine.search_batch(self.TRIPLES)
        assert len(batched) == len(self.TRIPLES)
        for (query, k, method), hits in zip(self.TRIPLES, batched):
            expected = engine.search(query, k=k, method=method)
            assert _flatten(hits) == _flatten(expected), (query, method)

    def test_duplicates_get_identical_results(self, engine):
        batched = engine.search_batch(self.TRIPLES)
        assert _flatten(batched[0]) == _flatten(batched[3])

    def test_empty_batch(self, engine):
        assert engine.search_batch([]) == []

    def test_single_item_batch(self, engine):
        query = "legal court statute"
        [hits] = engine.search_batch([(query, 5, "hybrid")])
        assert _flatten(hits) == _flatten(engine.search(query, k=5))

    def test_unknown_method_rejected(self, engine):
        with pytest.raises(ConfigError):
            engine.search_batch([("legal", 3, "psychic")])

    def test_weight_method_rejected(self, engine):
        with pytest.raises(ConfigError):
            engine.search_batch([("legal", 3, "weight")])


class TestBatchDeterminism:
    def test_threaded_batches_are_byte_identical(self, engine):
        """N threads running the same batch concurrently must all rank
        exactly as a sequential run does."""
        triples = TestBatchParity.TRIPLES
        expected = [_flatten(hits) for hits in engine.search_batch(triples)]
        observed = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait()
            for _ in range(3):
                got = [_flatten(hits) for hits in engine.search_batch(triples)]
                with lock:
                    observed.append(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert len(observed) == 24
        for got in observed:
            assert got == expected

    def test_threaded_singles_match_sequential(self, engine):
        """Concurrent plain search() calls stay deterministic too."""
        query = "legal court statute"
        expected = _flatten(engine.search(query, k=5))
        results = []
        lock = threading.Lock()

        def worker() -> None:
            got = _flatten(engine.search(query, k=5))
            with lock:
                results.append(got)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert all(got == expected for got in results)
