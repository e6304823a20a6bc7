"""Tests for the exact flat index."""

import sys

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.index import FlatIndex


@pytest.fixture()
def built():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(50, 8))
    ids = [f"m{i}" for i in range(50)]
    index = FlatIndex()
    index.build(ids, vectors)
    return index, ids, vectors


class TestFlatIndex:
    def test_self_query_top1(self, built):
        index, ids, vectors = built
        for i in (0, 10, 49):
            results = index.query(vectors[i], k=1)
            assert results[0][0] == ids[i]
            assert abs(results[0][1] - 1.0) < 1e-9

    def test_scores_descending(self, built):
        index, _, vectors = built
        results = index.query(vectors[0], k=10)
        scores = [s for _, s in results]
        assert scores == sorted(scores, reverse=True)

    def test_k_larger_than_index(self, built):
        index, _, vectors = built
        assert len(index.query(vectors[0], k=500)) == 50

    def test_empty_index(self):
        assert FlatIndex().query(np.ones(4)) == []

    def test_build_length_mismatch(self):
        with pytest.raises(IndexError_):
            FlatIndex().build(["a"], np.ones((2, 3)))

    def test_vector_of(self, built):
        index, ids, vectors = built
        stored = index.vector_of(ids[3])
        expected = vectors[3] / np.linalg.norm(vectors[3])
        assert np.allclose(stored, expected)

    def test_vector_of_unknown(self, built):
        index, _, _ = built
        with pytest.raises(IndexError_):
            index.vector_of("nope")


class TestFlatIndexConsistency:
    """Batch/single parity, concurrent readers, and empty inputs."""

    def test_query_batch_matches_query_loop(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 8))
        index = FlatIndex()
        index.build([f"m{i}" for i in range(40)], vectors)
        queries = rng.normal(size=(6, 8))
        batched = index.query_batch(queries, k=7)
        for row, expected in zip(queries, batched):
            assert index.query(row, k=7) == expected

    def test_concurrent_readers_match_a_sequential_run(self):
        """Queries read the built view with no lock: eight threads
        querying one index at once all get the sequential results."""
        import threading

        rng = np.random.default_rng(6)
        index = FlatIndex()
        index.build([f"m{i}" for i in range(200)], rng.normal(size=(200, 8)))
        queries = rng.normal(size=(5, 8))
        expected = index.query_batch(queries, k=10)
        observed = []
        lock = threading.Lock()
        barrier = threading.Barrier(8)

        def reader() -> None:
            barrier.wait()
            for _ in range(20):
                got = index.query_batch(queries, k=10)
                with lock:
                    observed.append(got)

        threads = [threading.Thread(target=reader) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(observed) == 8 * 20
        assert all(got == expected for got in observed)

    def test_query_batch_of_zero_rows(self, built):
        index, _, _ = built
        assert index.query_batch(np.empty((0, 8)), k=5) == []

    def test_query_batch_against_empty_index(self):
        assert FlatIndex().query_batch(np.ones((3, 4)), k=5) == [[], [], []]
        assert FlatIndex().query_batch(np.empty((0, 4)), k=5) == []
