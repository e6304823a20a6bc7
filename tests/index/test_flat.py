"""Tests for the exact flat index."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.index import FlatIndex
from repro.index.flat import BLOCK_ROWS


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


def _one_pass(vectors):
    """The whole-matrix normalization the blockwise one must equal."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    norms[norms < 1e-12] = 1.0
    return vectors / norms


class TestInPlaceBuild:
    """``build`` normalizes a copy in place, block by block; ``adopt``
    normalizes the caller's matrix itself."""

    @given(
        st.sampled_from([1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                         2 * BLOCK_ROWS + 1]),
        st.integers(min_value=1, max_value=70),
        st.sets(st.integers(min_value=0, max_value=2 * BLOCK_ROWS), max_size=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_blockwise_equals_one_pass_bitwise(self, rows, width, zeros, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.standard_normal((rows, width)) * rng.choice(
            [1e-200, 1e-3, 1.0, 1e150], size=(rows, 1)
        )
        # Zero-norm rows, wherever they fall against the block edges.
        vectors[[row for row in zeros if row < rows]] = 0.0
        vectors[rows // 2] *= 1e-13  # below the zero-norm threshold
        index = FlatIndex()
        index.build([f"m{i}" for i in range(rows)], vectors)
        assert index._view[1].tobytes() == _one_pass(vectors).tobytes()

    def test_build_leaves_the_callers_vectors_alone(self, built):
        _, ids, vectors = built
        before = vectors.copy()
        FlatIndex().build(ids, vectors)
        assert vectors.tobytes() == before.tobytes()

    def test_adopt_normalizes_the_matrix_it_is_handed(self, built):
        index, ids, vectors = built
        matrix = vectors.copy()
        adopted = FlatIndex()
        adopted.adopt(ids, matrix)
        assert adopted._view[1] is matrix
        assert matrix.tobytes() == index._view[1].tobytes()
        for row in (0, 7, 49):
            assert adopted.query(vectors[row], k=5) == index.query(vectors[row], k=5)

    def test_adopt_rejects_a_length_mismatch(self):
        with pytest.raises(IndexError_):
            FlatIndex().adopt(["a"], np.ones((2, 3)))
