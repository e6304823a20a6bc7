"""Tests for the exact flat index."""

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

    def test_incremental_add_matches_build(self):
        rng = np.random.default_rng(1)
        vectors = rng.normal(size=(10, 4))
        ids = [f"v{i}" for i in range(10)]
        a = FlatIndex()
        a.build(ids, vectors)
        b = FlatIndex()
        for item_id, vec in zip(ids, vectors):
            b.add(item_id, vec)
        q = rng.normal(size=4)
        result_a, result_b = a.query(q, k=5), b.query(q, k=5)
        assert [i for i, _ in result_a] == [i for i, _ in result_b]
        assert np.allclose([s for _, s in result_a], [s for _, s in result_b])

    def test_dim_mismatch(self, built):
        index, _, _ = built
        with pytest.raises(IndexError_):
            index.add("bad", np.ones(3))

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


class TestBufferedAdds:
    """The add path buffers rows; every read must see buffered state."""

    def test_len_counts_pending(self):
        index = FlatIndex()
        index.add("a", np.ones(4))
        index.add("b", np.ones(4))
        assert len(index) == 2

    def test_vector_of_pending_row(self):
        index = FlatIndex()
        vec = np.array([3.0, 4.0, 0.0])
        index.add("a", vec)
        assert np.allclose(index.vector_of("a"), vec / 5.0)

    def test_query_between_adds(self):
        rng = np.random.default_rng(2)
        vectors = rng.normal(size=(6, 5))
        index = FlatIndex()
        for i in range(3):
            index.add(f"v{i}", vectors[i])
        first = index.query(vectors[0], k=1)
        assert first[0][0] == "v0"
        for i in range(3, 6):
            index.add(f"v{i}", vectors[i])
        assert index.query(vectors[5], k=1)[0][0] == "v5"
        assert len(index.query(vectors[0], k=10)) == 6

    def test_dim_mismatch_against_pending(self):
        index = FlatIndex()
        index.add("a", np.ones(4))
        with pytest.raises(IndexError_):
            index.add("b", np.ones(3))

    def test_duplicate_id_keeps_first_vector(self):
        index = FlatIndex()
        index.add("x", np.array([1.0, 0.0]))
        index.add("x", np.array([0.0, 1.0]))
        assert np.allclose(index.vector_of("x"), [1.0, 0.0])

    def test_build_resets_previous_adds(self):
        index = FlatIndex()
        index.add("old", np.ones(2))
        index.build(["new"], np.array([[0.0, 1.0]]))
        assert len(index) == 1
        with pytest.raises(IndexError_):
            index.vector_of("old")
        assert np.allclose(index.vector_of("new"), [0.0, 1.0])


class TestFlatIndexConsistency:
    """Buffered adds, concurrent access, and cross-process pickling."""

    def test_search_sees_adds_before_flush(self):
        rng = np.random.default_rng(3)
        index = FlatIndex()
        index.build(["a", "b"], rng.normal(size=(2, 8)))
        late = rng.normal(size=8)
        index.add("late", late)
        # No explicit seal: the query itself must flush the buffer.
        results = index.query(late, k=3)
        assert results[0][0] == "late"
        assert len(index.query(late, k=10)) == 3

    def test_seal_is_idempotent(self):
        rng = np.random.default_rng(4)
        index = FlatIndex()
        index.add("a", rng.normal(size=4))
        index.seal()
        index.seal()
        assert len(index.query(np.ones(4), k=5)) == 1

    def test_query_batch_matches_query_loop(self):
        rng = np.random.default_rng(5)
        vectors = rng.normal(size=(40, 8))
        index = FlatIndex()
        index.build([f"m{i}" for i in range(40)], vectors)
        queries = rng.normal(size=(6, 8))
        batched = index.query_batch(queries, k=7)
        for row, expected in zip(queries, batched):
            assert index.query(row, k=7) == expected

    def test_concurrent_add_and_query_never_corrupts(self):
        """Readers racing writers see consistent views, and every add
        lands exactly once (the old double-materialize duplicated rows)."""
        import threading

        rng = np.random.default_rng(6)
        index = FlatIndex()
        index.build(["seed"], rng.normal(size=(1, 8)))
        probe = rng.normal(size=8)
        errors = []
        barrier = threading.Barrier(8)

        def writer(wid: int) -> None:
            barrier.wait()
            for i in range(25):
                index.add(f"w{wid}-{i}", rng.normal(size=8))

        def reader() -> None:
            barrier.wait()
            for _ in range(50):
                results = index.query(probe, k=10)
                ids = [item_id for item_id, _ in results]
                if len(ids) != len(set(ids)):
                    errors.append(f"duplicate ids in one view: {ids}")

        threads = [
            # Racing the index lock is the point of this test.
            *(threading.Thread(target=writer, args=(wid,)) for wid in range(4)),  # repro: noqa[shared-state-race]
            *(threading.Thread(target=reader) for _ in range(4)),  # repro: noqa[shared-state-race]
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(index) == 1 + 4 * 25
        assert len(index.query(probe, k=1000)) == 1 + 4 * 25
