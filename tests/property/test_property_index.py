"""Property-based tests for nearest-neighbor indexes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index import FlatIndex, HNSWIndex, l2_normalize


def vectors_strategy(n_min=2, n_max=20, dim=6):
    return st.lists(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False, width=32),
            min_size=dim, max_size=dim,
        ),
        min_size=n_min, max_size=n_max,
    )


class TestFlatIndexProperties:
    @given(vectors_strategy())
    @settings(max_examples=40, deadline=None)
    def test_self_query_returns_self_or_duplicate(self, rows):
        vectors = np.array(rows)
        # Skip degenerate all-zero rows (cosine undefined).
        if np.any(np.linalg.norm(vectors, axis=1) < 1e-9):
            return
        index = FlatIndex()
        ids = [f"v{i}" for i in range(len(vectors))]
        index.build(ids, vectors)
        top_id, top_score = index.query(vectors[0], k=1)[0]
        # The top hit must score at least as high as the query itself.
        assert top_score >= 1.0 - 1e-9

    @given(vectors_strategy(), st.integers(min_value=1, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_result_count_bounded(self, rows, k):
        vectors = np.array(rows)
        index = FlatIndex()
        index.build([f"v{i}" for i in range(len(vectors))], vectors)
        results = index.query(vectors[0], k=k)
        assert len(results) == min(k, len(vectors))

    @given(vectors_strategy())
    @settings(max_examples=40, deadline=None)
    def test_scores_monotone(self, rows):
        vectors = np.array(rows)
        index = FlatIndex()
        index.build([f"v{i}" for i in range(len(vectors))], vectors)
        results = index.query(vectors[0], k=len(vectors))
        scores = [s for _, s in results]
        assert all(a >= b - 1e-12 for a, b in zip(scores, scores[1:]))


@st.composite
def tied_index_strategy(draw):
    """Rows with forced exact duplicates under shuffled ids.

    A few distinct base vectors are each repeated, so whole groups of
    rows score identically against any query; ids are a random
    permutation, so id order is unrelated to row order.
    """
    dim = 4
    bases = draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        .filter(any),
        min_size=1, max_size=4,
    ))
    counts = draw(st.lists(
        st.integers(1, 5), min_size=len(bases), max_size=len(bases)
    ))
    rows = [base for base, count in zip(bases, counts) for _ in range(count)]
    order = draw(st.permutations(range(len(rows))))
    vectors = np.array([rows[i] for i in order], dtype=np.float64)
    ids = draw(st.permutations([f"m{i:02d}" for i in range(len(rows))]))
    queries = np.array(draw(st.lists(
        st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
        .filter(any),
        min_size=1, max_size=3,
    )), dtype=np.float64)
    k = draw(st.integers(1, len(rows) + 2))
    return list(ids), vectors, queries, k


class TestFlatIndexTies:
    """Exact ties rank by id, in ``query`` and ``query_batch`` alike."""

    @given(tied_index_strategy())
    @settings(max_examples=60, deadline=None)
    def test_query_and_batch_match_brute_force_reference(self, case):
        ids, vectors, queries, k = case
        index = FlatIndex()
        index.build(ids, vectors)
        normalized = vectors / np.linalg.norm(vectors, axis=1, keepdims=True)
        references = []
        for query in queries:
            scores = normalized @ l2_normalize(query)
            references.append(sorted(
                zip(ids, scores.tolist()), key=lambda hit: (-hit[1], hit[0])
            )[:k])
        assert [index.query(query, k=k) for query in queries] == references
        assert index.query_batch(queries, k=k) == references

    @given(tied_index_strategy())
    @settings(max_examples=40, deadline=None)
    def test_every_k_cuts_the_full_ranking(self, case):
        """Each k, below, inside and above every tie group, returns a
        prefix of the full ranking; a cut inside a group keeps the
        group's smallest ids."""
        ids, vectors, queries, _ = case
        index = FlatIndex()
        index.build(ids, vectors)
        query = queries[0]
        full = index.query(query, k=len(ids))
        top_group = [item_id for item_id, score in full if score == full[0][1]]
        assert top_group == sorted(top_group)
        for k in range(1, len(ids) + 1):
            assert index.query(query, k=k) == full[:k]
            assert index.query_batch(query[None, :], k=k) == [full[:k]]


class TestHNSWProperties:
    @given(vectors_strategy(n_min=3, n_max=15), st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_all_elements_reachable(self, rows, seed):
        """Every inserted element is returned by a wide-enough search."""
        vectors = np.array(rows)
        if np.any(np.linalg.norm(vectors, axis=1) < 1e-9):
            return
        index = HNSWIndex(m=4, ef_construction=16, seed=seed)
        ids = [f"v{i}" for i in range(len(vectors))]
        index.build(ids, vectors)
        results = index.query(vectors[0], k=len(vectors), ef=4 * len(vectors))
        assert {i for i, _ in results} == set(ids)

    @given(vectors_strategy(n_min=3, n_max=12))
    @settings(max_examples=25, deadline=None)
    def test_results_subset_of_inserted(self, rows):
        vectors = np.array(rows)
        index = HNSWIndex(m=4, ef_construction=16, seed=0)
        ids = [f"v{i}" for i in range(len(vectors))]
        index.build(ids, vectors)
        results = index.query(np.ones(vectors.shape[1]), k=5)
        assert {i for i, _ in results} <= set(ids)
