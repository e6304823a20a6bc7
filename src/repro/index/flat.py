"""Exact (brute-force) nearest-neighbor index — the recall-1.0 baseline.

A build normalizes its matrix in place, :data:`BLOCK_ROWS` rows at a
time, so the index's own matrix is the only full-size array it leaves
or makes: :meth:`FlatIndex.build` copies the caller's vectors once into
it, and :meth:`FlatIndex.adopt` takes over a matrix its caller has just
made (the embedding cache's gather) without a copy.  Each row's norm is
reduced on its own and ``/=`` rounds as ``/`` does, so the result is
bit-identical to normalizing the whole matrix in one pass.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.embedders import l2_normalize

#: Rows per block of the in-place normalization, and of the embedding
#: cache's streamed reads: a block's temporaries are all a full-size
#: pass would add to the matrix itself.
BLOCK_ROWS = 1024


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each row's position in id order (a stable sort, so repeated ids
    keep row order) — the integer tie-break key of the ranking.

    A column that carries its own ``rank`` (a lake's
    :class:`~repro.lake.table.IdColumn`) hands that over, unsorted and
    uncopied; any other sequence is sorted here.
    """
    rank = getattr(ids, "rank", None)
    if rank is not None:
        return rank
    order = sorted(range(len(ids)), key=ids.__getitem__)
    rank = np.empty(len(ids), dtype=np.int64)
    rank[order] = np.arange(len(ids), dtype=np.int64)
    return rank


def top_k(scores: np.ndarray, id_rank: np.ndarray, k: int) -> np.ndarray:
    """Positions of the top-k ``scores``, ordered by ``(-score, id)``.

    A partition finds the k-th best score; every position scoring at
    least that much (ties at the boundary included) is then sorted on
    ``(-score, id rank)``, so which of several tied positions make the
    cut is decided by id, never by partition order.  Every ranked path
    (the flat scan, BM25) ranks with exactly these operations.
    """
    k = min(k, scores.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    negated = -scores
    kth = np.partition(negated, k - 1)[k - 1]
    candidates = np.flatnonzero(negated <= kth)
    order = np.lexsort((id_rank[candidates], negated[candidates]))
    return candidates[order[:k]]


class FlatIndex:
    """Exact cosine-similarity search by full scan.

    Serves both as the one index behind lake search and as the ground
    truth against which approximate indexes (HNSW, LSH) are measured.

    Ranking contract: results order by ``(-score, id)``, so exact ties
    (duplicate vectors, quantized siblings, indicator task profiles)
    come back in id order rather than in whatever order a partition
    left them.

    Built once: :meth:`build` normalizes the whole batch in place,
    block by block, and publishes ``(ids, normalized matrix, id rank)``
    as one immutable view.  Queries read that view with no lock and no
    copy; a second ``build`` swaps in a new view wholesale, so a query
    racing it scores against the old view or the new one, never a mix.
    """

    def __init__(self) -> None:
        # (ids, row-normalized matrix, row -> position of its id in
        # sorted id order: the tie-break key of :func:`top_k`).
        self._view: Tuple[Sequence[str], np.ndarray, np.ndarray] = (
            (), np.empty((0, 0)), np.empty(0, dtype=np.int64)
        )

    def __len__(self) -> int:
        return len(self._view[0])

    def build(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        """Replace the index contents with a whole batch at once; the
        index keeps a normalized copy of ``vectors``."""
        self.adopt(ids, np.array(vectors, dtype=np.float64))

    def adopt(self, ids: Sequence[str], matrix: np.ndarray) -> None:
        """:meth:`build` without the copy: ``matrix``, a writable float64
        array the caller hands over and no longer uses, is normalized in
        place and becomes the index's own.

        An id column that carries its rank (:func:`id_ranks`) is
        immutable, and is kept as it is; any other ``ids`` are copied.
        """
        if len(ids) != len(matrix):
            raise IndexError_(f"{len(ids)} ids but {len(matrix)} vectors")
        for start in range(0, len(matrix), BLOCK_ROWS):
            block = matrix[start:start + BLOCK_ROWS]
            norms = np.linalg.norm(block, axis=1, keepdims=True)
            norms[norms < 1e-12] = 1.0
            block /= norms
        if getattr(ids, "rank", None) is None:
            ids = tuple(ids)
        self._view = (ids, matrix, id_ranks(ids))

    def query(self, vector: np.ndarray, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k (id, cosine similarity) pairs, best first."""
        return self.query_batch(vector, k)[0]

    def query_batch(
        self, vectors: np.ndarray, k: int = 10
    ) -> List[List[Tuple[str, float]]]:
        """Top-k for every row of ``vectors`` (a 1-D vector is one row).

        Each row is scored with its own matrix-vector product.
        Deliberately not one matrix-matrix product: BLAS gemm and gemv
        accumulate in different orders, so a gemm-scored batch returns
        ULP-different scores depending on which other queries shared the
        batch — and near-tied ranks could flip.  Bit-identical results
        regardless of batch composition is the contract micro-batched
        serving relies on.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        ids, matrix, id_rank = self._view
        if not ids:
            return [[] for _ in vectors]
        results: List[List[Tuple[str, float]]] = []
        for row in vectors:
            similarities = matrix @ l2_normalize(row)
            top = top_k(similarities, id_rank, k)
            results.append([(ids[i], float(similarities[i])) for i in top])
        return results

    def vector_of(self, item_id: str) -> np.ndarray:
        """The stored (normalized) vector of ``item_id``'s first row."""
        ids, matrix, _ = self._view
        try:
            return matrix[ids.index(item_id)]
        except ValueError:
            raise IndexError_(f"id not in index: {item_id!r}") from None
