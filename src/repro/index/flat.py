"""Exact (brute-force) nearest-neighbor index — the recall-1.0 baseline."""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import IndexError_
from repro.index.embedders import l2_normalize


def id_ranks(ids: Sequence[str]) -> np.ndarray:
    """Each row's position in id order (a stable sort, so repeated ids
    keep row order) — the integer tie-break key of the ranking."""
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
    (single-query and batched scans, BM25) ranks with exactly these
    operations.
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
    left them — identically from ``query`` and ``query_batch``.

    Incremental ``add`` calls buffer rows and materialize the matrix
    lazily (one stack per query burst instead of one copy per add);
    ``build`` ingests a whole batch in a single vectorized pass.

    Consistency: every read path (``query``, ``query_batch``,
    ``vector_of``) seals the pending buffer first, under the index lock,
    so a search issued between ``add`` calls always sees every row added
    before it — and two threads touching the index concurrently can
    never double-materialize the buffer (which would duplicate rows) or
    observe a half-written matrix.  ``seal`` exposes the flush
    explicitly for builders that want to pay the stack eagerly.
    """

    def __init__(self) -> None:
        self._ids: List[str] = []
        self._vectors: Optional[np.ndarray] = None
        self._pending: List[np.ndarray] = []
        # Id -> its first row, built by the first ``vector_of`` after a
        # change; None until then (only ``vector_of`` reads it).
        self._id_to_row: Optional[Dict[str, int]] = None
        # Row -> position of its id in sorted id order: the tie-break
        # key of :func:`top_k`, recomputed whenever rows are materialized.
        self._id_rank: np.ndarray = np.empty(0, dtype=np.int64)
        # One lock serializes buffer mutation and materialization; reads
        # of the sealed matrix happen on a reference captured under the
        # lock, so a concurrent rebuild can never swap it mid-scan.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._ids)

    def _dim(self) -> Optional[int]:
        if self._vectors is not None:
            return self._vectors.shape[1]
        if self._pending:
            return self._pending[0].shape[0]
        return None

    def add(self, item_id: str, vector: np.ndarray) -> None:
        vector = l2_normalize(np.asarray(vector, dtype=np.float64))
        with self._lock:
            dim = self._dim()
            if dim is not None and vector.shape[0] != dim:
                raise IndexError_(
                    f"vector dim {vector.shape[0]} != index dim {dim}"
                )
            self._pending.append(vector)
            self._id_to_row = None
            self._ids.append(item_id)

    def _materialize_locked(
        self,
    ) -> Tuple[List[str], Optional[np.ndarray], np.ndarray]:
        """Flush pending rows; returns a consistent (ids, matrix, id rank)
        view.

        Must be called with the lock held.  The returned references are
        safe to use after the lock is released: the matrix and the rank
        array are replaced on growth, never mutated in place.
        """
        if self._pending:
            block = np.stack(self._pending)
            self._vectors = (
                block if self._vectors is None
                else np.concatenate([self._vectors, block])
            )
            self._pending = []
            self._id_rank = id_ranks(self._ids)
        return self._ids[: len(self._ids)], self._vectors, self._id_rank

    def seal(self) -> None:
        """Flush buffered adds now, so later reads pay no stack."""
        with self._lock:
            self._materialize_locked()

    def build(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        """Replace the index contents with a whole batch at once."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if len(ids) != len(vectors):
            raise IndexError_(f"{len(ids)} ids but {len(vectors)} vectors")
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms < 1e-12] = 1.0
        normalized = vectors / norms
        ids = list(ids)
        id_rank = id_ranks(ids)
        with self._lock:
            self._vectors = normalized
            self._ids = ids
            self._pending = []
            self._id_to_row = None
            self._id_rank = id_rank

    def query(self, vector: np.ndarray, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k (id, cosine similarity) pairs, best first."""
        with self._lock:
            ids, matrix, id_rank = self._materialize_locked()
        if matrix is None or not ids:
            return []
        vector = l2_normalize(np.asarray(vector, dtype=np.float64))
        similarities = matrix @ vector
        top = top_k(similarities, id_rank, k)
        return [(ids[i], float(similarities[i])) for i in top]

    def query_batch(
        self, vectors: np.ndarray, k: int = 10
    ) -> List[List[Tuple[str, float]]]:
        """Top-k for every row of ``vectors`` against one sealed view.

        The batch amortizes the lock, the buffer materialization, and
        (in the serving path) the executor dispatch; each row is then
        scored with *the same* matrix-vector product the single-query
        path uses.  Deliberately not one matrix-matrix product: BLAS
        gemm and gemv accumulate in different orders, so a gemm-scored
        batch returns ULP-different scores depending on which other
        queries shared the batch — and near-tied ranks could flip.
        Bit-identical results regardless of batch composition is the
        contract micro-batched serving relies on.
        """
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        if vectors.shape[0] == 0:
            return []
        with self._lock:
            ids, matrix, id_rank = self._materialize_locked()
        if matrix is None or not ids:
            return [[] for _ in range(vectors.shape[0])]
        results: List[List[Tuple[str, float]]] = []
        # Per-row gemv on purpose: one gemm would break bit-parity with
        # query() (see docstring).
        for row in vectors:
            similarities = matrix @ l2_normalize(row)
            top = top_k(similarities, id_rank, k)
            results.append([(ids[i], float(similarities[i])) for i in top])
        return results

    def vector_of(self, item_id: str) -> np.ndarray:
        with self._lock:
            if self._id_to_row is None:
                self._id_to_row = {}
                for row, known in enumerate(self._ids):
                    self._id_to_row.setdefault(known, row)
            row = self._id_to_row.get(item_id)
            if row is None:
                raise IndexError_(f"id not in index: {item_id!r}")
            _, matrix, _ = self._materialize_locked()
        assert matrix is not None
        return matrix[row]
