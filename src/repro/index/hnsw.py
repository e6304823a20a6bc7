"""Hierarchical Navigable Small World graphs (Malkov & Yashunin, 2020).

Implemented from scratch: the paper singles HNSW out as the practical
index for high-dimensional model embeddings while noting it "provides no
formal guarantees on correctness and its use in model lakes remains
under-explored" — so we build it and measure its recall/latency
trade-offs ourselves (benchmark E5).

Distances are cosine distances (vectors are normalized on insert).
Vectors live in one contiguous matrix, so each beam expansion scores all
of a node's unvisited neighbors with a single matrix-vector product; the
original one-distance-at-a-time path is kept behind ``vectorized=False``
and the two are verified equivalent by the test suite.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError, IndexError_
from repro.index.embedders import l2_normalize
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    HNSW_DISTANCE_COMPS,
    HNSW_INSERTS,
    HNSW_QUERIES,
)
from repro.obs.tracing import trace


class HNSWIndex:
    """Multi-layer proximity graph supporting incremental insertion.

    Parameters
    ----------
    m:
        Max out-degree per node on upper layers (layer 0 allows ``2m``).
    ef_construction:
        Candidate-list width during insertion.
    ef_search:
        Default candidate-list width during queries (>= k for good recall).
    seed:
        Level-sampling RNG seed (levels follow Geom(1/ln m)).
    vectorized:
        Score neighbor batches with one matrix op per beam expansion
        (default).  ``False`` selects the scalar reference path, which
        visits nodes in the same order and returns the same results.

    Results are approximate, and equal scores do not follow the
    ``(-score, id)`` contract of the exact indexes: ties order by
    insertion position, and which of several tied vectors the beam
    reaches at all depends on the walk.  This index serves the E5
    recall/latency experiments only; search uses the exact
    :class:`~repro.index.flat.FlatIndex`.
    """

    def __init__(
        self,
        m: int = 8,
        ef_construction: int = 64,
        ef_search: int = 32,
        seed: int = 0,
        vectorized: bool = True,
    ):
        if m < 2:
            raise ConfigError(f"m must be >= 2, got {m}")
        if ef_construction < m or ef_search < 1:
            raise ConfigError("ef_construction must be >= m and ef_search >= 1")
        self.m = m
        self.m0 = 2 * m
        self.ef_construction = ef_construction
        self.ef_search = ef_search
        self.vectorized = vectorized
        self._ml = 1.0 / math.log(m)
        self._rng = np.random.default_rng(seed)

        self._ids: List[str] = []
        self._id_to_index: Dict[str, int] = {}
        #: All vectors, row-per-node, grown geometrically.
        self._matrix: np.ndarray = np.empty((0, 0), dtype=np.float64)
        self._count = 0
        #: neighbors[layer][node] -> list of neighbor node indices
        self._neighbors: List[Dict[int, List[int]]] = []
        self._entry_point: Optional[int] = None
        self._max_layer = -1
        #: Running count of cosine-distance evaluations (the index's unit
        #: of work); flushed to the global metrics registry per operation.
        self._distance_count = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    @property
    def distance_computations(self) -> int:
        return self._distance_count

    def _append_vector(self, vector: np.ndarray) -> None:
        if self._matrix.shape[1] != vector.shape[0]:
            if self._count:
                raise IndexError_(
                    f"vector dim {vector.shape[0]} != index dim {self._matrix.shape[1]}"
                )
            self._matrix = np.empty((4, vector.shape[0]), dtype=np.float64)
        if self._count == self._matrix.shape[0]:
            grown = np.empty(
                (2 * self._matrix.shape[0], self._matrix.shape[1]), dtype=np.float64
            )
            grown[: self._count] = self._matrix[: self._count]
            self._matrix = grown
        self._matrix[self._count] = vector
        self._count += 1

    def _distance(self, a: int, query: np.ndarray) -> float:
        self._distance_count += 1
        return 1.0 - float(self._matrix[a] @ query)

    def _batch_distances(self, nodes: List[int], query: np.ndarray) -> np.ndarray:
        """All cosine distances node->query in one matrix-vector product."""
        self._distance_count += len(nodes)
        return 1.0 - self._matrix[nodes] @ query

    def _sample_level(self) -> int:
        return int(-math.log(max(self._rng.random(), 1e-12)) * self._ml)

    # ------------------------------------------------------------------
    def add(self, item_id: str, vector: np.ndarray) -> None:
        """Insert one element (standard HNSW insertion)."""
        if item_id in self._id_to_index:
            raise IndexError_(f"duplicate id in HNSW index: {item_id!r}")
        before = self._distance_count
        with trace("index.hnsw.insert", size=len(self._ids)):
            self._insert(item_id, vector)
        obs_metrics.inc(HNSW_INSERTS)
        obs_metrics.inc(HNSW_DISTANCE_COMPS, self._distance_count - before)

    def _insert(self, item_id: str, vector: np.ndarray) -> None:
        vector = l2_normalize(np.asarray(vector, dtype=np.float64))
        node = len(self._ids)
        self._ids.append(item_id)
        self._id_to_index[item_id] = node
        self._append_vector(vector)

        level = self._sample_level()
        old_max = self._max_layer
        while self._max_layer < level:
            self._neighbors.append({})
            self._max_layer += 1
        for layer in range(level + 1):
            self._neighbors[layer][node] = []

        if self._entry_point is None:
            self._entry_point = node
            return

        entry = self._entry_point
        # Greedy descent through pre-existing layers above the new level.
        for layer in range(old_max, level, -1):
            entry = self._greedy_closest(vector, entry, layer)

        # Link at each pre-existing layer from min(level, old max) down to 0.
        # (Layers above old_max contain only the new node: nothing to link.)
        for layer in range(min(level, old_max), -1, -1):
            candidates = self._search_layer(vector, [entry], layer, self.ef_construction)
            max_degree = self.m0 if layer == 0 else self.m
            selected = self._select_neighbors(candidates, self.m)
            self._neighbors[layer][node] = [idx for _, idx in selected]
            for _, neighbor in selected:
                links = self._neighbors[layer][neighbor]
                links.append(node)
                if len(links) > max_degree:
                    # Prune with the same diversity heuristic, relative to
                    # the over-full neighbor.
                    neighbor_vec = self._matrix[neighbor]
                    if self.vectorized:
                        link_dists = self._batch_distances(links, neighbor_vec)
                        scored = sorted(zip((float(d) for d in link_dists), links))
                    else:
                        self._distance_count += len(links)
                        scored = sorted(
                            (1.0 - float(self._matrix[other] @ neighbor_vec), other)
                            for other in links
                        )
                    kept = self._select_neighbors(scored, max_degree)
                    self._neighbors[layer][neighbor] = [o for _, o in kept]
            entry = selected[0][1] if selected else entry

        if level > old_max:
            self._entry_point = node

    def _layer_of(self, node: int) -> int:
        for layer in range(self._max_layer, -1, -1):
            if node in self._neighbors[layer]:
                return layer
        return 0

    def _greedy_closest(self, query: np.ndarray, entry: int, layer: int) -> int:
        """Greedy search: move to the closest neighbor until no improvement."""
        current = entry
        current_dist = self._distance(current, query)
        if self.vectorized:
            while True:
                neighbors = self._neighbors[layer].get(current, [])
                if not neighbors:
                    return current
                dists = self._batch_distances(neighbors, query)
                best = int(np.argmin(dists))
                if float(dists[best]) >= current_dist:
                    return current
                current, current_dist = neighbors[best], float(dists[best])
        improved = True
        while improved:
            improved = False
            for neighbor in self._neighbors[layer].get(current, []):
                dist = self._distance(neighbor, query)
                if dist < current_dist:
                    current, current_dist = neighbor, dist
                    improved = True
        return current

    def _search_layer(
        self, query: np.ndarray, entries: Sequence[int], layer: int, ef: int
    ) -> List[Tuple[float, int]]:
        """Best-first beam search on one layer; returns sorted (dist, node).

        The vectorized path batches each expansion's unvisited-neighbor
        distances into one matrix op, then runs the identical heap logic
        over the precomputed values, so both paths visit and return the
        same nodes in the same order.
        """
        visited: Set[int] = set(entries)
        candidates: List[Tuple[float, int]] = []
        results: List[Tuple[float, int]] = []  # max-heap via negative dist
        for entry in entries:
            dist = self._distance(entry, query)
            heapq.heappush(candidates, (dist, entry))
            heapq.heappush(results, (-dist, entry))
        while candidates:
            dist, node = heapq.heappop(candidates)
            worst = -results[0][0]
            if dist > worst and len(results) >= ef:
                break
            fresh: List[int] = []
            for neighbor in self._neighbors[layer].get(node, []):
                if neighbor not in visited:
                    visited.add(neighbor)
                    fresh.append(neighbor)
            if not fresh:
                continue
            if self.vectorized:
                fresh_dists = self._batch_distances(fresh, query)
            else:
                fresh_dists = np.array(
                    [self._distance(neighbor, query) for neighbor in fresh]
                )
            for neighbor, neighbor_dist in zip(fresh, fresh_dists):
                neighbor_dist = float(neighbor_dist)
                worst = -results[0][0]
                if len(results) < ef or neighbor_dist < worst:
                    heapq.heappush(candidates, (neighbor_dist, neighbor))
                    heapq.heappush(results, (-neighbor_dist, neighbor))
                    if len(results) > ef:
                        heapq.heappop(results)
        return sorted((-neg, node) for neg, node in results)

    def _select_neighbors(
        self, candidates: List[Tuple[float, int]], m: int
    ) -> List[Tuple[float, int]]:
        """Heuristic neighbor selection (Algorithm 4 of the HNSW paper).

        Scanning candidates closest-first, keep a candidate only if it is
        closer to the query than to every already-selected neighbor.
        This diversifies edges across clusters, which is what keeps the
        graph navigable on clustered data.  Falls back to closest-first
        fill if the heuristic selects fewer than m.

        The vectorized path scores a candidate against all selected
        neighbors with one matrix-vector product; the scalar path
        evaluates the same pair distances one at a time (no
        short-circuit), so both paths build identical graphs from an
        identical number of distance computations.
        """
        selected: List[Tuple[float, int]] = []
        skipped: List[Tuple[float, int]] = []
        for dist, node in candidates:
            if len(selected) >= m:
                break
            vec = self._matrix[node]
            if not selected:
                diverse = True
            elif self.vectorized:
                pair_dists = self._batch_distances(
                    [other for _, other in selected], vec
                )
                diverse = bool(np.all(dist < pair_dists))
            else:
                self._distance_count += len(selected)
                pair_dists = [
                    1.0 - float(vec @ self._matrix[other])
                    for _, other in selected
                ]
                diverse = all(dist < pair for pair in pair_dists)
            if diverse:
                selected.append((dist, node))
            else:
                skipped.append((dist, node))
        for item in skipped:
            if len(selected) >= m:
                break
            selected.append(item)
        return selected

    # ------------------------------------------------------------------
    def query(
        self, vector: np.ndarray, k: int = 10, ef: Optional[int] = None
    ) -> List[Tuple[str, float]]:
        """Approximate top-k (id, cosine similarity), best first."""
        if self._entry_point is None:
            return []
        before = self._distance_count
        with trace("index.hnsw.query", k=k, size=len(self._ids)):
            vector = l2_normalize(np.asarray(vector, dtype=np.float64))
            ef = max(ef or self.ef_search, k)
            entry = self._entry_point
            for layer in range(self._max_layer, 0, -1):
                entry = self._greedy_closest(vector, entry, layer)
            results = self._search_layer(vector, [entry], 0, ef)
            top = results[:k]
        obs_metrics.inc(HNSW_QUERIES)
        obs_metrics.inc(HNSW_DISTANCE_COMPS, self._distance_count - before)
        return [(self._ids[node], 1.0 - dist) for dist, node in top]

    def build(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        for item_id, vector in zip(ids, np.asarray(vectors, dtype=np.float64)):
            self.add(item_id, vector)

    def stats(self) -> Dict[str, float]:
        """Structural statistics (layer count, degree distribution)."""
        degrees = [
            len(links)
            for layer in self._neighbors
            for links in layer.values()
        ]
        return {
            "num_elements": float(len(self._ids)),
            "num_layers": float(self._max_layer + 1),
            "mean_degree": float(np.mean(degrees)) if degrees else 0.0,
            "max_degree": float(max(degrees)) if degrees else 0.0,
            "distance_computations": float(self._distance_count),
        }
