"""Random-hyperplane LSH index (cosine-similarity family).

The second approximate-index baseline for E5: cheap to build, with a
recall/latency profile that contrasts instructively with HNSW's.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import ConfigError, IndexError_
from repro.index.embedders import l2_normalize
from repro.utils.rng import derive_rng


class LSHIndex:
    """Multi-table signed-random-projection LSH.

    Each table hashes a vector to a ``bits_per_table``-bit signature via
    random hyperplanes.  Queries collect the union of colliding buckets
    across tables and re-rank candidates exactly.

    Results are approximate, and equal scores do not follow the
    ``(-score, id)`` contract of the exact indexes: ties order by
    descending insertion position, and a tied vector outside every
    colliding bucket is missed.  This index serves the E5
    recall/latency experiments only; search uses the exact
    :class:`~repro.index.flat.FlatIndex`.
    """

    def __init__(self, num_tables: int = 8, bits_per_table: int = 8, seed: int = 0):
        if num_tables < 1 or bits_per_table < 1:
            raise ConfigError("num_tables and bits_per_table must be positive")
        self.num_tables = num_tables
        self.bits_per_table = bits_per_table
        self.seed = seed
        self._planes: Optional[np.ndarray] = None  # (tables, bits, dim)
        self._tables: List[Dict[int, List[int]]] = [
            defaultdict(list) for _ in range(num_tables)
        ]
        self._ids: List[str] = []
        self._vectors: List[np.ndarray] = []

    def __len__(self) -> int:
        return len(self._ids)

    def _ensure_planes(self, dim: int) -> None:
        if self._planes is None:
            rng = derive_rng(self.seed, f"lsh:{dim}")
            self._planes = rng.normal(
                size=(self.num_tables, self.bits_per_table, dim)
            )
        elif self._planes.shape[-1] != dim:
            raise IndexError_(
                f"vector dim {dim} != index dim {self._planes.shape[-1]}"
            )

    def _signatures(self, vector: np.ndarray) -> List[int]:
        assert self._planes is not None
        bits = (self._planes @ vector) > 0  # (tables, bits)
        powers = 1 << np.arange(self.bits_per_table)
        return [int((row * powers).sum()) for row in bits]

    def add(self, item_id: str, vector: np.ndarray) -> None:
        vector = l2_normalize(np.asarray(vector, dtype=np.float64))
        self._ensure_planes(vector.shape[0])
        node = len(self._ids)
        self._ids.append(item_id)
        self._vectors.append(vector)
        for table, signature in zip(self._tables, self._signatures(vector)):
            table[signature].append(node)

    def build(self, ids: Sequence[str], vectors: np.ndarray) -> None:
        for item_id, vector in zip(ids, np.asarray(vectors, dtype=np.float64)):
            self.add(item_id, vector)

    def query(self, vector: np.ndarray, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k among bucket-colliding candidates (exact re-ranking)."""
        if not self._ids:
            return []
        vector = l2_normalize(np.asarray(vector, dtype=np.float64))
        self._ensure_planes(vector.shape[0])
        candidates: Set[int] = set()
        for table, signature in zip(self._tables, self._signatures(vector)):
            candidates.update(table.get(signature, ()))
        if not candidates:
            # Degenerate fallback: empty buckets -> scan everything.
            candidates = set(range(len(self._ids)))
        scored = sorted(
            ((float(self._vectors[node] @ vector), node) for node in candidates),
            reverse=True,
        )
        return [(self._ids[node], sim) for sim, node in scored[:k]]
