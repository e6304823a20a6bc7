"""Dataset registry: content-addressed storage of datasets + lineage.

This is the data-lake half of the holistic model/data lake the paper
calls for.  Datasets are registered by content digest; derivations form
a lineage DAG queried by dataset search and citation.

Lineage is two plain adjacency dicts (parent and child), each edge
mapping to one shared ``{operation, params}`` dict.  Every query is a
BFS over them, so a lake -- and the server over it -- never imports a
graph library.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import DatasetNotFoundError, DuplicateIdError
from repro.data.datasets import TextDataset
from repro.data.derivation import DatasetDerivation


class DatasetRegistry:
    """Registry of datasets with lineage edges between versions."""

    def __init__(self) -> None:
        self._datasets: Dict[str, TextDataset] = {}
        # node -> {neighbour: edge attrs}, in edge-insertion order; the
        # two maps share each attrs dict.
        self._parents: Dict[str, Dict[str, Dict[str, Any]]] = {}
        self._children: Dict[str, Dict[str, Dict[str, Any]]] = {}

    def __len__(self) -> int:
        return len(self._datasets)

    def __contains__(self, digest: str) -> bool:
        return digest in self._datasets

    def register(
        self, dataset: TextDataset, derivation: Optional[DatasetDerivation] = None
    ) -> str:
        """Register a dataset; returns its content digest.

        Re-registering identical content is a no-op (content addressing);
        registering different content under the same digest is impossible
        by construction.
        """
        digest = dataset.content_digest()
        if digest not in self._datasets:
            self._datasets[digest] = dataset
        if derivation is not None:
            for source in derivation.source_digests:
                if source not in self._datasets:
                    raise DatasetNotFoundError(source)
                self.add_lineage_edge(
                    source, digest, derivation.operation, derivation.params
                )
        return digest

    def add_lineage_edge(
        self, source: str, target: str, operation: Optional[str],
        params: Optional[Mapping[str, Any]],
    ) -> None:
        """Record ``source -> target``; a repeated edge takes the new attrs.

        Neither end has to be registered: a lake load replays its saved
        lineage file as written.
        """
        attrs = {"operation": operation, "params": dict(params or {})}
        self._children.setdefault(source, {})[target] = attrs
        self._parents.setdefault(target, {})[source] = attrs

    def lineage_edges(self) -> Iterator[Tuple[str, str, Dict[str, Any]]]:
        """``(source, target, {operation, params})`` for every edge out of
        a registered dataset, sources in registration order, targets in
        edge-insertion order."""
        for source in self._datasets:
            for target, attrs in self._children.get(source, {}).items():
                yield source, target, attrs

    def get(self, digest: str) -> TextDataset:
        try:
            return self._datasets[digest]
        except KeyError:
            raise DatasetNotFoundError(digest) from None

    def find_by_name(self, name: str) -> List[TextDataset]:
        return [d for d in self._datasets.values() if d.name == name]

    def digests(self) -> List[str]:
        return list(self._datasets)

    def __iter__(self) -> Iterator[TextDataset]:
        return iter(self._datasets.values())

    # -- lineage -----------------------------------------------------------
    def parents(self, digest: str) -> List[str]:
        self._require(digest)
        return list(self._parents.get(digest, ()))

    def children(self, digest: str) -> List[str]:
        self._require(digest)
        return list(self._children.get(digest, ()))

    def ancestors(self, digest: str) -> Set[str]:
        self._require(digest)
        return _reachable(digest, (self._parents,)) - {digest}

    def descendants(self, digest: str) -> Set[str]:
        self._require(digest)
        return _reachable(digest, (self._children,)) - {digest}

    def versions_of(self, digest: str) -> Set[str]:
        """All datasets connected to ``digest`` by derivation (any direction).

        This implements the paper's "models trained on *versions of* the
        dataset" semantics: the weakly-connected component of the lineage
        graph containing the dataset.
        """
        self._require(digest)
        return _reachable(digest, (self._parents, self._children))

    def derivation_path(self, source: str, target: str) -> Optional[List[str]]:
        """Shortest derivation chain from ``source`` to ``target``, if any."""
        self._require(source)
        self._require(target)
        previous: Dict[str, Optional[str]] = {source: None}
        frontier = deque([source])
        while frontier and target not in previous:
            node = frontier.popleft()
            for child in self._children.get(node, ()):
                if child not in previous:
                    previous[child] = node
                    frontier.append(child)
        if target not in previous:
            return None
        path: List[str] = []
        step: Optional[str] = target
        while step is not None:
            path.append(step)
            step = previous[step]
        return path[::-1]

    def _require(self, digest: str) -> None:
        if digest not in self._datasets:
            raise DatasetNotFoundError(digest)


def _reachable(
    start: str, adjacency: Tuple[Dict[str, Dict[str, Any]], ...]
) -> Set[str]:
    """``start`` plus every node BFS reaches along any of ``adjacency``."""
    seen = {start}
    frontier = deque([start])
    while frontier:
        node = frontier.popleft()
        for edges in adjacency:
            for neighbour in edges.get(node, ()):
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
    return seen
