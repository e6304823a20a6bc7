"""Version graphs: directed model-derivation graphs with labeled edges.

§3: "construct a directed Model Graph T, where a directed edge between
models indicates that one model is a version of the other. The edges
can describe the transformation."
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import ModelNotFoundError
from repro.lake.lake import ModelLake
from repro.transforms.base import TransformRecord


class VersionGraph:
    """A DAG of model-version relationships.

    Nodes are model ids; an edge ``parent -> child`` says the child was
    derived from the parent, annotated with the transform (when known)
    and a confidence (1.0 for recorded history, <1 for recovered edges).
    """

    def __init__(self) -> None:
        # networkx is imported inside each function that uses it: it
        # costs ~18 MiB and ~0.2 s to import, and only version-graph
        # algorithms need it, so the search and serve path never load it.
        import networkx as nx

        self._graph = nx.DiGraph()

    # -- construction ------------------------------------------------------
    def add_model(self, model_id: str, **attrs) -> None:
        self._graph.add_node(model_id, **attrs)

    def add_edge(
        self,
        parent_id: str,
        child_id: str,
        transform: Optional[TransformRecord] = None,
        confidence: float = 1.0,
    ) -> None:
        self._graph.add_node(parent_id)
        self._graph.add_node(child_id)
        self._graph.add_edge(
            parent_id, child_id,
            kind=transform.kind if transform is not None else None,
            transform=transform,
            confidence=confidence,
        )

    @classmethod
    def from_lake_history(cls, lake: ModelLake) -> "VersionGraph":
        """Build the graph from *public* recorded history only.

        Models with hidden or missing history appear as isolated nodes —
        the gap that :mod:`repro.core.versioning.recovery` fills.
        """
        graph = cls()
        for record in lake:
            graph.add_model(record.model_id, name=record.name)
            if not lake.has_public_history(record.model_id):
                continue
            history = lake.get_history(record.model_id)
            for parent in history.parent_ids:
                if parent in lake:
                    graph.add_edge(parent, record.model_id, history.transform)
        return graph

    # -- queries -------------------------------------------------------------
    def __contains__(self, model_id: str) -> bool:
        return model_id in self._graph

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    @property
    def num_edges(self) -> int:
        return self._graph.number_of_edges()

    def nodes(self) -> List[str]:
        return list(self._graph.nodes)

    def edges(self) -> List[Tuple[str, str, dict]]:
        return [(u, v, dict(d)) for u, v, d in self._graph.edges(data=True)]

    def edge_set(self) -> Set[Tuple[str, str]]:
        return set(self._graph.edges())

    def parents(self, model_id: str) -> List[str]:
        self._require(model_id)
        return list(self._graph.predecessors(model_id))

    def children(self, model_id: str) -> List[str]:
        self._require(model_id)
        return list(self._graph.successors(model_id))

    def ancestors(self, model_id: str) -> Set[str]:
        import networkx as nx

        self._require(model_id)
        return set(nx.ancestors(self._graph, model_id))

    def descendants(self, model_id: str) -> Set[str]:
        import networkx as nx

        self._require(model_id)
        return set(nx.descendants(self._graph, model_id))

    def roots(self) -> List[str]:
        return [n for n in self._graph.nodes if self._graph.in_degree(n) == 0]

    def root_of(self, model_id: str) -> str:
        """The foundation at the top of this model's lineage.

        For multi-parent lineages, follows the first parent (primary
        base), matching hub "base model" semantics.
        """
        current = model_id
        self._require(current)
        seen = {current}
        while True:
            parents = self.parents(current)
            if not parents:
                return current
            current = sorted(parents)[0]
            if current in seen:  # defensive: cycles should not happen
                return current
            seen.add(current)

    def lineage_path(self, ancestor: str, descendant: str) -> Optional[List[str]]:
        import networkx as nx

        self._require(ancestor)
        self._require(descendant)
        try:
            return nx.shortest_path(self._graph, ancestor, descendant)
        except nx.NetworkXNoPath:
            return None

    def transform_between(self, parent: str, child: str) -> Optional[TransformRecord]:
        data = self._graph.get_edge_data(parent, child)
        return data.get("transform") if data else None

    def is_version_of(self, first: str, second: str) -> bool:
        """True if the two models share any lineage (either direction)."""
        import networkx as nx

        self._require(first)
        self._require(second)
        undirected = self._graph.to_undirected(as_view=True)
        return nx.has_path(undirected, first, second)

    def to_dot(self, names: Optional[Dict[str, str]] = None) -> str:
        """Graphviz dot rendering (edge labels = transform kinds)."""
        lines = ["digraph versions {", "  rankdir=TB;"]
        for node in self._graph.nodes:
            label = (names or {}).get(node, node[:12])
            lines.append(f'  "{node}" [label="{label}"];')
        for u, v, data in self._graph.edges(data=True):
            kind = data.get("kind") or "?"
            conf = data.get("confidence", 1.0)
            lines.append(f'  "{u}" -> "{v}" [label="{kind} ({conf:.2f})"];')
        lines.append("}")
        return "\n".join(lines)

    def _require(self, model_id: str) -> None:
        if model_id not in self._graph:
            raise ModelNotFoundError(model_id)
