"""Property tests: dataset lineage queries agree with networkx.

``DatasetRegistry`` keeps lineage in plain adjacency dicts; networkx is
the reference implementation here.  Edge lists are arbitrary directed
graphs -- repeated edges, self-loops and cycles included -- because a
hand-edited ``lineage.json`` can hold any of them and a lake load
replays it as written.
"""

import networkx as nx
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data import DatasetRegistry, TextDataset

_OPERATIONS = ("sample", "filter_domain", "augment_noise")

edge_lists = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1),
                st.sampled_from(_OPERATIONS), st.integers(0, 3),
            ),
            max_size=16,
        ),
    )
)


def _build(num_nodes, edges):
    """The registry under test and its networkx twin, fed the same edges."""
    registry = DatasetRegistry()
    digests = [
        registry.register(TextDataset(
            tokens=np.array([[i + 1]]), labels=np.array([0]),
            domains=["news"], name=f"d{i}",
        ))
        for i in range(num_nodes)
    ]
    reference = nx.DiGraph()
    reference.add_nodes_from(digests)
    for source, target, operation, seed in edges:
        u, v = digests[source], digests[target]
        registry.add_lineage_edge(u, v, operation, {"seed": seed})
        reference.add_edge(u, v, operation=operation, params={"seed": seed})
    return registry, reference, digests


# One cycle (0 -> 1 -> 2 -> 0), a self-loop, and a re-added edge whose
# attrs change, so every run covers the cases a hand edit can produce.
_HAND_EDITED = (4, [
    (0, 1, "sample", 0), (1, 2, "sample", 1), (2, 0, "augment_noise", 2),
    (3, 3, "sample", 0), (0, 1, "filter_domain", 3), (0, 2, "sample", 1),
])


class TestLineageMatchesNetworkx:
    @given(edge_lists)
    @example(_HAND_EDITED)
    @settings(max_examples=60, deadline=None)
    def test_neighbours_in_insertion_order(self, graph):
        registry, reference, digests = _build(*graph)
        for digest in digests:
            assert registry.parents(digest) == list(reference.predecessors(digest))
            assert registry.children(digest) == list(reference.successors(digest))

    @given(edge_lists)
    @example(_HAND_EDITED)
    @settings(max_examples=60, deadline=None)
    def test_edges_carry_latest_attrs(self, graph):
        registry, reference, _ = _build(*graph)
        assert list(registry.lineage_edges()) == list(reference.edges(data=True))

    @given(edge_lists)
    @example(_HAND_EDITED)
    @settings(max_examples=60, deadline=None)
    def test_closures(self, graph):
        registry, reference, digests = _build(*graph)
        undirected = reference.to_undirected()
        for digest in digests:
            assert registry.ancestors(digest) == nx.ancestors(reference, digest)
            assert registry.descendants(digest) == nx.descendants(reference, digest)
            assert registry.versions_of(digest) == nx.node_connected_component(
                undirected, digest
            )

    @given(edge_lists)
    @example(_HAND_EDITED)
    @settings(max_examples=60, deadline=None)
    def test_derivation_path_is_a_shortest_path(self, graph):
        registry, reference, digests = _build(*graph)
        for source in digests:
            for target in digests:
                path = registry.derivation_path(source, target)
                if not nx.has_path(reference, source, target):
                    assert path is None
                    continue
                assert path[0] == source and path[-1] == target
                assert all(reference.has_edge(u, v) for u, v in zip(path, path[1:]))
                assert len(path) - 1 == nx.shortest_path_length(
                    reference, source, target
                )
                shortest = list(nx.all_shortest_paths(reference, source, target))
                if len(shortest) == 1:
                    assert path == shortest[0]
