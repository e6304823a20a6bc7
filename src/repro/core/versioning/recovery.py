"""Version-graph recovery from weights (MoTHer-style, Horwitz et al.).

When history is missing or hidden, reconstruct "who came from whom"
using only intrinsics:

1. Cluster models by parameter alignment (same names and shapes).
2. Within a cluster, compute pairwise weight distances.
3. Orient candidate edges with direction heuristics (fine-tuning raises
   weight kurtosis; pruning raises sparsity; quantization snaps weights
   to a grid — each is irreversible, so the "more processed" model is
   the child).
4. Solve a minimum-spanning-arborescence over the candidate graph with
   a virtual root whose edge cost acts as the "is a root" threshold —
   clusters therefore decompose into a *forest*, not one forced tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.versioning.classify import classify_transform, looks_like_merge
from repro.core.versioning.distance import states_aligned, weight_l2_distance
from repro.core.versioning.graph import VersionGraph
from repro.lake.lake import ModelLake

_VIRTUAL_ROOT = "__root__"


@dataclass
class RecoveryConfig:
    """Tuning knobs for weight-based version recovery."""

    #: Virtual-root edge cost per node, as a fraction of that node's
    #: median distance to its cluster.  Lower values favor forests (more
    #: roots); higher values force larger trees.  Calibrated on dev lakes.
    root_cost_scale: float = 1.0
    #: Weight of the direction-heuristic penalty (0 disables orientation).
    direction_penalty: float = 0.5
    #: Detect two-parent merges as a post-pass.
    detect_merges: bool = True
    #: Label recovered edges with classify_transform.
    classify_edges: bool = True
    #: Optional extrinsic fallback: probes used to behaviorally attach
    #: models that weight analysis left as roots (distillation students
    #: share no weights with their teachers, but mimic their outputs).
    #: None disables the fallback.
    behavioral_probes: Optional[object] = None
    #: Minimum output-distribution cosine similarity for a behavioral edge.
    behavioral_threshold: float = 0.85


def _weight_kurtosis(state: Dict[str, np.ndarray]) -> float:
    """Kurtosis of the pooled weight distribution (MoTHer's direction cue)."""
    # Deferred: scipy.stats costs ~0.5 s to import, and only recovery
    # needs it, so the search and serve import path stays scipy-free.
    from scipy import stats

    flat = np.concatenate([arr.ravel() for arr in state.values()])
    return float(stats.kurtosis(flat))


def _sparsity(state: Dict[str, np.ndarray]) -> float:
    flat = np.concatenate([arr.ravel() for arr in state.values() if arr.ndim >= 2])
    if flat.size == 0:
        return 0.0
    return float((flat == 0).mean())


def _processedness(state: Dict[str, np.ndarray]) -> Tuple[float, float]:
    """(sparsity, kurtosis): monotone-increasing along release chains."""
    return (_sparsity(state), _weight_kurtosis(state))


def _direction_penalty(
    parent_proc: Tuple[float, float], child_proc: Tuple[float, float]
) -> float:
    """0 when the heuristics agree parent -> child, up to 1 otherwise."""
    penalty = 0.0
    # Sparsity is near-conclusive: pruning only ever adds zeros.
    if parent_proc[0] > child_proc[0] + 1e-9:
        penalty += 0.7
    # Kurtosis rises under fine-tuning (heavy-tailed updates).
    if parent_proc[1] > child_proc[1] + 1e-9:
        penalty += 0.3
    return penalty


@dataclass
class RecoveryResult:
    """Recovered graph plus diagnostics."""

    graph: VersionGraph
    clusters: List[List[str]] = field(default_factory=list)
    merge_edges: List[Tuple[str, str, str]] = field(default_factory=list)
    #: (parent, child, similarity) edges added by the behavioral fallback.
    behavioral_edges: List[Tuple[str, str, float]] = field(default_factory=list)


def recover_version_graph(
    lake: ModelLake,
    model_ids: Optional[Sequence[str]] = None,
    config: Optional[RecoveryConfig] = None,
) -> RecoveryResult:
    """Reconstruct a version forest for ``model_ids`` from weights alone.

    Never consults recorded history — this is the blind baseline that
    recorded/hybrid approaches are compared against (benchmark E2).
    """
    config = config or RecoveryConfig()
    ids = list(model_ids) if model_ids is not None else lake.model_ids()
    states = {mid: lake.get_model(mid, force=True).state_dict() for mid in ids}

    # 1. Cluster by parameter alignment.
    clusters: List[List[str]] = []
    for mid in ids:
        placed = False
        for cluster in clusters:
            if states_aligned(states[cluster[0]], states[mid]):
                cluster.append(mid)
                placed = True
                break
        if not placed:
            clusters.append([mid])

    graph = VersionGraph()
    for mid in ids:
        graph.add_model(mid)
    result = RecoveryResult(graph=graph, clusters=clusters)

    for cluster in clusters:
        if len(cluster) < 2:
            continue
        _recover_cluster(cluster, states, graph, config)

    if config.detect_merges:
        _detect_merges(ids, states, graph, result)
    if config.behavioral_probes is not None:
        _behavioral_fallback(lake, ids, graph, result, config)
    return result


def _behavioral_fallback(
    lake: ModelLake,
    ids: Sequence[str],
    graph: VersionGraph,
    result: "RecoveryResult",
    config: RecoveryConfig,
) -> None:
    """Attach weight-orphans by output-distribution similarity.

    For every model the weight pass left parentless, find the
    behaviorally most similar *earlier* model (upload order is always
    known in a hub).  An edge is added only above the similarity
    threshold, labeled ``behavioral`` with the similarity as confidence.
    Distillation students typically attach to their teacher or to a
    sibling student — either lands them in the correct lineage tree.
    """
    from repro.index.embedders import OutputEmbedder

    embedder = OutputEmbedder(config.behavioral_probes)
    vectors: Dict[str, np.ndarray] = {}
    for mid in ids:
        model = lake.get_model(mid, force=True)
        if hasattr(model, "predict_proba"):
            vectors[mid] = embedder.embed(model)
    created = {mid: lake.get_record(mid).created_at for mid in ids}
    # The globally earliest model is assumed original (something must be).
    earliest = min(vectors, key=lambda m: created[m], default=None)
    for mid in sorted(vectors, key=lambda m: created[m]):
        if mid == earliest or graph.parents(mid):
            continue
        candidates = [
            (float(vectors[mid] @ vectors[other]), other)
            for other in vectors
            if other != mid and created[other] < created[mid]
        ]
        if not candidates:
            continue
        similarity, parent = max(candidates)
        if similarity < config.behavioral_threshold:
            continue
        graph.add_edge(parent, mid, confidence=similarity)
        graph._graph[parent][mid]["kind"] = "behavioral"
        result.behavioral_edges.append((parent, mid, similarity))


def _recover_cluster(
    cluster: List[str],
    states: Dict[str, Dict[str, np.ndarray]],
    graph: VersionGraph,
    config: RecoveryConfig,
) -> None:
    import networkx as nx  # deferred: see VersionGraph.__init__

    distances: Dict[Tuple[str, str], float] = {}
    for i, a in enumerate(cluster):
        for b in cluster[i + 1 :]:
            distances[(a, b)] = weight_l2_distance(states[a], states[b])
    processed = {mid: _processedness(states[mid]) for mid in cluster}

    # Per-node virtual-root cost: proportional to the node's median
    # distance to the rest of the cluster.  The medoid (a foundation is
    # the hub of its derivation star) gets the cheapest root edge, so it
    # is elected root; satellites attach to their nearest neighbor.
    def _distances_from(mid: str) -> List[float]:
        return [
            dist for (a, b), dist in distances.items() if mid in (a, b)
        ]

    candidate = nx.DiGraph()
    for mid in cluster:
        median_distance = float(np.median(_distances_from(mid))) or 1.0
        root_cost = max(median_distance * config.root_cost_scale, 1e-9)
        candidate.add_edge(_VIRTUAL_ROOT, mid, weight=root_cost)
    for (a, b), dist in distances.items():
        penalty_ab = _direction_penalty(processed[a], processed[b])
        penalty_ba = _direction_penalty(processed[b], processed[a])
        candidate.add_edge(
            a, b, weight=dist * (1.0 + config.direction_penalty * penalty_ab)
        )
        candidate.add_edge(
            b, a, weight=dist * (1.0 + config.direction_penalty * penalty_ba)
        )

    arborescence = nx.minimum_spanning_arborescence(candidate, attr="weight")
    for parent, child in arborescence.edges():
        if parent == _VIRTUAL_ROOT:
            continue
        dist = distances.get((parent, child)) or distances.get((child, parent)) or 0.0
        confidence = 1.0 / (1.0 + dist)
        transform = None
        if config.classify_edges:
            kind = classify_transform(states[parent], states[child])
            graph.add_edge(parent, child, transform=None, confidence=confidence)
            # Annotate kind directly (no TransformRecord for recovered edges).
            graph._graph[parent][child]["kind"] = kind
        else:
            graph.add_edge(parent, child, transform=transform, confidence=confidence)


def _detect_merges(
    ids: Sequence[str],
    states: Dict[str, Dict[str, np.ndarray]],
    graph: VersionGraph,
    result: RecoveryResult,
) -> None:
    """Post-pass: find children that are convex combinations of two others."""
    for child in ids:
        child_state = states[child]
        candidates = [
            other for other in ids
            if other != child and states_aligned(child_state, states[other])
        ]
        for i, a in enumerate(candidates):
            found = False
            for b in candidates[i + 1 :]:
                alpha = looks_like_merge(child_state, states[a], states[b])
                if alpha is None or not 0.05 < alpha < 0.95:
                    continue
                # Rewire: child's parents become both merge sources.
                for parent in list(graph.parents(child)):
                    graph._graph.remove_edge(parent, child)
                graph.add_edge(a, child, confidence=0.9)
                graph._graph[a][child]["kind"] = "merge"
                graph.add_edge(b, child, confidence=0.9)
                graph._graph[b][child]["kind"] = "merge"
                result.merge_edges.append((a, b, child))
                found = True
                break
            if found:
                break
