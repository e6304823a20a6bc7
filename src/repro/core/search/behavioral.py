"""Content-based (behavioral) model search.

The paper's core search proposal: rank models by what they *do*, not
what their cards say.  Behavioral embeddings (competence profiles over a
shared probe set) support three query shapes:

* a **task profile** — "find models good at legal text" becomes an
  indicator profile over the legal probes;
* a **model as query** (Lu et al.) — rank by similarity to a query
  model's behavior;
* a **task spec** — explicit (inputs, desired outputs) pairs scored
  extrinsically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.domains import DOMAIN_NAMES, domain_index, get_domain
from repro.data.probes import ProbeSet
from repro.errors import ConfigError
from repro.index.cache import EmbeddingCache
from repro.index.embedders import BehavioralEmbedder, l2_normalize
from repro.index.flat import FlatIndex
from repro.lake.lake import ModelLake
from repro.utils.text import simple_tokenize

if TYPE_CHECKING:
    from repro.nn.module import Module


@dataclass
class TaskSpec:
    """An extrinsic task: inputs plus the outputs a good model produces.

    Matches §3's "task function Q: X -> Y" formulation.
    """

    inputs: np.ndarray
    desired_labels: np.ndarray
    name: str = "task"


def task_profile_vector(probes: ProbeSet, target_domains: Sequence[str]) -> np.ndarray:
    """Indicator competence profile: 1 on probes from target domains.

    A model that is perfectly competent exactly on the target domains
    has maximal cosine similarity with this vector.
    """
    wanted = set(target_domains)
    unknown = wanted - set(DOMAIN_NAMES)
    if unknown:
        raise ConfigError(f"unknown domains in task profile: {sorted(unknown)}")
    vector = np.array([1.0 if d in wanted else 0.0 for d in probes.domains])
    if vector.sum() == 0:
        raise ConfigError("no probes cover the requested domains")
    return l2_normalize(vector)


def _domain_evidence() -> Dict[str, Tuple[Tuple[str, int], ...]]:
    """Word -> ((domain, points the word scores for it), ...).

    A domain's own name scores 3 and each of its distinct content words
    1; a word in several domains' vocabularies scores for each.
    """
    evidence: Dict[str, Dict[str, int]] = {}
    for name in DOMAIN_NAMES:
        points = evidence.setdefault(name, {})
        points[name] = points.get(name, 0) + 3
        for word in set(get_domain(name).content_words()):
            points = evidence.setdefault(word, {})
            points[name] = points.get(name, 0) + 1
    return {word: tuple(points.items()) for word, points in evidence.items()}


#: Built once: the domain table is fixed when :mod:`repro.data.domains`
#: is imported.
_DOMAIN_EVIDENCE = _domain_evidence()


def extract_query_domains(query_text: str) -> List[str]:
    """Map free text to the domains whose vocabulary it mentions.

    Domain names themselves and any domain content word count as
    evidence (each distinct query word once); the domains with the most
    evidence are returned, sorted by name.
    """
    hits: Dict[str, int] = {}
    for token in set(simple_tokenize(query_text)):
        for name, points in _DOMAIN_EVIDENCE.get(token, ()):
            hits[name] = hits.get(name, 0) + points
    if not hits:
        return []
    best = max(hits.values())
    return sorted(name for name, score in hits.items() if score == best)


def embedding_index(
    lake: ModelLake, embedder, cache: Optional[EmbeddingCache] = None
) -> FlatIndex:
    """One exact index over every lake model's embedding.

    Vectors are read from ``cache`` by weight digest in one lookup of
    the whole digest list (:meth:`EmbeddingCache.get`); each miss loads
    and embeds the model and stores the result, once per distinct
    digest.  The matrix so made is handed to the index, which normalizes
    it in place (:meth:`FlatIndex.adopt`), with the lake's id column
    (:meth:`~repro.lake.lake.ModelLake.id_column`).  The index is the
    same on any on-disk layout: sharding is a storage concern, not a
    search one.
    """
    space = embedder.space_key
    digests = _digest_column(lake)
    found = cache.get(space, digests) if cache is not None else None
    model_ids = lake.id_column()
    matrix, missed = found if found is not None else (None, range(len(digests)))
    embedded: Dict[Union[str, bytes], np.ndarray] = {}
    vectors: List[np.ndarray] = []
    for position in missed:
        digest = digests[position]
        vector = embedded.get(digest)
        if vector is None:
            vector = embedder.embed(lake.get_model(model_ids[position], force=True))
            if cache is not None:
                cache.put(space, digest, vector)
                embedded[digest] = vector
        vectors.append(vector)
    if vectors:
        if matrix is None:
            matrix = np.stack(vectors)
        else:
            matrix[missed] = vectors
    index = FlatIndex()
    if matrix is not None:
        index.adopt(model_ids, matrix)
    return index


def _digest_column(lake: ModelLake) -> Union[np.ndarray, List[str]]:
    """The lake's weight digests, aligned with its model ids: its packed
    digest column viewed as ``S<w>`` with no copy when every digest is
    ``w`` bytes wide (as weight-store digests are), else a list."""
    blob, offsets = lake.packed_column("digests")
    rows = len(offsets) - 1
    width = len(blob) // rows if rows else 0
    # min/max rather than an int64 ``==``: that would map numpy code
    # pages nothing else in a server touches.
    gaps = np.diff(offsets)
    if width and gaps.min() == gaps.max() == width:
        return blob.view(f"S{width}")
    return lake.weight_digests()


class BehavioralSearcher:
    """Behavioral index over a lake with the three query shapes.

    Every query shape scores against one exact
    :class:`~repro.index.flat.FlatIndex` of competence profiles, ranked
    by ``(-score, id)`` — whatever the lake's on-disk layout, since the
    profiles come from the embedding cache, not from the weight shards.

    Profiles are computed in one batch and fed to the index's bulk
    ``build``; a :class:`~repro.index.cache.EmbeddingCache` (keyed by
    weight-store digest) lets warm rebuilds skip model loading and
    probing entirely.
    """

    def __init__(
        self,
        lake: ModelLake,
        probes: ProbeSet,
        cache: Optional[EmbeddingCache] = None,
    ):
        self.lake = lake
        self.probes = probes
        self.embedder = BehavioralEmbedder(probes)
        self._index = embedding_index(lake, self.embedder, cache)

    @property
    def index(self):
        return self._index

    def search_domains(
        self, target_domains: Sequence[str], k: int = 10
    ) -> List[Tuple[str, float]]:
        """Rank models by competence on the target domains."""
        query = task_profile_vector(self.probes, target_domains)
        return self._index.query(query, k=k)

    def search_text(self, query_text: str, k: int = 10) -> List[Tuple[str, float]]:
        """Free-text query -> domain profile -> behavioral ranking."""
        return self.search_text_batch([query_text], k=k)[0]

    def search_text_batch(
        self, query_texts: Sequence[str], k: int = 10
    ) -> List[List[Tuple[str, float]]]:
        """Free-text search for each text, positionally aligned.

        A text that maps to no domains ranks nothing (``[]``); the rest
        become domain profiles, stacked into one ``query_batch`` call,
        which scores each row with its own matrix-vector product.
        """
        results: List[List[Tuple[str, float]]] = [[] for _ in query_texts]
        profiles: List[np.ndarray] = []
        positions: List[int] = []
        for position, query_text in enumerate(query_texts):
            domains = extract_query_domains(query_text)
            if domains:
                profiles.append(task_profile_vector(self.probes, domains))
                positions.append(position)
        if profiles:
            batched = self._index.query_batch(np.stack(profiles), k=k)
            for position, hits in zip(positions, batched):
                results[position] = hits
        return results

    def search_by_model(
        self, query_model: Module, k: int = 10, exclude_id: Optional[str] = None
    ) -> List[Tuple[str, float]]:
        """Model-as-query related-model search (Lu et al. extended)."""
        vector = self.embedder.embed(query_model)
        results = self._index.query(vector, k=k + (1 if exclude_id else 0))
        if exclude_id is not None:
            results = [(i, s) for i, s in results if i != exclude_id][:k]
        return results

    def search_by_task(self, task: TaskSpec, k: int = 10) -> List[Tuple[str, float]]:
        """Score every model's behavior directly on an explicit task.

        This is exhaustive extrinsic evaluation (no index) — the
        reference ranking other search modes approximate.
        """
        scored: List[Tuple[str, float]] = []
        for record in self.lake:
            model = self.lake.get_model(record.model_id, force=True)
            if hasattr(model, "predict"):
                predictions = model.predict(task.inputs)
                score = float((predictions == task.desired_labels).mean())
            else:
                score = 0.0
            scored.append((record.model_id, score))
        scored.sort(key=lambda kv: (-kv[1], kv[0]))
        return scored[:k]
