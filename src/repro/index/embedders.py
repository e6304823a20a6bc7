"""Model embedders: map lake models into vector spaces for the indexer.

Three embedding families, matching the paper's three viewpoints:

* :class:`BehavioralEmbedder` — extrinsic: the model's *competence
  profile* over a shared probe set (works across model families, the
  property §5's indexer needs).
* :class:`OutputEmbedder` — extrinsic, fine-grained: the full output
  distribution on probes (model-as-query similarity, Lu et al. style).
* :class:`WeightStatEmbedder` — intrinsic: fixed-dimension statistics
  of the parameter tensors (cross-architecture comparable).
* :class:`MetadataEmbedder` — documentation: hashed TF vector of the
  model card text.

All embedders return L2-normalized vectors so cosine similarity is a
dot product everywhere downstream.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

import numpy as np

from repro.data.probes import ProbeSet
from repro.data.domains import domain_index
from repro.errors import ConfigError
from repro.lake.card import ModelCard
from repro.utils.hashing import array_digest, text_digest
from repro.utils.text import simple_tokenize

if TYPE_CHECKING:
    from repro.nn.module import Module


def l2_normalize(vector: np.ndarray) -> np.ndarray:
    """Unit-normalize; zero vectors are returned unchanged."""
    norm = np.linalg.norm(vector)
    if norm < 1e-12:
        return vector
    return vector / norm


class _BatchEmbedMixin:
    """Shared batch path: embed many models into one matrix.

    The matrix feeds ``FlatIndex.build`` (one vectorized normalize +
    assignment) instead of per-model ``add`` calls.
    """

    def embed_all(self, models: Sequence[Module]) -> np.ndarray:
        if not models:
            return np.zeros((0, getattr(self, "dim", 0)))
        return np.stack([self.embed(model) for model in models])


class BehavioralEmbedder(_BatchEmbedMixin):
    """Competence profile over a shared probe set.

    For classifier-style models (anything exposing ``predict_proba``),
    component ``i`` is the probability the model assigns to probe ``i``'s
    true domain class.  For language models (anything exposing
    ``forward`` over token ids and no ``predict_proba``), component ``i``
    is ``exp(-NLL_i)``, the per-token likelihood of the probe sequence.
    Both are "how well does the model handle probe i" scores in [0, 1],
    so heterogeneous models land in one comparable space.
    """

    def __init__(self, probes: ProbeSet):
        self.probes = probes
        self.dim = probes.num_probes

    @property
    def space_key(self) -> str:
        """Embedding-cache space: ties cached vectors to this probe set."""
        return f"behavioral-{array_digest(self.probes.tokens, length=12)}"

    def embed(self, model: Module) -> np.ndarray:
        if hasattr(model, "predict_proba"):
            probabilities = model.predict_proba(self.probes.tokens)
            labels = [domain_index(d) for d in self.probes.domains]
            profile = probabilities[np.arange(len(labels)), labels]
        else:
            profile = self._lm_profile(model)
        return l2_normalize(np.asarray(profile, dtype=np.float64))

    def _lm_profile(self, model: Module) -> np.ndarray:
        # Vectorized per-probe exp(-NLL): a "step" is every valid (>0)
        # position except each row's last, targeting the token one
        # position over; rows with fewer than two valid tokens score 0.
        tokens = self.probes.tokens
        logits = model(tokens).data
        shifted = logits - logits.max(axis=-1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        valid = tokens > 0
        counts = valid.sum(axis=1)
        seq_len = tokens.shape[1]
        last = np.where(
            counts > 0, seq_len - 1 - np.argmax(valid[:, ::-1], axis=1), -1
        )
        steps = valid & (np.arange(seq_len)[None, :] < last[:, None])
        targets = np.zeros_like(tokens)
        targets[:, :-1] = tokens[:, 1:]
        gathered = np.take_along_axis(
            log_probs, targets[..., None], axis=2
        )[..., 0]
        step_counts = np.maximum(steps.sum(axis=1), 1)
        nll = -(gathered * steps).sum(axis=1) / step_counts
        return np.where(counts >= 2, np.exp(-nll), 0.0)


class OutputEmbedder:
    """Full flattened output distribution on the probe set.

    Only meaningful within one output space (e.g. classifiers over the
    same label set); used for fine-grained related-model search.
    """

    def __init__(self, probes: ProbeSet):
        self.probes = probes

    def embed(self, model: Module) -> np.ndarray:
        if not hasattr(model, "predict_proba"):
            raise ConfigError(
                "OutputEmbedder requires a model with predict_proba; "
                "use BehavioralEmbedder for heterogeneous model sets"
            )
        return l2_normalize(model.predict_proba(self.probes.tokens).ravel())


class WeightStatEmbedder(_BatchEmbedMixin):
    """Fixed-dimension intrinsic embedding from parameter statistics.

    Cross-architecture comparable: global weight quantiles, moments,
    sparsity, and aggregated per-matrix spectral summaries.  These are
    the "important intrinsic model features" a hybrid index combines
    with metadata (§5 Indexer).
    """

    #: Quantile grid for the global weight distribution.
    QUANTILES = np.linspace(0.02, 0.98, 17)

    def __init__(self, num_singular: int = 4):
        self.num_singular = num_singular
        self.dim = len(self.QUANTILES) + 6 + num_singular

    @property
    def space_key(self) -> str:
        """Embedding-cache space: ties cached vectors to this config."""
        return f"weightstat-s{self.num_singular}"

    def embed(self, model: Module) -> np.ndarray:
        state = model.state_dict()
        flat = np.concatenate([arr.ravel() for arr in state.values()])
        quantiles = np.quantile(flat, self.QUANTILES)
        moments = np.array([
            flat.mean(),
            flat.std(),
            np.abs(flat).mean(),
            float((flat == 0).mean()),                # sparsity (pruning signature)
            float(np.log1p(flat.size)),               # scale proxy
            float(len(state)),                        # depth proxy
        ])
        spectral = self._spectral_summary(state)
        return l2_normalize(np.concatenate([quantiles, moments, spectral]))

    def _spectral_summary(self, state: Dict[str, np.ndarray]) -> np.ndarray:
        """Mean of the top-k normalized singular values across matrices."""
        tops = []
        for arr in state.values():
            if arr.ndim != 2 or min(arr.shape) < 2:
                continue
            singular = np.linalg.svd(arr, compute_uv=False)
            padded = np.zeros(self.num_singular)
            top = singular[: self.num_singular]
            padded[: len(top)] = top / (singular.sum() + 1e-12)
            tops.append(padded)
        if not tops:
            return np.zeros(self.num_singular)
        return np.mean(tops, axis=0)


class MetadataEmbedder:
    """Feature-hashed term-frequency embedding of model-card text."""

    def __init__(self, dim: int = 128):
        if dim <= 0:
            raise ConfigError(f"dim must be positive, got {dim}")
        self.dim = dim

    def embed_card(self, card: ModelCard) -> np.ndarray:
        return self.embed_text(card.text())

    def embed_text(self, text: str) -> np.ndarray:
        vector = np.zeros(self.dim)
        for token in simple_tokenize(text):
            bucket = int(text_digest(token, length=8), 16)
            sign = 1.0 if (bucket >> 1) % 2 == 0 else -1.0
            vector[bucket % self.dim] += sign
        return l2_normalize(vector)

    # Uniform interface: accepts (model, card) like hybrid callers use.
    def embed(self, card: ModelCard) -> np.ndarray:
        return self.embed_card(card)


class ConcatEmbedder:
    """Weighted concatenation of several model embedders."""

    def __init__(self, embedders: Sequence, weights: Optional[Sequence[float]] = None):
        if not embedders:
            raise ConfigError("ConcatEmbedder needs at least one embedder")
        self.embedders = list(embedders)
        self.weights = list(weights) if weights is not None else [1.0] * len(embedders)
        if len(self.weights) != len(self.embedders):
            raise ConfigError("weights must match embedders in length")

    def embed(self, model: Module) -> np.ndarray:
        parts = [
            weight * embedder.embed(model)
            for embedder, weight in zip(self.embedders, self.weights)
        ]
        return l2_normalize(np.concatenate(parts))
