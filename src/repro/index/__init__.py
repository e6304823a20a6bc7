"""Embedders and nearest-neighbor indexes over model embeddings."""

from repro.utils.lazy import lazy_exports

#: Public name -> the module defining it, imported on first use.
_EXPORTS = {
    "BehavioralEmbedder": "repro.index.embedders",
    "ConcatEmbedder": "repro.index.embedders",
    "EmbeddingCache": "repro.index.cache",
    "MetadataEmbedder": "repro.index.embedders",
    "OutputEmbedder": "repro.index.embedders",
    "WeightStatEmbedder": "repro.index.embedders",
    "l2_normalize": "repro.index.embedders",
    "FlatIndex": "repro.index.flat",
    "HNSWIndex": "repro.index.hnsw",
    "LSHIndex": "repro.index.lsh",
    "measure_recall": "repro.index.metrics",
    "recall_at_k": "repro.index.metrics",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
