"""Embedders and nearest-neighbor indexes over model embeddings."""

from repro.index.cache import EmbeddingCache
from repro.index.embedders import (
    BehavioralEmbedder,
    ConcatEmbedder,
    MetadataEmbedder,
    OutputEmbedder,
    WeightStatEmbedder,
    l2_normalize,
)
from repro.index.flat import FlatIndex
from repro.index.hnsw import HNSWIndex
from repro.index.lsh import LSHIndex
from repro.index.metrics import measure_recall, recall_at_k

__all__ = [
    "BehavioralEmbedder", "ConcatEmbedder", "EmbeddingCache",
    "MetadataEmbedder", "OutputEmbedder", "WeightStatEmbedder",
    "l2_normalize", "FlatIndex", "HNSWIndex", "LSHIndex",
    "measure_recall", "recall_at_k",
]
