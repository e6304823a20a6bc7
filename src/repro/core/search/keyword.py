"""Keyword (metadata) search over model cards: BM25.

This is "the current solution pipeline" the paper describes — search
over names and documentation — implemented properly (BM25 with an
inverted index) so it is a strong baseline.  Its failure mode is the
paper's motivation: it can only ever be as good as the cards.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError
from repro.lake.lake import ModelLake
from repro.utils.text import simple_tokenize


class BM25Index:
    """Okapi BM25 over arbitrary (doc_id, text) pairs."""

    def __init__(self, k1: float = 1.5, b: float = 0.75):
        if k1 <= 0 or not 0 <= b <= 1:
            raise ConfigError(f"invalid BM25 params k1={k1}, b={b}")
        self.k1 = k1
        self.b = b
        self._postings: Dict[str, Dict[str, int]] = defaultdict(dict)
        self._doc_lengths: Dict[str, int] = {}
        #: Running sum of ``_doc_lengths`` (exact: integers), so ``add``
        #: stays O(len(text)) instead of re-summing every document.
        self._total_length = 0
        self._avg_length = 0.0

    def __len__(self) -> int:
        return len(self._doc_lengths)

    def add(self, doc_id: str, text: str) -> None:
        """Index ``text`` under ``doc_id``, replacing any earlier text."""
        old_length = self._doc_lengths.get(doc_id)
        if old_length is not None:
            # Re-adding is rare; a postings sweep keeps the common path
            # free of per-document term lists.
            self._total_length -= old_length
            for token in list(self._postings):
                posting = self._postings[token]
                if posting.pop(doc_id, None) is not None and not posting:
                    del self._postings[token]
        tokens = simple_tokenize(text)
        self._doc_lengths[doc_id] = len(tokens)
        self._total_length += len(tokens)
        counts: Dict[str, int] = defaultdict(int)
        for token in tokens:
            counts[token] += 1
        for token, count in counts.items():
            self._postings[token][doc_id] = count
        self._avg_length = self._total_length / len(self._doc_lengths)

    def query(self, text: str, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k (doc_id, bm25 score), best first; empty-score docs omitted."""
        if not self._doc_lengths:
            return []
        num_docs = len(self._doc_lengths)
        scores: Dict[str, float] = defaultdict(float)
        for token in simple_tokenize(text):
            posting = self._postings.get(token)
            if not posting:
                continue
            df = len(posting)
            idf = math.log(1.0 + (num_docs - df + 0.5) / (df + 0.5))
            for doc_id, tf in posting.items():
                length_norm = 1.0 - self.b + self.b * (
                    self._doc_lengths[doc_id] / max(self._avg_length, 1e-9)
                )
                scores[doc_id] += idf * tf * (self.k1 + 1) / (tf + self.k1 * length_norm)
        ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:k]


def build_card_index(lake: ModelLake) -> BM25Index:
    """BM25 index over every model card in the lake."""
    index = BM25Index()
    for record in lake:
        index.add(record.model_id, record.card.text())
    return index
