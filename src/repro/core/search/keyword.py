"""Keyword (metadata) search over model cards: BM25.

This is "the current solution pipeline" the paper describes — search
over names and documentation — implemented properly (Okapi BM25) so it
is a strong baseline.  Its failure mode is the paper's motivation: it
can only ever be as good as the cards.

The index is frozen at construction: one vectorized pass turns the
corpus into a per-term weight table (row offsets, int32 doc positions,
float64 BM25 weights), and a query adds the rows of its tokens into one
dense score vector.  Each weight is computed with the textbook
expression and each doc's score sums its terms' weights in query-token
order, so scores are bit-identical to a per-posting dict scorer.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.index.flat import id_ranks, top_k
from repro.lake.lake import ModelLake
from repro.utils.text import simple_tokenize


class BM25Index:
    """Okapi BM25 over a fixed corpus of ``(doc_id, text)`` pairs.

    A repeated doc id keeps its last text.  Rebuild the index to change
    the corpus.
    """

    def __init__(
        self,
        docs: Iterable[Tuple[str, str]] = (),
        k1: float = 1.5,
        b: float = 0.75,
    ):
        if k1 <= 0 or not 0 <= b <= 1:
            raise ConfigError(f"invalid BM25 params k1={k1}, b={b}")
        self.k1 = k1
        self.b = b
        texts = dict(docs)
        self._ids: List[str] = list(texts)
        self._id_rank = id_ranks(self._ids)
        num_docs = len(self._ids)
        # Token -> term row, numbered in first-seen order: a missing key
        # is assigned the next row as it is looked up.
        vocab: Dict[str, int] = defaultdict()
        vocab.default_factory = vocab.__len__
        lengths: List[int] = []

        def term_rows(text: str) -> Iterator[int]:
            tokens = simple_tokenize(text)
            lengths.append(len(tokens))
            return map(vocab.__getitem__, tokens)

        terms = np.fromiter(
            chain.from_iterable(map(term_rows, texts.values())), dtype=np.int32
        )
        del texts
        # Frozen: from here on a lookup of an unknown token raises (and
        # ``get`` never inserts).
        vocab.default_factory = None
        #: Token -> row of the weight table.
        self._rows = vocab
        self._avg_length = sum(lengths) / num_docs if num_docs else 0.0

        # One sorted key per (term, doc) occurrence; its run length is tf.
        # Build temporaries are freed as soon as they are used, since a
        # server pays its start-up peak in resident memory for good.
        stride = max(num_docs, 1)
        doc_lengths = np.array(lengths, dtype=np.int64)
        keys = terms.astype(np.int64)
        del terms
        keys *= stride
        keys += np.repeat(np.arange(num_docs, dtype=np.int64), doc_lengths)
        keys, tf = np.unique(keys, return_counts=True)
        term_of, docs_of = np.divmod(keys, stride)
        del keys
        df = np.bincount(term_of, minlength=len(vocab))
        #: Row r spans ``[_offsets[r], _offsets[r + 1])`` of the arrays
        #: below; docs ascend within a row.
        self._offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(df, out=self._offsets[1:])
        self._docs = docs_of.astype(np.int32)

        # BM25 term by term, with the operations of the scalar formula
        # idf * tf * (k1 + 1) / (tf + k1 * length_norm), idf via math.log;
        # in-place steps round exactly as the scalar ones do.
        ratios = 1.0 + (num_docs - df + 0.5) / (df + 0.5)
        idf = np.array([math.log(r) for r in ratios.tolist()], dtype=np.float64)
        length_norm = 1.0 - b + b * (doc_lengths / max(self._avg_length, 1e-9))
        tf = tf.astype(np.float64)
        weights = idf[term_of]
        del term_of
        weights *= tf
        weights *= k1 + 1
        denominator = length_norm[docs_of]
        del docs_of
        denominator *= k1
        denominator += tf
        weights /= denominator
        self._weights = weights

    def __len__(self) -> int:
        return len(self._ids)

    def query(self, text: str, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k (doc_id, bm25 score), best first; empty-score docs omitted.

        Ties order by doc id.
        """
        scores = np.zeros(len(self._ids), dtype=np.float64)
        touched = np.zeros(len(self._ids), dtype=bool)
        for token in simple_tokenize(text):
            row = self._rows.get(token)
            if row is None:
                continue
            start, stop = self._offsets[row], self._offsets[row + 1]
            docs = self._docs[start:stop]
            # Docs are unique within a row, so the buffered += is exact.
            scores[docs] += self._weights[start:stop]
            touched[docs] = True
        candidates = np.flatnonzero(touched)
        scores = scores[candidates]
        top = top_k(scores, self._id_rank[candidates], k)
        return [(self._ids[candidates[i]], float(scores[i])) for i in top]


def build_card_index(lake: ModelLake) -> BM25Index:
    """BM25 index over every model card in the lake."""
    return BM25Index((record.model_id, record.card.text()) for record in lake)
