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

The table depends only on the corpus and ``(k1, b)``, so a lake keeps it
in its cache directory as ``bm25.npz`` (:meth:`BM25Index.cached`),
stamped with a digest of the corpus, the parameters and the table
format.  The digest is taken over the corpus *packed*: the ids and the
texts each as one UTF-8 blob plus int64 offsets, the layout in which a
warm lake's record table already holds them
(:meth:`~repro.lake.lake.ModelLake.packed_column`).  So a warm open
whose digest matches loads the arrays without decoding, let alone
re-tokenizing, a single card; the card texts are decoded only to build.
Any other file is rebuilt and overwritten.  Loaded and built tables are
installed by the same step and are bit-identical, so a loaded index
ranks exactly as a fresh build.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import defaultdict
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.index.flat import id_ranks, top_k
from repro.lake.lake import ModelLake
from repro.obs.logging import get_logger
from repro.reliability.atomic import atomic_write_npz, read_npz
from repro.utils.text import simple_tokenize

_log = get_logger("search.keyword")

#: The frozen table's file name inside a cache directory.
TABLE_FILE = "bm25.npz"
#: Part of every corpus digest: bump it when the saved members or their
#: meaning change, and every older file reads as a miss.
_TABLE_VERSION = 2
#: The members of a table file, in the order ``_save`` writes them.
_MEMBERS = ["digest", "vocab", "offsets", "docs", "weights", "avg_length"]


#: A string column packed as a UTF-8 blob plus int64 offsets.
Packed = Tuple[np.ndarray, np.ndarray]


def corpus_digest(
    ids: Packed, texts: Packed, k1: float = 1.5, b: float = 0.75
) -> str:
    """sha256 naming the table ``BM25Index(zip(ids, texts), k1, b)`` builds.

    Covers the table format, the parameters, and the packed id and text
    columns (:func:`~repro.lake.table.pack_strings`); hashing each
    column's offsets as well as its blob makes the fields parse one way
    only.
    """
    digest = hashlib.sha256(
        f"bm25 v{_TABLE_VERSION} k1={k1!r} b={b!r} n={len(ids[1]) - 1}\n".encode()
    )
    for blob, offsets in (ids, texts):
        digest.update(np.asarray(offsets, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(blob, dtype=np.uint8).data)
    return digest.hexdigest()


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
        self._set_params(k1, b)
        texts = dict(docs)
        ids = list(texts)
        num_docs = len(ids)
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
        avg_length = sum(lengths) / num_docs if num_docs else 0.0

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
        offsets = np.zeros(len(vocab) + 1, dtype=np.int64)
        np.cumsum(df, out=offsets[1:])
        doc_positions = docs_of.astype(np.int32)
        del docs_of

        # BM25 term by term, with the operations of the scalar formula
        # idf * tf * (k1 + 1) / (tf + k1 * length_norm), idf via math.log;
        # in-place steps round exactly as the scalar ones do.
        ratios = 1.0 + (num_docs - df + 0.5) / (df + 0.5)
        idf = np.array([math.log(r) for r in ratios.tolist()], dtype=np.float64)
        length_norm = 1.0 - b + b * (doc_lengths / max(avg_length, 1e-9))
        tf = tf.astype(np.float64)
        weights = idf[term_of]
        del term_of
        weights *= tf
        weights *= k1 + 1
        denominator = length_norm[doc_positions]
        denominator *= k1
        denominator += tf
        weights /= denominator
        self._install(ids, list(vocab), offsets, doc_positions, weights,
                      avg_length)

    def _set_params(self, k1: float, b: float) -> None:
        if k1 <= 0 or not 0 <= b <= 1:
            raise ConfigError(f"invalid BM25 params k1={k1}, b={b}")
        self.k1 = k1
        self.b = b

    def _install(
        self,
        ids: List[str],
        vocab: List[str],
        offsets: np.ndarray,
        docs: np.ndarray,
        weights: np.ndarray,
        avg_length: float,
    ) -> None:
        """Make a weight table this index's state, built or loaded."""
        self._ids = ids
        self._id_rank = id_ranks(ids)
        #: Token -> row of the weight table; ``vocab`` is in row order.
        self._rows: Dict[str, int] = dict(zip(vocab, range(len(vocab))))
        #: Row r spans ``[_offsets[r], _offsets[r + 1])`` of ``_docs``
        #: (int32 doc positions, ascending within a row) and ``_weights``.
        self._offsets = offsets
        self._docs = docs
        self._weights = weights
        self._avg_length = avg_length

    @classmethod
    def cached(
        cls,
        ids: List[str],
        digest: str,
        texts: Callable[[], Iterable[str]],
        path: str,
        k1: float = 1.5,
        b: float = 0.75,
    ) -> "BM25Index":
        """``BM25Index(zip(ids, texts()), k1, b)`` over distinct ``ids``,
        loaded from ``path`` when it holds that table, else built and
        written to ``path``.

        ``digest`` is the table's :func:`corpus_digest`; the texts
        themselves are asked of ``texts()`` only to build.  A missing,
        foreign, stale or unreadable file is rebuilt and overwritten
        atomically; if that write fails (a read-only lake, say) the
        built index is returned all the same.
        """
        index = cls._load(path, digest, ids, k1, b)
        if index is None:
            index = cls(zip(ids, texts()), k1, b)
            try:
                index._save(path, digest)
            except OSError as exc:
                _log.warning("bm25.save_failed", path=path, error=str(exc))
        return index

    @classmethod
    def _load(
        cls, path: str, digest: str, ids: List[str], k1: float, b: float
    ) -> Optional["BM25Index"]:
        """The table at ``path`` if it was saved under ``digest``, else None.

        The digest covers every id in order, so ``ids`` (distinct) are
        the ids a build of that corpus keeps.
        """
        table = read_npz(path, _MEMBERS)
        if table is None or table["digest"].tolist() != digest:
            return None
        index = cls.__new__(cls)
        index._set_params(k1, b)
        index._install(
            ids, table["vocab"].tolist(), table["offsets"], table["docs"],
            table["weights"], float(table["avg_length"]),
        )
        _log.debug("bm25.loaded", path=path, docs=len(index))
        return index

    def _save(self, path: str, digest: str) -> None:
        atomic_write_npz(path, {
            "digest": np.array(digest),
            "vocab": np.array(list(self._rows), dtype=str),
            "offsets": self._offsets,
            "docs": self._docs,
            "weights": self._weights,
            "avg_length": np.array(self._avg_length, dtype=np.float64),
        })
        _log.debug("bm25.saved", path=path, docs=len(self))

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


def build_card_index(lake: ModelLake, cache_dir: Optional[str] = None) -> BM25Index:
    """BM25 index over every model card in the lake.

    With ``cache_dir`` the frozen table is kept in
    ``<cache_dir>/bm25.npz``: loaded when it was written for these
    cards, built and (re)written otherwise (:meth:`BM25Index.cached`).
    The table's key is taken over the lake's packed id and text columns
    (:meth:`~repro.lake.lake.ModelLake.packed_column`), so a warm load
    decodes no card text.
    """
    if cache_dir is None:
        return BM25Index(zip(lake.model_ids(), lake.card_texts()))
    digest = corpus_digest(lake.packed_column("ids"), lake.packed_column("texts"))
    return BM25Index.cached(
        lake.model_ids(), digest, lake.card_texts,
        os.path.join(cache_dir, TABLE_FILE),
    )
