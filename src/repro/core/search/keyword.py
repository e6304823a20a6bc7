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
stamped with a digest of the card corpus, the parameters and the table
format.  A warm open whose digest matches loads the arrays instead of
re-tokenizing every card; any other file is rebuilt and overwritten.
Loaded and built tables are installed by the same step and are
bit-identical, so a loaded index ranks exactly as a fresh build.
"""

from __future__ import annotations

import hashlib
import math
import os
import zipfile
from collections import defaultdict
from itertools import chain
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.index.flat import id_ranks, top_k
from repro.lake.lake import ModelLake
from repro.obs.logging import get_logger
from repro.reliability.atomic import atomic_write_npz
from repro.utils.text import simple_tokenize

_log = get_logger("search.keyword")

#: The frozen table's file name inside a cache directory.
TABLE_FILE = "bm25.npz"
#: Part of every corpus digest: bump it when the saved members or their
#: meaning change, and every older file reads as a miss.
_TABLE_VERSION = 1
#: The members of a table file, in the order ``_save`` writes them.
_MEMBERS = ["digest", "vocab", "offsets", "docs", "weights", "avg_length"]


def corpus_digest(docs: Sequence[Tuple[str, str]], k1: float, b: float) -> str:
    """sha256 naming the table ``BM25Index(docs, k1, b)`` builds.

    Covers the table format, the parameters, and every id and text in
    order; hashing each field's length makes the joined text parse one
    way only.
    """
    fields = list(chain.from_iterable(docs))
    digest = hashlib.sha256(
        f"bm25 v{_TABLE_VERSION} k1={k1!r} b={b!r} n={len(docs)}\n".encode()
    )
    digest.update(np.fromiter(map(len, fields), dtype=np.int64,
                              count=len(fields)).tobytes())
    digest.update("".join(fields).encode("utf-8", "surrogatepass"))
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
        docs: Iterable[Tuple[str, str]],
        path: str,
        k1: float = 1.5,
        b: float = 0.75,
    ) -> "BM25Index":
        """``BM25Index(docs, k1, b)``, loaded from ``path`` when it holds
        that table, else built and written to ``path``.

        A missing, foreign, stale or unreadable file is rebuilt and
        overwritten atomically; if that write fails (a read-only lake,
        say) the built index is returned all the same.
        """
        docs = list(docs)
        digest = corpus_digest(docs, k1, b)
        index = cls._load(path, digest, docs, k1, b)
        if index is None:
            index = cls(docs, k1, b)
            try:
                index._save(path, digest)
            except OSError as exc:
                _log.warning("bm25.save_failed", path=path, error=str(exc))
        return index

    @classmethod
    def _load(
        cls,
        path: str,
        digest: str,
        docs: List[Tuple[str, str]],
        k1: float,
        b: float,
    ) -> Optional["BM25Index"]:
        """The table at ``path`` if it was saved under ``digest``, else None."""
        try:
            # np.load reads from our handle: given a path, it returns a
            # bare array for an .npy file and leaks its own handle when a
            # zip fails to parse.
            with open(path, "rb") as handle:
                archive = np.load(handle)  # repro: noqa[whole-file-read]
                if (getattr(archive, "files", None) != _MEMBERS
                        or archive["digest"].tolist() != digest):
                    return None
                table = {name: archive[name] for name in _MEMBERS[1:]}
        except FileNotFoundError:
            return None
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            _log.warning("bm25.unreadable", path=path, error=str(exc))
            return None
        index = cls.__new__(cls)
        index._set_params(k1, b)
        # The digest covers every id in order, so the ids are those a
        # build from ``docs`` keeps: first-seen order, repeats merged.
        index._install(
            list(dict.fromkeys(doc_id for doc_id, _ in docs)),
            table["vocab"].tolist(), table["offsets"], table["docs"],
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
    """
    docs = [(record.model_id, record.card.text()) for record in lake]
    if cache_dir is None:
        return BM25Index(docs)
    return BM25Index.cached(docs, os.path.join(cache_dir, TABLE_FILE))
