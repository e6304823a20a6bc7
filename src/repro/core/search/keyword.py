"""Keyword (metadata) search over model cards: BM25.

This is "the current solution pipeline" the paper describes — search
over names and documentation — implemented properly (Okapi BM25) so it
is a strong baseline.  Its failure mode is the paper's motivation: it
can only ever be as good as the cards.

The index is frozen at construction: one vectorized pass turns the
corpus into a per-term postings table (row offsets, then each posting's
doc position and term frequency in the narrowest unsigned dtypes that
hold them) plus a float64 idf per row and length norm per doc.  A query
computes the BM25 weights of its tokens' rows from those, with the
textbook expression's operations in its order, and adds them into one
dense score vector in query-token order, so scores are bit-identical to
a per-posting dict scorer.  A posting costs 3 bytes, not the 12 of an
int32 position and a float64 weight, on any lake of at most 65,536 docs
whose cards repeat no token 256 times.

Rows are numbered in sorted-token order, and the vocabulary is kept as
one sorted array of the tokens' ASCII bytes (``S<w>``, ``w`` the
longest token), not a dict: a query finds the rows of all its tokens
with one ``np.searchsorted``, and a token longer than ``w`` misses
without being compared (it must not match its own truncation).

The table depends only on the corpus and ``(k1, b)``, so a lake keeps it
in its cache directory as ``bm25.npz`` (:meth:`BM25Index.cached`),
stamped with a digest of the table format, the parameters, the corpus
size and the :func:`~repro.lake.table.column_digest` of its id and text
columns.  A warm lake's record table stores those column digests
(:meth:`~repro.lake.lake.ModelLake.column_digest`), so a warm open
whose digest matches loads the arrays without rendering, let alone
re-tokenizing, a single card; the card texts are rendered only to
build.  Any other file is rebuilt and overwritten.  Loaded and built
tables are installed by the same step and are bit-identical, so a
loaded index ranks exactly as a fresh build.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import defaultdict
from itertools import chain
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

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
_TABLE_VERSION = 4
#: The members of a table file, in the order ``_save`` writes them.
_MEMBERS = ["digest", "vocab", "offsets", "docs", "tf", "idf", "length_norm",
            "avg_length"]


def _narrow(values: np.ndarray, top: int) -> np.ndarray:
    """``values`` (each in ``[0, top]``) in the smallest unsigned dtype
    that holds ``top``."""
    return values.astype(np.min_scalar_type(max(top, 0)))


def corpus_digest(
    ids: str, texts: str, n: int, k1: float = 1.5, b: float = 0.75
) -> str:
    """sha256 naming the table ``BM25Index(zip(ids, texts), k1, b)``
    builds over ``n`` distinct ids.

    Covers the table format, the parameters, ``n`` and the
    :func:`~repro.lake.table.column_digest` of the packed id column
    (``ids``) and text column (``texts``).
    """
    return hashlib.sha256(
        f"bm25 v{_TABLE_VERSION} k1={k1!r} b={b!r} n={n} "
        f"ids={ids} texts={texts}\n".encode()
    ).hexdigest()


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
        texts = dict(docs)
        self._build(list(texts), texts.values(), k1, b)

    @classmethod
    def _over(
        cls, ids: Sequence[str], texts: Iterable[str], k1: float = 1.5,
        b: float = 0.75,
    ) -> "BM25Index":
        """The index of distinct ``ids`` with their aligned ``texts``,
        keeping ``ids`` itself (a lake's id column, with its rank)."""
        index = cls.__new__(cls)
        index._build(ids, texts, k1, b)
        return index

    def _build(
        self, ids: Sequence[str], texts: Iterable[str], k1: float, b: float
    ) -> None:
        """Build the table of distinct ``ids`` and their aligned ``texts``."""
        self._set_params(k1, b)
        num_docs = len(ids)
        # Token -> term id, numbered in first-seen order: a missing key
        # is assigned the next id as it is looked up.
        vocab: Dict[str, int] = defaultdict()
        vocab.default_factory = vocab.__len__
        lengths: List[int] = []

        def term_rows(text: str) -> Iterator[int]:
            tokens = simple_tokenize(text)
            lengths.append(len(tokens))
            return map(vocab.__getitem__, tokens)

        terms = np.fromiter(
            chain.from_iterable(map(term_rows, texts)), dtype=np.int32
        )
        # Renumber the terms as rows in sorted-token order.
        tokens = list(vocab)
        order = sorted(range(len(tokens)), key=tokens.__getitem__)
        row_of = np.empty(len(tokens), dtype=np.int32)
        row_of[order] = np.arange(len(tokens), dtype=np.int32)
        terms = row_of[terms]
        # Tokens are ASCII ([a-z0-9_]), so str order is their bytes' order.
        sorted_vocab = np.array([tokens[i] for i in order], dtype=bytes)
        del vocab, tokens, order, row_of
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
        df = np.bincount(term_of, minlength=len(sorted_vocab))
        del term_of
        offsets = np.zeros(len(sorted_vocab) + 1, dtype=np.int64)
        np.cumsum(df, out=offsets[1:])

        # The parts of idf * tf * (k1 + 1) / (tf + k1 * length_norm) that
        # are not per posting: idf per row (via math.log, as the scalar
        # formula takes it) and the length norm per doc.  A query
        # combines them with its rows' term frequencies.
        ratios = 1.0 + (num_docs - df + 0.5) / (df + 0.5)
        idf = np.array([math.log(r) for r in ratios.tolist()], dtype=np.float64)
        length_norm = 1.0 - b + b * (doc_lengths / max(avg_length, 1e-9))
        self._install(
            ids, sorted_vocab, offsets, _narrow(docs_of, num_docs - 1),
            _narrow(tf, int(tf.max(initial=0))), idf, length_norm, avg_length,
        )

    def _set_params(self, k1: float, b: float) -> None:
        if k1 <= 0 or not 0 <= b <= 1:
            raise ConfigError(f"invalid BM25 params k1={k1}, b={b}")
        self.k1 = k1
        self.b = b

    def _install(
        self,
        ids: Sequence[str],
        vocab: np.ndarray,
        offsets: np.ndarray,
        docs: np.ndarray,
        tf: np.ndarray,
        idf: np.ndarray,
        length_norm: np.ndarray,
        avg_length: float,
    ) -> None:
        """Make a postings table this index's state, built or loaded."""
        self._ids = ids
        self._id_rank = id_ranks(ids)
        #: Row r's token, as ASCII bytes; sorted, so rows are in token order.
        self._vocab = vocab
        #: Row r spans ``[_offsets[r], _offsets[r + 1])`` of ``_docs``
        #: (doc positions, ascending within a row) and ``_tf`` (the
        #: token's count in each of those docs); ``_idf[r]`` is its idf.
        self._offsets = offsets
        self._docs = docs
        self._tf = tf
        self._idf = idf
        #: Per doc: ``1 - b + b * length / avg_length``.
        self._length_norm = length_norm
        self._avg_length = avg_length

    def table_bytes(self) -> Tuple[int, int]:
        """``(held, bound)``: the bytes of every array this index keeps,
        and what :meth:`_install`'s layout allows.

        The bound is 3 bytes per posting (a uint16 doc position and a
        uint8 term frequency, which hold on a lake of at most 65,536
        docs whose cards repeat no token 256 times), 16 per row (offset
        and idf), 16 per doc (length norm and id rank), the final
        offset and the vocabulary.  Both count array bytes, not
        resident pages, so they do not depend on the host.
        """
        held = sum(value.nbytes for value in vars(self).values()
                   if isinstance(value, np.ndarray))
        rows, docs = len(self._vocab), len(self)
        postings = int(self._offsets[-1])
        bound = 3 * postings + 16 * rows + 8 + 16 * docs + self._vocab.nbytes
        return held, bound

    @classmethod
    def cached(
        cls,
        ids: Sequence[str],
        digest: str,
        texts: Callable[[], Iterable[str]],
        path: str,
        k1: float = 1.5,
        b: float = 0.75,
    ) -> "BM25Index":
        """``BM25Index(zip(ids, texts()), k1, b)`` over distinct ``ids``,
        loaded from ``path`` when it holds that table, else built and
        written to ``path``.  Either way the index keeps ``ids`` itself.

        ``digest`` is the table's :func:`corpus_digest`; the texts
        themselves are asked of ``texts()`` only to build.  A missing,
        foreign, stale or unreadable file is rebuilt and overwritten
        atomically; if that write fails (a read-only lake, say) the
        built index is returned all the same.
        """
        index = cls._load(path, digest, ids, k1, b)
        if index is None:
            index = cls._over(ids, texts(), k1, b)
            try:
                index._save(path, digest)
            except OSError as exc:
                _log.warning("bm25.save_failed", path=path, error=str(exc))
        return index

    @classmethod
    def _load(
        cls, path: str, digest: str, ids: Sequence[str], k1: float, b: float
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
            ids, table["vocab"], table["offsets"], table["docs"], table["tf"],
            table["idf"], table["length_norm"], float(table["avg_length"]),
        )
        _log.debug("bm25.loaded", path=path, docs=len(index))
        return index

    def _save(self, path: str, digest: str) -> None:
        atomic_write_npz(path, {
            "digest": np.array(digest),
            "vocab": self._vocab,
            "offsets": self._offsets,
            "docs": self._docs,
            "tf": self._tf,
            "idf": self._idf,
            "length_norm": self._length_norm,
            "avg_length": np.array(self._avg_length, dtype=np.float64),
        })
        _log.debug("bm25.saved", path=path, docs=len(self))

    def __len__(self) -> int:
        return len(self._ids)

    def query(self, text: str, k: int = 10) -> List[Tuple[str, float]]:
        """Top-k (doc_id, bm25 score), best first; empty-score docs omitted.

        Ties order by doc id.
        """
        rows = self._rows_of(simple_tokenize(text))
        if not rows:
            return []
        starts = self._offsets[rows].tolist()
        stops = self._offsets[np.add(rows, 1)].tolist()
        # The query's postings, row after row in query-token order.  One
        # conversion to intp serves every gather by doc position.
        docs = np.concatenate(
            [self._docs[a:z] for a, z in zip(starts, stops)], dtype=np.intp
        )
        tf = np.concatenate([self._tf[a:z] for a, z in zip(starts, stops)])
        # idf * tf * (k1 + 1) / (tf + k1 * length_norm), each step
        # rounding as the scalar formula's does.
        weights = np.repeat(self._idf[rows], np.subtract(stops, starts))
        weights *= tf
        weights *= self.k1 + 1
        denominator = self._length_norm[docs]
        denominator *= self.k1
        denominator += tf
        weights /= denominator
        # bincount adds in array order, so each doc's score sums its
        # terms' weights from 0.0 in query-token order.
        scores = np.bincount(docs, weights, minlength=len(self._ids))
        touched = np.zeros(len(self._ids), dtype=bool)
        touched[docs] = True
        candidates = np.flatnonzero(touched)
        scores = scores[candidates]
        top = top_k(scores, self._id_rank[candidates], k)
        return [(self._ids[candidates[i]], float(scores[i])) for i in top]

    def _rows_of(self, tokens: List[str]) -> List[int]:
        """The table row of each of ``tokens`` in the vocabulary, in
        order and with repeats, skipping the tokens it lacks: one
        ``np.searchsorted`` for them all."""
        vocab = self._vocab
        width = vocab.dtype.itemsize
        # A longer token is in no row; cast to ``S<w>`` it would match
        # its own truncation.
        wanted = np.array([t for t in tokens if len(t) <= width], dtype=vocab.dtype)
        if not len(wanted) or not len(vocab):
            return []
        # Array methods, not the np.* wrappers: this runs once per query.
        rows = vocab.searchsorted(wanted)
        return rows[vocab.take(rows, mode="clip") == wanted].tolist()


def build_card_index(lake: ModelLake, cache_dir: Optional[str] = None) -> BM25Index:
    """BM25 index over every model card in the lake.

    With ``cache_dir`` the frozen table is kept in
    ``<cache_dir>/bm25.npz``: loaded when it was written for these
    cards, built and (re)written otherwise (:meth:`BM25Index.cached`).
    The table's key is taken over the digests of the lake's id and text
    columns (:meth:`~repro.lake.lake.ModelLake.column_digest`), so a
    warm load renders no card text.  The index keeps the lake's id
    column (:meth:`~repro.lake.lake.ModelLake.id_column`) and its rank.
    """
    ids = lake.id_column()
    if cache_dir is None:
        return BM25Index._over(ids, lake.card_texts())
    digest = corpus_digest(
        lake.column_digest("ids"), lake.column_digest("texts"), len(ids)
    )
    return BM25Index.cached(
        ids, digest, lake.card_texts, os.path.join(cache_dir, TABLE_FILE),
    )
