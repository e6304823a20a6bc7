"""The record table: a persisted lake's records as columns, for warm opens.

Decoding ``manifest.json`` and building a :class:`ModelRecord` for every
entry is most of what opening a large lake costs, yet a search server
needs only each model's id and weight digest up front, a key naming its
card texts, and one record's metadata per ``/model`` request.
:func:`load_lake` therefore keeps those columns in
``<lake>/cache/records.npz``:

* ``ids``, ``digests`` — model ids and weight digests, in
  ``created_at`` order, each a UTF-8 blob plus ``<name>_offsets``;
  ``ids_order`` lists the rows in ``str`` order of their ids (Python's
  ``sorted`` at write time, in the narrowest unsigned dtype);
* ``column_sha256`` — the :func:`column_digest` of the ``ids``,
  ``digests`` and ``texts`` columns, ``texts`` being the
  :meth:`ModelCard.text` renderings (BM25's documents).  The texts
  themselves are not stored: the BM25 table's cache key needs only
  their digest (:mod:`repro.core.search.keyword`), and a BM25 build
  renders them from the entries;
* ``entries`` — each record's manifest entry as compact JSON, in zlib
  blocks of :data:`_BLOCK` entries bounded by ``entry_blocks``;
  ``entries_offsets`` bounds each entry in the uncompressed stream.  A
  record is decoded only when it is first asked for;
* ``created``, ``clock``, ``layout``, ``datasets`` — what the load path
  needs besides the records: the timestamps the clock check reads, the
  logical clock, the shard layout and the manifest's dataset section.

An open table stays packed, and on disk: every member is checked
(size and CRC) and then served as a read-only view of one mapping of
the file, which pins its inode and holds no descriptor, so an atomic
replace of the file after the open changes nothing the table decodes,
and the pages of the ``entries`` no request asks for are never read.
No id is decoded up front: the ids are one :class:`IdColumn` over the
``ids`` blob and ``ids_order``, which decodes an id when a hit or a
lookup asks for it, and whose id rank the lake's indexes share.  The
``digests`` column is decoded on each :meth:`RecordTable.column` call,
and the entries stay compressed but for the one block last read.
:meth:`RecordTable.packed` hands out a string column's blob and
offsets as stored, which is all the embedding gather needs
(:func:`repro.core.search.behavioral.embedding_index` views the digest
blob as fixed-width bytes).  :meth:`RecordTable.column` renders
``texts`` from the entries without keeping a decoded record.

The ``key`` member is the sha256 of the manifest bytes plus
:data:`_TABLE_VERSION`, so any change to the manifest, or to the code
that derives a column, turns the file into a miss.  A table is only
written after a full load of those exact bytes passed every check, and
a hit re-runs the clock check on the stored timestamps (in place: they
must increase strictly, and the last must not pass the clock).

The manifest stays the lake's only source of truth: the table lives in
``cache/`` (which ``fsck`` ignores), can be deleted at any time, and is
rewritten by the next load.  While a lake is open, the file may only be
deleted or replaced by a rename (as :func:`write_table` does), never
written in place: an open table reads its pages from the mapping, and
a page cut off by a truncation kills the process with ``SIGBUS``.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import operator
import threading
import zlib
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.lake.card import ModelCard
from repro.lake.record import ModelHistory, ModelRecord
from repro.lake.shard import ShardLayout
from repro.reliability.atomic import atomic_write_npz, map_npz
from repro.transforms.base import TransformRecord

#: The table's file name inside a lake's cache directory.
TABLE_FILE = "records.npz"

#: Part of every key.  Bump it when the members or their meaning change,
#: and when :meth:`ModelCard.text` renders differently (the ``texts``
#: digest is derived by it), so every older file reads as a miss.
_TABLE_VERSION = 4

#: Entries per zlib block of the ``entries`` column.
_BLOCK = 64

#: String columns, each stored as one blob plus ``<name>_offsets``
#: (the ``entries`` blob holds zlib blocks; its offsets bound each
#: entry in the decompressed stream).
_STRING_COLUMNS = ("ids", "digests", "entries")

#: The columns whose :func:`column_digest` the ``column_sha256`` member
#: holds, in that order.
_DIGESTED = ("ids", "digests", "texts")

#: The members of a table file, in the order :func:`write_table` writes them.
_MEMBERS = ["key", "clock", "layout", "datasets", "created"] + [
    member
    for column in _STRING_COLUMNS
    for member in (column, f"{column}_offsets")
] + ["ids_order", "entry_blocks", "column_sha256"]

#: A string column packed as a UTF-8 blob plus int64 offsets.
Packed = Tuple[np.ndarray, np.ndarray]


def table_key(manifest_sha256: str) -> str:
    """The key of the table for a manifest whose bytes hash to ``manifest_sha256``."""
    return f"records v{_TABLE_VERSION} manifest sha256 {manifest_sha256}"


def _history_from_dict(payload: Dict) -> ModelHistory:
    transform = None
    if payload.get("transform"):
        t = payload["transform"]
        transform = TransformRecord(
            kind=t["kind"], params=dict(t.get("params") or {}),
            dataset_digest=t.get("dataset_digest"),
            dataset_name=t.get("dataset_name"), seed=t.get("seed", 0),
        )
    return ModelHistory(
        parent_ids=tuple(payload.get("parent_ids") or ()),
        transform=transform,
        dataset_digest=payload.get("dataset_digest"),
        dataset_name=payload.get("dataset_name"),
        algorithm=payload.get("algorithm", "train_from_scratch"),
        seed=payload.get("seed", 0),
    )


def record_from_entry(entry: Dict) -> ModelRecord:
    """The record one decoded manifest entry describes."""
    history = (
        _history_from_dict(entry["history"]) if entry.get("history") else None
    )
    return ModelRecord(
        model_id=entry["model_id"],
        name=entry["name"],
        architecture=dict(entry["architecture"]),
        weights_digest=entry["weights_digest"],
        card=ModelCard(**dict(entry["card"])),
        history=history,
        history_public=entry.get("history_public", True),
        weights_public=entry.get("weights_public", True),
        created_at=entry["created_at"],
        tags=list(entry.get("tags") or []),
        eval_metrics={
            metric: float(value)
            for metric, value in (entry.get("eval_metrics") or {}).items()
        },
    )


def id_order(ids: Sequence[str]) -> np.ndarray:
    """The rows of ``ids`` in ``str`` order of their ids (a stable
    Python sort, so exact for any code points), in the narrowest
    unsigned dtype that holds a row number."""
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return np.array(order, dtype=np.min_scalar_type(max(len(ids) - 1, 0)))


class IdColumn(Sequence[str]):
    """An immutable column of distinct model ids, packed, that decodes
    an id only when one is asked for.

    Row ``i`` is bytes ``offsets[i]:offsets[i + 1]`` of ``blob`` (UTF-8,
    surrogates passed through).  ``order`` lists the rows in ``str``
    order of their ids (:func:`id_order`), so :attr:`rank` -- each
    row's position in that order, the tie-break key of every ranked
    search -- is one scatter, and a lookup by id is a binary search of
    about ``log2(n)`` decodes.  A record table's column is read-only
    views of the table file's mapping.
    """

    def __init__(self, blob: np.ndarray, offsets: np.ndarray, order: np.ndarray):
        self._blob = blob
        self._offsets = offsets
        # Indexing a memoryview gives a Python int, with none of a
        # numpy scalar's overhead: one decode per hit matters.
        self._bytes = memoryview(blob)
        self._bounds = memoryview(offsets)
        self._sorted = memoryview(order)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        rank.flags.writeable = False
        #: Row -> position of its id in sorted id order.
        self.rank = rank

    def __len__(self) -> int:
        return len(self._sorted)

    def __getitem__(self, row: int) -> str:
        row = operator.index(row)
        if row < 0:
            row += len(self)
        if not 0 <= row < len(self):
            raise IndexError("id column row out of range")
        return str(
            self._bytes[self._bounds[row]:self._bounds[row + 1]],
            "utf-8", "surrogatepass",
        )

    def __iter__(self) -> Iterator[str]:
        return iter(_unpack(self._blob, self._offsets))

    def __contains__(self, model_id: object) -> bool:
        return self.find(model_id) >= 0

    def find(self, model_id: object) -> int:
        """The row holding ``model_id``, or -1."""
        if not isinstance(model_id, str):
            return -1
        position = bisect.bisect_left(self._sorted, model_id, key=self.__getitem__)
        if position < len(self) and self[self._sorted[position]] == model_id:
            return self._sorted[position]
        return -1

    def index(self, model_id: object) -> int:  # type: ignore[override]
        """The row holding ``model_id``; ValueError when none does."""
        row = self.find(model_id)
        if row < 0:
            raise ValueError(f"{model_id!r} is not in the id column")
        return row


class RecordTable:
    """A loaded record table: the columns, and records decoded on demand.

    Row ``i`` of every column describes the same model; rows are in
    ``created_at`` order.  :meth:`record` decodes a row's entry the
    first time it is asked for and returns that same object afterwards.
    """

    def __init__(
        self,
        clock: int,
        layout: ShardLayout,
        datasets: List[Dict],
        created: np.ndarray,
        ids: IdColumn,
        columns: Dict[str, Packed],
        column_digests: Dict[str, str],
        entries: np.ndarray,
        entry_offsets: np.ndarray,
        entry_blocks: np.ndarray,
    ):
        self.clock = clock
        self.layout = layout
        self.datasets = datasets
        self.created = created
        self.ids = ids
        #: ``ids`` and ``digests``: each its blob and offsets.
        self._columns = columns
        #: ``ids``, ``digests`` and ``texts``: each its :func:`column_digest`.
        self._column_digests = column_digests
        self._entries = entries
        self._entry_offsets = entry_offsets
        self._entry_blocks = entry_blocks
        # The last block decompressed, so a walk in row order
        # decompresses each block once.
        self._block: Tuple[int, bytes] = (-1, b"")
        #: Row -> its record, for the rows decoded so far.
        self._decoded: Dict[int, ModelRecord] = {}
        # Two threads asking for the same row must get the same record,
        # or a change made through one copy would be lost.
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self.ids)

    def column(self, name: str) -> List[str]:
        """A fresh list of column ``name``: ``ids``, ``digests`` or ``texts``.

        ``texts`` is rendered from the entries, each decoded for the
        purpose and dropped: no record is kept.
        """
        if name == "texts":
            with self._lock:
                return [
                    ModelCard(**json.loads(self._entry(row))["card"]).text()
                    for row in range(len(self))
                ]
        return _unpack(*self._columns[name])

    def packed(self, name: str) -> Packed:
        """Column ``name`` as a UTF-8 blob and int64 offsets: as stored
        for ``ids`` and ``digests``, packed afresh for ``texts``."""
        if name in self._columns:
            return self._columns[name]
        return pack_strings(self.column(name))

    def column_digest(self, name: str) -> str:
        """The stored :func:`column_digest` of column ``name``."""
        return self._column_digests[name]

    def record(self, row: int) -> ModelRecord:
        """The record of row ``row``, decoded on first use."""
        record = self._decoded.get(row)
        if record is None:
            with self._lock:
                record = self._decoded.get(row)
                if record is None:
                    record = record_from_entry(json.loads(self._entry(row)))
                    self._decoded[row] = record
        return record

    def _entry(self, row: int) -> bytes:
        """Row ``row``'s entry JSON; the caller holds the lock."""
        block = row // _BLOCK
        if self._block[0] != block:
            start, stop = self._entry_blocks[block:block + 2]
            self._block = (block, zlib.decompress(self._entries[start:stop]))
        base = self._entry_offsets[block * _BLOCK]
        start, stop = self._entry_offsets[row:row + 2] - base
        return self._block[1][start:stop]


def _bounds(chunks: Sequence[bytes]) -> np.ndarray:
    """The offsets of ``chunks`` laid back to back: ``len(chunks) + 1`` bounds."""
    offsets = np.zeros(len(chunks) + 1, dtype=np.int64)
    np.cumsum([len(chunk) for chunk in chunks], out=offsets[1:])
    return offsets


def _pack(chunks: Sequence[bytes]) -> Tuple[np.ndarray, np.ndarray]:
    """One uint8 blob holding ``chunks`` back to back, plus their bounds."""
    return np.frombuffer(b"".join(chunks), dtype=np.uint8), _bounds(chunks)


def pack_strings(values: Iterable[str]) -> Packed:
    """``values`` as a table stores a string column: a UTF-8 blob plus
    their ``len(values) + 1`` int64 offsets into it."""
    return _pack([value.encode("utf-8", "surrogatepass") for value in values])


def column_digest(packed: Packed) -> str:
    """sha256 of a packed string column: its row count, its offsets
    and its blob, so the column parses one way only."""
    blob, offsets = packed
    digest = hashlib.sha256(len(offsets).to_bytes(8, "little"))
    digest.update(np.asarray(offsets, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(blob, dtype=np.uint8).data)
    return digest.hexdigest()


def _unpack(blob: np.ndarray, offsets: np.ndarray) -> List[str]:
    data = blob.tobytes()
    bounds = offsets.tolist()
    return [
        data[start:stop].decode("utf-8", "surrogatepass")
        for start, stop in zip(bounds, bounds[1:])
    ]


def write_table(
    path: str,
    key: str,
    clock: int,
    layout: ShardLayout,
    datasets: List[Dict],
    entries: Sequence[Dict],
    texts: Sequence[str],
) -> None:
    """Atomically write the table of ``entries`` (in ``created_at``
    order, with their card ``texts``) to ``path`` under ``key``."""
    members = {
        "key": np.array(key),
        "clock": np.array(clock, dtype=np.int64),
        "layout": np.array([layout.sharded, layout.prefix_len], dtype=np.int64),
        "datasets": np.frombuffer(json.dumps(datasets).encode(), dtype=np.uint8),
        "created": np.array(
            [entry["created_at"] for entry in entries], dtype=np.int64
        ),
    }
    packed = {
        "ids": pack_strings(entry["model_id"] for entry in entries),
        "digests": pack_strings(entry["weights_digest"] for entry in entries),
        "texts": pack_strings(texts),
    }
    for name in ("ids", "digests"):
        members[name], members[f"{name}_offsets"] = packed[name]
    members["ids_order"] = id_order([entry["model_id"] for entry in entries])
    members["column_sha256"] = np.array(
        [column_digest(packed[name]) for name in _DIGESTED]
    )
    raw = [json.dumps(entry, separators=(",", ":")).encode() for entry in entries]
    members["entries"], members["entry_blocks"] = _pack([
        zlib.compress(b"".join(raw[start:start + _BLOCK]))
        for start in range(0, len(raw), _BLOCK)
    ])
    members["entries_offsets"] = _bounds(raw)
    atomic_write_npz(path, {name: members[name] for name in _MEMBERS})


def _indexable(arrays: Dict[str, np.ndarray]) -> bool:
    """Whether the id column's offsets and order are aligned native
    integers, as a memoryview indexes them (they are unless the file
    was written on a host of the other byte order, or not by
    :func:`~repro.reliability.atomic.atomic_write_npz`)."""
    offsets, order = arrays["ids_offsets"], arrays["ids_order"]
    return (offsets.dtype == np.int64 and order.dtype.kind == "u"
            and order.dtype.isnative and offsets.flags.aligned
            and order.flags.aligned)


def read_table(path: str, key: str) -> Optional[RecordTable]:
    """The table at ``path`` if it was written under ``key``, else None.

    Every member is checked whole (:func:`~repro.reliability.atomic.map_npz`)
    and then served from one read-only mapping of the file, so the
    ``entries`` a search never decodes are never read into memory.
    """
    arrays = map_npz(path, _MEMBERS)
    if arrays is None or arrays["key"].tolist() != key:
        return None
    created = arrays["created"]
    rows = len(created)
    if any(
        len(arrays[f"{name}_offsets"]) != rows + 1 for name in _STRING_COLUMNS
    ) or len(arrays["entry_blocks"]) != -(-rows // _BLOCK) + 1 or (
        arrays["column_sha256"].shape != (len(_DIGESTED),)
    ) or len(arrays["ids_order"]) != rows or not _indexable(arrays):
        return None
    sharded, prefix_len = arrays["layout"].tolist()
    return RecordTable(
        clock=int(arrays["clock"]),
        layout=ShardLayout(sharded=bool(sharded), prefix_len=prefix_len),
        datasets=json.loads(arrays["datasets"].tobytes()),
        created=created,
        ids=IdColumn(arrays["ids"], arrays["ids_offsets"], arrays["ids_order"]),
        columns={
            name: (arrays[name], arrays[f"{name}_offsets"])
            for name in ("ids", "digests")
        },
        column_digests=dict(zip(_DIGESTED, arrays["column_sha256"].tolist())),
        entries=arrays["entries"],
        entry_offsets=arrays["entries_offsets"],
        entry_blocks=arrays["entry_blocks"],
    )
