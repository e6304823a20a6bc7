"""The model lake: registry of models, weights, datasets, and metadata.

This is the storage layer of Figure 2.  It is deliberately *dumb* about
semantics: it holds models "in their natural formats" and enforces the
visibility rules of the three viewpoints (history may be hidden, weights
may be API-only).  All intelligence — search, versioning, attribution —
lives in :mod:`repro.core` and operates *on* a lake.
"""

from __future__ import annotations

import itertools
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.data.registry import DatasetRegistry
from repro.errors import (
    DuplicateIdError,
    HistoryUnavailableError,
    IntrinsicsUnavailableError,
    LakeError,
    ModelNotFoundError,
)
from repro.lake.card import ModelCard
from repro.lake.record import ModelHistory, ModelRecord
from repro.lake.store import WeightStore
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import LAKE_MODEL_LOADS, LAKE_MODELS_ADDED
from repro.obs.tracing import trace
from repro.transforms.base import rebuild_model
from repro.utils.hashing import combine_digests, stable_hash

if TYPE_CHECKING:
    from repro.lake.table import RecordTable
    from repro.nn.module import Module

#: Column name -> how a record derives it; a record table stores the same.
_COLUMNS: Dict[str, Callable[[ModelRecord], str]] = {
    "ids": lambda record: record.model_id,
    "digests": lambda record: record.weights_digest,
    "texts": lambda record: record.card.text(),
}

# Resolved once at import (registry.reset() zeroes it in place): a lake
# open registers every record, so a per-call lookup would scale with it.
_models_added_counter = obs_metrics.get_registry().counter(LAKE_MODELS_ADDED)


class ModelLake:
    """A population of registered models plus their related data.

    The lake keeps a logical clock (monotonically increasing event
    counter).  Every mutation bumps it; citation snapshots reference a
    clock value, making citations stable under lake evolution.
    """

    def __init__(self, weight_directory: Optional[str] = None):
        #: model id -> its record, for every record registered one by
        #: one: all of an in-memory lake's, and those added to a lake
        #: opened from a record table after the open.
        self._records: Dict[str, ModelRecord] = {}
        #: The record table a warm open registered, which decodes and
        #: keeps each of its records when first asked for.
        self._table: Optional["RecordTable"] = None
        self._weights = WeightStore(directory=weight_directory)
        self._datasets = DatasetRegistry()
        self._clock = 0
        self._id_counter = itertools.count()
        #: Shard layout of the persisted lake this instance was loaded
        #: from, or None for an in-memory / pre-shard lake.  Only
        #: ``persist.load_lake`` reads it, to write the record table.
        self.storage_layout = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_model(
        self,
        model: "Module",
        name: str,
        card: Optional[ModelCard] = None,
        history: Optional[ModelHistory] = None,
        history_public: bool = True,
        weights_public: bool = True,
        tags: Optional[Sequence[str]] = None,
        model_id: Optional[str] = None,
    ) -> ModelRecord:
        """Register a model; returns its record.

        The model id is derived from the name, a counter, and the weight
        digest, so ids are unique and stable within a lake instance.
        """
        with trace("lake.add_model", name=name):
            state = model.state_dict()
            weights_digest = self._weights.put(state)
            if model_id is None:
                serial = next(self._id_counter)
                model_id = f"m{serial:04d}-{stable_hash([name, weights_digest], length=8)}"
            if model_id in self:
                raise DuplicateIdError(f"model id already registered: {model_id!r}")
            self._clock += 1
            record = ModelRecord(
                model_id=model_id,
                name=name,
                architecture=model.architecture_spec(),
                weights_digest=weights_digest,
                card=card or ModelCard(model_name=name),
                history=history,
                history_public=history_public,
                weights_public=weights_public,
                created_at=self._clock,
                tags=list(tags or []),
            )
            self._records[model_id] = record
            _models_added_counter.inc()
            return record

    def register_record(self, record: ModelRecord) -> None:
        """Insert a fully-built record without touching the weight store.

        The out-of-core load path (:func:`repro.lake.persist.load_lake`
        on a v2 lake) reconstructs records straight from the manifest
        and leaves weights on disk behind a read-layer
        :class:`WeightStore`; rehydrating every model just to re-put its
        weights would defeat lazy loading.  The caller owns clock and
        digest bookkeeping.
        """
        if record.model_id in self:
            raise DuplicateIdError(
                f"model id already registered: {record.model_id!r}"
            )
        self._records[record.model_id] = record
        _models_added_counter.inc()

    def register_table(self, table: "RecordTable") -> None:
        """Register every record of a persisted record table, decoding none.

        The warm load path (:func:`repro.lake.persist.load_lake` with a
        current ``cache/records.npz``) hands over the table; each record
        is decoded from it when first accessed.  The caller owns clock
        and weight-store bookkeeping, as for :meth:`register_record`.
        """
        if len(self):
            raise LakeError("a record table registers into an empty lake only")
        self._table = table
        _models_added_counter.inc(len(table))

    # ------------------------------------------------------------------
    # Access (with viewpoint visibility rules)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        table = len(self._table) if self._table is not None else 0
        return table + len(self._records)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._records or (
            self._table is not None and self._table.ids.find(model_id) >= 0
        )

    def __iter__(self) -> Iterator[ModelRecord]:
        records = list(self._records.values())
        table = self._table
        if table is not None:
            records[:0] = [table.record(row) for row in range(len(table))]
        return iter(sorted(records, key=lambda r: r.created_at))

    def _current_table(self) -> Optional["RecordTable"]:
        """The record table while its columns still describe this lake.

        Every mutation moves the clock, and every added record changes
        the count; after either, the columns are no longer trusted.
        """
        table = self._table
        if table is not None and table.clock == self._clock and not self._records:
            return table
        return None

    def _column(self, name: str) -> List[str]:
        """Column ``name`` for every record in iteration order, decoded
        from the current record table or derived from the records."""
        table = self._current_table()
        if table is not None:
            return table.column(name)
        return [_COLUMNS[name](record) for record in self]

    def model_ids(self) -> List[str]:
        """Every model id, in iteration (``created_at``) order."""
        return self._column("ids")

    def id_column(self) -> Sequence[str]:
        """Every model id, in iteration order, for an index to keep.

        A lake opened from a current record table hands out the table's
        own immutable :class:`~repro.lake.table.IdColumn`, decoding
        nothing; the indexes an engine builds over it share the column
        and its id rank.  Any other lake gives :meth:`model_ids`.
        """
        table = self._current_table()
        return table.ids if table is not None else self.model_ids()

    def weight_digests(self) -> List[str]:
        """Every record's weight digest, aligned with :meth:`model_ids`."""
        return self._column("digests")

    def card_texts(self) -> List[str]:
        """Every record's :meth:`ModelCard.text`, aligned with :meth:`model_ids`."""
        return self._column("texts")

    def packed_column(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """Column ``name`` (``ids``, ``digests`` or ``texts``) as a UTF-8
        blob plus int64 offsets, aligned with :meth:`model_ids`.

        A lake opened from a current record table hands out the table's
        own ``ids`` and ``digests`` members, decoding nothing; any other
        column or lake is packed from its strings
        (:func:`repro.lake.table.pack_strings`), so every lake gives the
        same bytes for the same records.
        """
        table = self._current_table()
        if table is not None:
            return table.packed(name)
        from repro.lake.table import pack_strings

        return pack_strings(self._column(name))

    def column_digest(self, name: str) -> str:
        """The :func:`~repro.lake.table.column_digest` of
        :meth:`packed_column` ``(name)``: read from a current record
        table, which stores it, and hashed from the packed column by
        any other lake, so every lake gives the same digest for the
        same records."""
        table = self._current_table()
        if table is not None:
            return table.column_digest(name)
        from repro.lake.table import column_digest

        return column_digest(self.packed_column(name))

    def get_record(self, model_id: str) -> ModelRecord:
        record = self._records.get(model_id)
        if record is not None:
            return record
        row = self._table.ids.find(model_id) if self._table is not None else -1
        if row < 0:
            raise ModelNotFoundError(model_id)
        return self._table.record(row)

    def get_model(self, model_id: str, force: bool = False) -> "Module":
        """Rehydrate a model's Module from stored weights (intrinsics).

        Raises :class:`IntrinsicsUnavailableError` for API-only models
        unless ``force`` (used by the lake operator itself, which always
        has physical access).
        """
        record = self.get_record(model_id)
        if not record.weights_public and not force:
            raise IntrinsicsUnavailableError(
                f"weights of {model_id!r} are not public (API-only model)"
            )
        with trace("lake.get_model", model_id=model_id):
            obs_metrics.inc(LAKE_MODEL_LOADS)
            model = rebuild_model(record.architecture)
            model.load_state_dict(self._weights.get(record.weights_digest))
            model.eval()
            return model

    def get_history(self, model_id: str, force: bool = False) -> ModelHistory:
        """The (D, A) viewpoint; raises if hidden or never recorded."""
        record = self.get_record(model_id)
        if record.history is None:
            raise HistoryUnavailableError(f"no history recorded for {model_id!r}")
        if not record.history_public and not force:
            raise HistoryUnavailableError(f"history of {model_id!r} is hidden")
        return record.history

    def has_public_history(self, model_id: str) -> bool:
        record = self.get_record(model_id)
        return record.history is not None and record.history_public

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def update_card(self, model_id: str, card: ModelCard) -> None:
        record = self.get_record(model_id)
        record.card = card
        self._clock += 1

    def set_history_visibility(self, model_id: str, public: bool) -> None:
        self.get_record(model_id).history_public = public
        self._clock += 1

    def set_weights_visibility(self, model_id: str, public: bool) -> None:
        self.get_record(model_id).weights_public = public
        self._clock += 1

    def record_metric(self, model_id: str, metric: str, value: float) -> None:
        self.get_record(model_id).eval_metrics[metric] = float(value)
        self._clock += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def filter(
        self,
        predicate: Optional[Callable[[ModelRecord], bool]] = None,
        family: Optional[str] = None,
        tag: Optional[str] = None,
    ) -> List[ModelRecord]:
        """Records matching simple structured filters."""
        results = []
        for record in self:
            if family is not None and record.family != family:
                continue
            if tag is not None and tag not in record.tags:
                continue
            if predicate is not None and not predicate(record):
                continue
            results.append(record)
        return results

    def find_by_name(self, name: str) -> List[ModelRecord]:
        return [record for record in self if record.name == name]

    @property
    def datasets(self) -> DatasetRegistry:
        return self._datasets

    @property
    def weights(self) -> WeightStore:
        return self._weights

    @property
    def clock(self) -> int:
        return self._clock

    def snapshot_digest(self) -> str:
        """Digest of the lake's current registration state.

        Citations embed this digest plus the clock value: any later
        mutation changes the digest, so stale citations are detectable.
        """
        parts = [
            f"{record.model_id}:{record.weights_digest}:{record.card.digest()}"
            for record in self
        ]
        return combine_digests(parts + [str(self._clock)])
