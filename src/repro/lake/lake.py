"""The model lake: registry of models, weights, datasets, and metadata.

This is the storage layer of Figure 2.  It is deliberately *dumb* about
semantics: it holds models "in their natural formats" and enforces the
visibility rules of the three viewpoints (history may be hidden, weights
may be API-only).  All intelligence — search, versioning, attribution —
lives in :mod:`repro.core` and operates *on* a lake.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.registry import DatasetRegistry
from repro.errors import (
    DuplicateIdError,
    HistoryUnavailableError,
    IntrinsicsUnavailableError,
    ModelNotFoundError,
)
from repro.lake.card import ModelCard
from repro.lake.record import ModelHistory, ModelRecord
from repro.lake.store import WeightStore
from repro.nn.models import build_model
from repro.nn.module import Module
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import LAKE_MODEL_LOADS, LAKE_MODELS_ADDED
from repro.obs.tracing import trace
from repro.utils.hashing import combine_digests, stable_hash

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
        self._records: Dict[str, ModelRecord] = {}
        self._weights = WeightStore(directory=weight_directory)
        self._datasets = DatasetRegistry()
        self._clock = 0
        self._id_counter = itertools.count()
        #: Shard layout of the persisted lake this instance was loaded
        #: from, or None for an in-memory / pre-shard lake.  Search and
        #: embedding caches use it to group work by digest prefix.
        self.storage_layout = None

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_model(
        self,
        model: Module,
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
            if model_id in self._records:
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
        if record.model_id in self._records:
            raise DuplicateIdError(
                f"model id already registered: {record.model_id!r}"
            )
        self._records[record.model_id] = record
        _models_added_counter.inc()

    # ------------------------------------------------------------------
    # Access (with viewpoint visibility rules)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, model_id: str) -> bool:
        return model_id in self._records

    def __iter__(self) -> Iterator[ModelRecord]:
        return iter(sorted(self._records.values(), key=lambda r: r.created_at))

    def model_ids(self) -> List[str]:
        return [record.model_id for record in self]

    def get_record(self, model_id: str) -> ModelRecord:
        try:
            return self._records[model_id]
        except KeyError:
            raise ModelNotFoundError(model_id) from None

    def get_model(self, model_id: str, force: bool = False) -> Module:
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
            model = build_model(record.architecture)
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

    def close(self) -> None:
        """Release the weight store's open file handles.

        A lake loaded with ``materialize=False`` keeps one memmap per
        touched weight blob; long-lived holders (the serve layer's
        snapshots, hot-swap reloads) call this to return fd usage to
        zero deterministically instead of waiting on garbage collection.
        The lake stays usable — subsequent reads reopen and re-verify.
        """
        self._weights.close()

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
