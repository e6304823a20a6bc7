"""Lake persistence: save/load a full ModelLake to/from a directory.

Layout (v2, current)::

    <dir>/manifest.json      records, cards, histories, clock, integrity
    <dir>/weights/*.rwb      content-addressed raw weight bundles
      — or, sharded —
    <dir>/weights/<pp>/*.rwb two-hex-char digest-prefix shards
    <dir>/shards/<pp>.json   per-shard integrity fragments (sharded only)
    <dir>/datasets/*.npz     dataset token/label arrays
    <dir>/lineage.json       dataset derivation edges
    <dir>/cache/             derived files, rebuilt when missing or stale:
                             records.npz (the record table, written by
                             load_lake), bm25.npz and embeddings-*.npz
                             (written by the search engine)

Pre-shard (v1) lakes — flat ``weights/*.npz``, no ``layout`` key in the
manifest's integrity section — remain loadable; :func:`load_lake`
auto-detects the generation and :func:`migrate_lake` rewrites in place.

Round trip guarantee: ``load_lake(save_lake(lake, d))`` reproduces every
record, card field, history (including transforms), weight blob, dataset,
and the dataset lineage graph.  The logical clock is restored, so
citations remain resolvable across processes.  A v2 load is *lazy*:
records come straight from the manifest and weights stay on disk behind
a read-layer :class:`~repro.lake.store.WeightStore` that memmaps blobs
on demand — resident memory stays flat in the lake size.  A warm v2
load goes further: when ``cache/records.npz`` was written for the exact
manifest bytes on disk, the lake opens from that record table
(:mod:`repro.lake.table`) without decoding the manifest, and each
record is decoded on first use.  The table is keyed by the manifest's
sha256, so it can never describe another manifest; ``save_lake``,
``migrate_lake`` and ``repro fsck`` neither read nor write it.

Sharding is pure placement, never identity: the layout lives in the
``integrity`` section, which is excluded from ``manifest_body_digest``,
and record payloads are byte-identical either way — so a sharded and an
unsharded save of the same lake agree on every digest.

Crash safety: every file is written through
:mod:`repro.reliability.atomic`, and the manifest is written **last** —
it is the commit record.  A save killed at any point leaves either the
previous manifest (still describing a fully intact lake, with at worst
orphaned new blobs for ``repro fsck`` to flag) or the new one (whose
referenced artifacts were all durably written first).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import threading
from collections import Counter
from dataclasses import asdict
from typing import Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.data.datasets import TextDataset
from repro.errors import LakeError
from repro.lake.lake import ModelLake
from repro.lake.record import ModelHistory, ModelRecord
from repro.lake.shard import (
    AUTO_SHARD_MIN_MODELS,
    DEFAULT_PREFIX_LEN,
    ShardLayout,
)
from repro.lake.store import WeightStore
from repro.lake.table import (
    TABLE_FILE,
    RecordTable,
    read_table,
    record_from_entry,
    table_key,
    write_table,
)
from repro.obs.logging import get_logger
from repro.reliability.atomic import atomic_write_bytes
from repro.reliability.digest import stream_digest, stream_digest_fileobj
from repro.transforms.base import rebuild_model
from repro.utils.hashing import bytes_digest
from repro.utils.serialization import (
    arrays_to_bytes,
    bytes_to_arrays,
    to_jsonable,
)

_log = get_logger("lake.persist")

_MANIFEST = "manifest.json"
_LINEAGE = "lineage.json"
#: Derived files a load may (re)write; never part of the lake's identity.
_CACHE_DIR = "cache"

#: Digest length recorded in the manifest's integrity section.
_FILE_DIGEST_LEN = 24

#: Integrity-section schema generation written by :func:`save_lake`.
#: v1 (pre-shard) had no ``layout`` key and stored npz weight archives.
_INTEGRITY_VERSION = 2


def _history_to_dict(history: ModelHistory) -> Dict:
    payload = {
        "parent_ids": list(history.parent_ids),
        "dataset_digest": history.dataset_digest,
        "dataset_name": history.dataset_name,
        "algorithm": history.algorithm,
        "seed": history.seed,
        "transform": None,
    }
    if history.transform is not None:
        payload["transform"] = {
            "kind": history.transform.kind,
            "params": to_jsonable(history.transform.params),
            "dataset_digest": history.transform.dataset_digest,
            "dataset_name": history.transform.dataset_name,
            "seed": history.transform.seed,
        }
    return payload


def _record_payload(record: ModelRecord) -> Dict:
    return {
        "model_id": record.model_id,
        "name": record.name,
        "architecture": to_jsonable(record.architecture),
        "weights_digest": record.weights_digest,
        "card": to_jsonable(asdict(record.card)),
        "history": (
            _history_to_dict(record.history) if record.history else None
        ),
        "history_public": record.history_public,
        "weights_public": record.weights_public,
        "created_at": record.created_at,
        "tags": list(record.tags),
        "eval_metrics": to_jsonable(record.eval_metrics),
    }


def _resolve_layout(
    lake: ModelLake, sharded: Optional[bool], prefix_len: int
) -> ShardLayout:
    if sharded is None:
        sharded = len(lake) >= AUTO_SHARD_MIN_MODELS
    return ShardLayout(sharded=bool(sharded), prefix_len=prefix_len)


def save_lake(
    lake: ModelLake,
    directory: str,
    sharded: Optional[bool] = None,
    prefix_len: int = DEFAULT_PREFIX_LEN,
) -> str:
    """Persist ``lake`` under ``directory``; returns the directory.

    ``sharded=None`` shards automatically once the lake reaches
    :data:`~repro.lake.shard.AUTO_SHARD_MIN_MODELS` models; pass
    True/False to force either placement.  Writes blobs, shard
    fragments, datasets, and lineage first (all atomically), then
    commits by atomically writing the manifest.  A crash anywhere in
    between never corrupts a previously saved lake in the same
    directory.
    """
    # fsck is the integrity checker; only a save needs its digest, so a
    # process that just opens lakes never imports it.
    from repro.reliability.fsck import manifest_body_digest

    layout = _resolve_layout(lake, sharded, prefix_len)
    os.makedirs(directory, exist_ok=True)
    os.makedirs(os.path.join(directory, "weights"), exist_ok=True)
    os.makedirs(os.path.join(directory, "datasets"), exist_ok=True)

    #: rel-path -> {"bytes": size, "digest": content digest} for the
    #: manifest's integrity section.
    files: Dict[str, Dict[str, object]] = {}
    #: Same shape, but per shard key — committed as ``shards/<pp>.json``
    #: fragments so the root manifest stays O(shards), not O(models).
    shard_files: Dict[str, Dict[str, Dict[str, object]]] = {}

    records = []
    for record in lake:
        digest = record.weights_digest
        rel = layout.weight_rel(digest)
        weight_entries = (
            shard_files.setdefault(layout.shard_of(digest), {})
            if layout.sharded else files
        )
        if rel not in weight_entries:
            size, file_digest = lake.weights.export_blob(
                digest, os.path.join(directory, rel)
            )
            weight_entries[rel] = {"bytes": size, "digest": file_digest}
        records.append(_record_payload(record))

    if layout.sharded:
        os.makedirs(os.path.join(directory, "shards"), exist_ok=True)
        for key in sorted(shard_files):
            rel = layout.shard_rel(key)
            blob = json.dumps(
                {"shard": key, "files": shard_files[key]},
                indent=1, sort_keys=True,
            ).encode("utf-8")
            atomic_write_bytes(os.path.join(directory, rel), blob)
            files[rel] = {
                "bytes": len(blob),
                "digest": bytes_digest(blob, length=_FILE_DIGEST_LEN),
            }

    dataset_entries = []
    for digest in lake.datasets.digests():
        dataset = lake.datasets.get(digest)
        blob = arrays_to_bytes({
            "tokens": dataset.tokens, "labels": dataset.labels,
        })
        atomic_write_bytes(
            os.path.join(directory, "datasets", f"{digest}.npz"), blob
        )
        files[f"datasets/{digest}.npz"] = {
            "bytes": len(blob),
            "digest": bytes_digest(blob, length=_FILE_DIGEST_LEN),
        }
        dataset_entries.append({
            "digest": digest,
            "name": dataset.name,
            "domains": list(dataset.domains),
            "meta": to_jsonable(dataset.meta),
        })

    lineage = [
        {
            "source": source, "target": target,
            "operation": attrs["operation"],
            "params": to_jsonable(attrs["params"]),
        }
        for source, target, attrs in lake.datasets.lineage_edges()
    ]

    # Lineage before manifest: the manifest's integrity section pins the
    # lineage bytes, so a crash between the two cannot leave a committed
    # manifest describing a lineage file that was never written.
    lineage_blob = json.dumps(lineage, indent=1).encode("utf-8")
    atomic_write_bytes(os.path.join(directory, _LINEAGE), lineage_blob)
    files[_LINEAGE] = {
        "bytes": len(lineage_blob),
        "digest": bytes_digest(lineage_blob, length=_FILE_DIGEST_LEN),
    }

    # The manifest is the commit point: written last, atomically.  The
    # body digest excludes the integrity section, so placement choices
    # (sharded or flat) never change the lake's identity.
    manifest = {
        "clock": lake.clock,
        "records": records,
        "datasets": dataset_entries,
    }
    manifest["integrity"] = {
        "version": _INTEGRITY_VERSION,
        "algorithm": f"sha256[:{_FILE_DIGEST_LEN}]",
        "layout": layout.to_manifest(),
        "files": files,
        "manifest_digest": manifest_body_digest(manifest),
    }
    atomic_write_bytes(
        os.path.join(directory, _MANIFEST),
        json.dumps(manifest, indent=1).encode("utf-8"),
    )
    return directory


def _load_datasets(lake: ModelLake, directory: str, datasets: List[Dict]) -> None:
    """Datasets and lineage are small; both load eagerly."""
    for entry in datasets:
        path = os.path.join(directory, "datasets", f"{entry['digest']}.npz")
        with np.load(path) as payload:  # repro: noqa[whole-file-read]
            dataset = TextDataset(
                tokens=payload["tokens"], labels=payload["labels"],
                domains=list(entry["domains"]), name=entry["name"],
                meta=dict(entry.get("meta") or {}),
            )
        restored = lake.datasets.register(dataset)
        if restored != entry["digest"]:
            raise LakeError(
                f"dataset digest mismatch on load: {restored} != {entry['digest']}"
            )

    lineage_path = os.path.join(directory, _LINEAGE)
    if os.path.exists(lineage_path):
        with open(lineage_path) as handle:
            for edge in json.load(handle):
                lake.datasets.add_lineage_edge(
                    edge["source"], edge["target"],
                    edge.get("operation"), edge.get("params"),
                )


def _check_clock(
    lake: ModelLake, created: Union[Sequence[int], np.ndarray]
) -> None:
    """Refuse a lake whose restored clock would mint a duplicate timestamp.

    ``lake.clock`` holds the clock read from disk and ``created`` every
    record's ``created_at``.  New records take their ``created_at`` from
    the clock, so the timestamps must be unique and the clock must
    dominate all of them; otherwise the next ``add_model()`` would
    duplicate an existing record's, silently breaking citation ordering.

    A record table's int64 ``created`` column is checked in place: its
    rows are in ``created_at`` order, so unique means strictly
    increasing, and the newest is the last.  Only a column that fails
    is converted, to name the fault as a list would.
    """
    if isinstance(created, np.ndarray):
        # min() of np.diff, as the embedding gather takes it: the
        # server maps no numpy code for this check alone.
        if len(created) > 1 and np.diff(created).min() <= 0:
            _check_clock(lake, created.tolist())
            raise LakeError("record table rows are not in created_at order")
        created = created[-1:].tolist()
    if len(set(created)) != len(created):
        duplicates = sorted(
            value for value, count in Counter(created).items() if count > 1
        )
        raise LakeError(
            f"manifest is not clock-monotonic: duplicate created_at "
            f"value(s) {duplicates} across records"
        )
    newest = max(created, default=0)
    if lake.clock < newest:
        raise LakeError(
            f"manifest clock {lake.clock} is behind the newest record "
            f"(created_at={newest}); refusing to load a lake that would "
            f"mint duplicate timestamps"
        )


def _attach_weights(lake: ModelLake, directory: str, layout: ShardLayout) -> None:
    """Serve the lake's weights from disk through a read-layer store."""
    lake._weights = WeightStore(
        directory=os.path.join(directory, "weights"),
        layout=layout, write_through=False,
    )
    lake.storage_layout = layout


def _load_v2(
    lake: ModelLake, directory: str, entries: List[Dict], layout: ShardLayout,
    materialize: bool,
) -> None:
    """Out-of-core load: records from the manifest, weights stay on disk."""
    _attach_weights(lake, directory, layout)
    for entry in entries:
        record = record_from_entry(entry)
        lake.register_record(record)
        if materialize:
            lake.weights.materialize(record.weights_digest)


def _open_table(
    lake: ModelLake, directory: str, table: RecordTable, materialize: bool
) -> None:
    """Warm load: every record registered from the table, none decoded,
    and the stored timestamps checked against the stored clock."""
    _attach_weights(lake, directory, table.layout)
    lake.register_table(table)
    lake._clock = table.clock
    _check_clock(lake, table.created)
    if materialize:
        for digest in table.column("digests"):
            lake.weights.materialize(digest)


def _load_v1(lake: ModelLake, directory: str, entries: List[Dict]) -> None:
    """Eager legacy load of a pre-shard lake (flat npz weight archives).

    v1 digests hashed npz bytes, so re-registering through
    ``add_model`` mints current-format digests; the npz *file* is
    verified against the manifest's digest instead, which is what the
    v1 integrity section actually pinned.
    """
    for entry in entries:
        entry_digest = entry["weights_digest"]
        path = os.path.join(directory, "weights", f"{entry_digest}.npz")
        with open(path, "rb") as handle:
            raw = handle.read()
        actual = bytes_digest(raw, length=len(entry_digest))
        if actual != entry_digest:
            raise LakeError(
                f"weights digest mismatch for {entry['model_id']!r}: "
                f"{actual} != {entry_digest}"
            )
        model = rebuild_model(dict(entry["architecture"]))
        model.load_state_dict(bytes_to_arrays(raw))
        decoded = record_from_entry(entry)
        record = lake.add_model(
            model, name=entry["name"], card=decoded.card,
            history=decoded.history,
            history_public=entry.get("history_public", True),
            weights_public=entry.get("weights_public", True),
            tags=entry.get("tags"), model_id=entry["model_id"],
        )
        for metric, value in (entry.get("eval_metrics") or {}).items():
            record.eval_metrics[metric] = float(value)
        record.created_at = entry["created_at"]


#: Orders every read and change of the collector's state made by
#: :func:`_gc_paused`, so a load cannot read "off" while another load
#: turns it back on, and then switch it off for good.
_gc_state_lock = threading.Lock()


@contextlib.contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend automatic cyclic GC for the block.

    Decoding a manifest and building its records allocates hundreds of
    thousands of container objects (JSON dicts and lists, dataclasses)
    that form no reference cycles, yet each allocation burst triggers a
    collection that walks them and frees nothing.  The collector is
    re-enabled on exit only if it was on at entry, and never disabled on
    exit, so overlapping loads on several threads cannot leave it off.
    """
    with _gc_state_lock:
        enabled = gc.isenabled()
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            with _gc_state_lock:
                gc.enable()


def load_lake(directory: str, materialize: bool = False) -> ModelLake:
    """Reconstruct a ModelLake saved by :func:`save_lake`.

    Auto-detects the on-disk generation: a manifest carrying a
    ``layout`` in its integrity section loads lazily (weights memmapped
    on demand); a pre-shard v1 manifest loads eagerly through the
    legacy npz path.  ``materialize=True`` forces every weight blob
    fully into memory — resident mode, for workloads (or benchmarks)
    that want RAM-speed repeated access at linear memory cost.

    A v2 lake whose ``cache/records.npz`` was written for these exact
    manifest bytes opens from that table without decoding the manifest
    (:mod:`repro.lake.table`); its records are decoded as they are first
    used.  Otherwise the manifest is decoded and, once every check has
    passed, the table is (re)written for the next load.  Either way the
    result is the same lake.
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise LakeError(f"no lake manifest at {manifest_path!r}")
    table_path = os.path.join(directory, _CACHE_DIR, TABLE_FILE)
    lake = ModelLake()
    with _gc_paused():
        table = read_table(
            table_path, table_key(stream_digest(manifest_path, length=64))
        )
        if table is not None:
            _open_table(lake, directory, table, materialize)
            datasets = table.datasets
        else:
            with open(manifest_path, "rb") as handle:
                raw = handle.read()
            manifest = json.loads(raw)
            entries = sorted(manifest["records"], key=lambda r: r["created_at"])
            layout = ShardLayout.from_manifest(
                (manifest.get("integrity") or {}).get("layout")
            )
            if layout is not None:
                _load_v2(lake, directory, entries, layout, materialize)
            else:
                _load_v1(lake, directory, entries)
            lake._clock = manifest.get("clock", lake.clock)
            _check_clock(lake, [entry["created_at"] for entry in entries])
            datasets = manifest.get("datasets", [])
    if table is None and lake.storage_layout is not None:
        _save_table(table_path, raw, lake, datasets, entries)
    # Outside the pause: reading an npz header leaves a few reference
    # cycles behind (``ast.literal_eval`` closures), one set per archive.
    _load_datasets(lake, directory, datasets)
    return lake


def _save_table(
    path: str, raw: bytes, lake: ModelLake, datasets: List[Dict],
    entries: List[Dict],
) -> None:
    """Write the record table of a v2 lake just loaded from manifest
    bytes ``raw``, whose ``entries`` are in iteration order.

    A lake whose ``cache/`` cannot be written (a read-only mount, say)
    still loads; it only misses the table again next time.
    """
    key = table_key(stream_digest_fileobj(io.BytesIO(raw), length=64))
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        write_table(path, key, lake.clock, lake.storage_layout, datasets,
                    entries, lake.card_texts())
    except OSError as exc:
        _log.warning("records.save_failed", path=path, error=str(exc))


def migrate_lake(
    directory: str,
    sharded: Optional[bool] = None,
    prefix_len: int = DEFAULT_PREFIX_LEN,
) -> Dict[str, object]:
    """Rewrite a persisted lake in place to the current layout.

    Loads whatever generation is on disk, re-saves it (sharded per
    ``sharded``/auto-detection), then removes weight and shard files
    the new manifest no longer references.  The manifest rewrite is the
    atomic commit point, so a crash mid-migration leaves a lake that is
    still fully loadable — at worst with both placements' blobs on
    disk, which ``repro fsck`` reports as orphans.  Returns a summary
    dict (model count, old/new layout, files removed).
    """
    manifest_path = os.path.join(directory, _MANIFEST)
    if not os.path.exists(manifest_path):
        raise LakeError(f"no lake manifest at {manifest_path!r}")
    with open(manifest_path) as handle:
        old_manifest = json.load(handle)
    old_integrity = old_manifest.get("integrity") or {}
    old_layout = ShardLayout.from_manifest(old_integrity.get("layout"))

    # Everything the old manifest placed under weights/ or shards/ —
    # including fragment-listed weight files — is fair game for cleanup
    # once the new manifest stops referencing it.
    old_rels = set()
    for rel in old_integrity.get("files") or {}:
        if rel.startswith("weights/") or rel.startswith("shards/"):
            old_rels.add(rel)
        if rel.startswith("shards/") and rel.endswith(".json"):
            with contextlib.suppress(OSError, ValueError, KeyError):
                with open(os.path.join(directory, rel)) as handle:
                    fragment = json.load(handle)
                old_rels.update(fragment.get("files") or {})
    if old_layout is None:
        for entry in old_manifest.get("records", []):
            old_rels.add(f"weights/{entry['weights_digest']}.npz")

    lake = load_lake(directory)
    save_lake(lake, directory, sharded=sharded, prefix_len=prefix_len)

    with open(manifest_path) as handle:
        new_manifest = json.load(handle)
    new_integrity = new_manifest["integrity"]
    new_layout = ShardLayout.from_manifest(new_integrity["layout"])
    new_rels = set(new_integrity["files"])
    for record in lake:
        new_rels.add(new_layout.weight_rel(record.weights_digest))

    removed = 0
    for rel in sorted(old_rels - new_rels):
        with contextlib.suppress(OSError):
            os.unlink(os.path.join(directory, rel))
            removed += 1
    for rel in sorted({os.path.dirname(rel) for rel in old_rels} - {""}):
        with contextlib.suppress(OSError):
            os.rmdir(os.path.join(directory, rel))

    return {
        "models": len(lake),
        "from_layout": old_layout.to_manifest() if old_layout else None,
        "to_layout": new_layout.to_manifest(),
        "removed_files": removed,
    }
