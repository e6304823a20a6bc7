"""The record table: a warm ``load_lake`` opens from ``cache/records.npz``.

A table-backed lake must be the same lake as a fully decoded one, the
table must be rebuilt whenever the manifest (or the code deriving a
column) changes, and mutations of a warm-loaded lake must show in every
accessor and in a new :class:`SearchEngine`.
"""

import ctypes
import errno
import hashlib
import json
import mmap
import os
import shutil
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.search import SearchEngine
from repro.data import DOMAIN_NAMES, TextDataset, build_default_vocabulary
from repro.errors import ModelNotFoundError
from repro.index.cache import EmbeddingCache
from repro.lake import (
    ModelCard,
    ModelHistory,
    ModelLake,
    ModelRecord,
    load_lake,
    persist,
    save_lake,
)
from repro.lake import table as record_table
from repro.nn.models import build_model
from repro.reliability import atomic
from repro.serve import LakeServer, LakeSnapshot, ServeConfig
from repro.transforms import TransformRecord

_SPEC = {
    "family": "text_classifier",
    "vocab_size": len(build_default_vocabulary()),
    "num_classes": len(DOMAIN_NAMES),
    "dim": 8,
    "hidden": [8],
}
_WORDS = ["legal", "court", "statute", "medical", "patient", "news",
          "model", "text", "code", "recipe"]
_QUERIES = ["legal court statute", "medical patient news", "model text",
            "code recipe", "nothing matches this"]


def _table_path(directory):
    return os.path.join(directory, "cache", record_table.TABLE_FILE)


def _manifest_key(directory):
    with open(os.path.join(directory, "manifest.json"), "rb") as handle:
        return record_table.table_key(hashlib.sha256(handle.read()).hexdigest())


def _warm(directory):
    """Load ``directory`` twice; the second load comes from the table."""
    decoded = load_lake(directory)
    assert decoded._table is None
    warm = load_lake(directory)
    assert warm._table is not None
    return decoded, warm


class _Events:
    """Stands in for a module's structured logger; keeps warning events."""

    def __init__(self):
        self.warnings = []

    def warning(self, event, **fields):
        self.warnings.append(event)

    def debug(self, event, **fields):
        pass

    info = debug


# ----------------------------------------------------------------------
# Lakes for the equivalence property
# ----------------------------------------------------------------------
_words = st.lists(st.sampled_from(_WORDS), max_size=5).map(" ".join)
_models = st.fixed_dictionaries({
    "description": st.one_of(st.none(), _words, st.text(max_size=8)),
    "domains": st.lists(st.sampled_from(DOMAIN_NAMES), max_size=2, unique=True),
    "tags": st.lists(st.sampled_from(["lakebench", "legal", "x"]), max_size=2),
    "metrics": st.dictionaries(
        st.sampled_from(["acc", "f1"]), st.floats(0, 1), max_size=2
    ),
    "derived": st.booleans(),
    "history_public": st.booleans(),
    "weights_public": st.booleans(),
})


def _build_lake(models, with_lineage):
    lake = ModelLake()
    ids = []
    for index, spec in enumerate(models):
        parents = (ids[-1],) if spec["derived"] and ids else ()
        history = ModelHistory(
            parent_ids=parents,
            transform=(
                TransformRecord(kind="finetune", params={"lr": 0.01},
                                dataset_name="legal-v1", seed=index)
                if parents else None
            ),
            dataset_name="base", seed=index,
        ) if index % 3 else None
        card = ModelCard(
            model_name=f"model-{index}", description=spec["description"],
            training_domains=list(spec["domains"]), metrics=dict(spec["metrics"]),
            base_model=parents[0] if parents else None, tags=list(spec["tags"]),
        )
        record = lake.add_model(
            build_model(_SPEC, seed=index), name=f"model-{index}", card=card,
            history=history, history_public=spec["history_public"],
            weights_public=spec["weights_public"], tags=spec["tags"],
        )
        for metric, value in spec["metrics"].items():
            lake.record_metric(record.model_id, metric, value)
        ids.append(record.model_id)
    if with_lineage:
        base = TextDataset(
            tokens=np.ones((2, 4), dtype=np.int64),
            labels=np.zeros(2, dtype=np.int64), domains=["legal"] * 2, name="base",
        )
        derived = TextDataset(
            tokens=np.full((2, 4), 2, dtype=np.int64),
            labels=np.ones(2, dtype=np.int64), domains=["legal"] * 2,
            name="legal-v1",
        )
        lake.datasets.add_lineage_edge(
            lake.datasets.register(base), lake.datasets.register(derived),
            "sample", {"fraction": 0.5},
        )
    return lake


def _model_payload(lake, model_id):
    snapshot = LakeSnapshot("unused", lake, engine=None)
    server = LakeServer(snapshot, ServeConfig(directory="unused"))
    try:
        return server._model_payload(model_id)
    finally:
        server._executor.shutdown()


class TestEquivalence:
    """A table-backed lake answers exactly as a fully decoded one."""

    @given(
        models=st.lists(_models, min_size=1, max_size=5),
        with_lineage=st.booleans(),
        sharded=st.booleans(),
    )
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_table_backed_lake_equals_decoded_lake(
        self, tmp_path_factory, probes, models, with_lineage, sharded
    ):
        directory = str(tmp_path_factory.mktemp("lake"))
        save_lake(_build_lake(models, with_lineage), directory, sharded=sharded)
        decoded, warm = _warm(directory)

        assert len(warm) == len(decoded)
        assert warm.clock == decoded.clock
        assert warm.model_ids() == decoded.model_ids()
        assert warm.weight_digests() == decoded.weight_digests()
        assert warm.card_texts() == decoded.card_texts()
        assert "no-such-model" not in warm
        with pytest.raises(ModelNotFoundError):
            warm.get_record("no-such-model")
        for model_id in decoded.model_ids():
            assert model_id in warm
            assert _model_payload(warm, model_id) == _model_payload(decoded, model_id)
        assert list(warm) == list(decoded)  # field-equal, same order
        assert sorted(warm.datasets.lineage_edges()) == sorted(
            decoded.datasets.lineage_edges()
        )

        cache = EmbeddingCache()
        engines = [SearchEngine(lake, probes, cache=cache)
                   for lake in (decoded, load_lake(directory))]
        for query in _QUERIES:
            for method in ("keyword", "behavioral", "hybrid"):
                for k in (1, 10, 50):
                    decoded_hits, warm_hits = (
                        engine.search(query, k=k, method=method)
                        for engine in engines
                    )
                    assert repr(warm_hits) == repr(decoded_hits)


class TestColumnDigests:
    """The table stores the digest of the card texts, not the texts."""

    def test_card_texts_render_from_entries_keeping_no_record(self, lake_dir):
        decoded, warm = _warm(lake_dir)
        table = warm._current_table()
        assert "texts" not in table._columns
        assert warm.card_texts() == decoded.card_texts()
        assert table._decoded == {}
        assert warm.packed_column("texts")[1].tolist() == (
            record_table.pack_strings(decoded.card_texts())[1].tolist()
        )
        assert table._decoded == {}

    def test_every_lake_gives_the_same_column_digests(self, lake_bundle,
                                                      lake_dir):
        decoded, warm = _warm(lake_dir)
        for name in ("ids", "digests", "texts"):
            want = record_table.column_digest(
                record_table.pack_strings(decoded._column(name))
            )
            for lake in (lake_bundle.lake, decoded, warm):
                assert lake.column_digest(name) == want, name

    def test_column_digest_separates_rows(self):
        digest = record_table.column_digest
        pack = record_table.pack_strings
        assert digest(pack(["ab", "c"])) != digest(pack(["a", "bc"]))
        assert digest(pack(["abc"])) != digest(pack(["abc", ""]))
        assert digest(pack([])) != digest(pack([""]))


class TestCardTextIsPinned:
    def test_golden_card_text(self):
        # The table's ``column_sha256`` member hashes ModelCard.text().
        # If this rendering changes, bump repro.lake.table._TABLE_VERSION
        # so that tables written by older code read as misses.
        card = ModelCard(
            model_name="lb-00001", description="A model for legal text.",
            intended_use="Tagging court filings.", training_data="statutes",
            training_domains=["legal", "news"], base_model="m0000-abc",
            transform_summary="finetune", metrics={"f1": 0.5, "acc": 0.91234},
            limitations="English only", license="mit", tags=["lakebench", "x"],
        )
        assert card.text() == (
            "lb-00001\n"
            "A model for legal text.\n"
            "Tagging court filings.\n"
            "statutes\n"
            "finetune\n"
            "English only\n"
            "mit\n"
            "domains: legal news\n"
            "base model: m0000-abc\n"
            "acc 0.912 f1 0.500\n"
            "lakebench x"
        )
        assert record_table._TABLE_VERSION == 4


@pytest.fixture()
def lake_dir(lake_bundle, tmp_path):
    directory = str(tmp_path / "lake")
    save_lake(lake_bundle.lake, directory, sharded=True)
    return directory


class TestInvalidation:
    """Every change to the manifest, or a damaged table, rebuilds it."""

    def _assert_rebuilt(self, directory):
        lake = load_lake(directory)
        assert lake._table is None  # decoded from the manifest
        assert record_table.read_table(
            _table_path(directory), _manifest_key(directory)
        ) is not None  # ... and the table rewritten for it
        assert load_lake(directory)._table is not None
        return lake

    def test_first_load_writes_the_table_and_later_loads_keep_it(self, lake_dir):
        assert not os.path.exists(_table_path(lake_dir))
        _warm(lake_dir)
        before = os.stat(_table_path(lake_dir))
        assert load_lake(lake_dir)._table is not None
        after = os.stat(_table_path(lake_dir))
        assert (after.st_mtime_ns, after.st_size) == (
            before.st_mtime_ns, before.st_size
        )

    def test_one_byte_manifest_change(self, lake_dir):
        _warm(lake_dir)
        with open(os.path.join(lake_dir, "manifest.json"), "ab") as handle:
            handle.write(b"\n")  # still the same JSON, other bytes
        self._assert_rebuilt(lake_dir)

    def test_card_edit_and_save(self, lake_dir):
        _, warm = _warm(lake_dir)
        model_id = warm.model_ids()[2]
        warm.update_card(model_id, ModelCard(model_name="x", description="zebra"))
        save_lake(warm, lake_dir)
        lake = self._assert_rebuilt(lake_dir)
        assert lake.get_record(model_id).card.description == "zebra"
        reloaded = load_lake(lake_dir)
        assert reloaded.card_texts()[2] == "x\nzebra"

    def test_added_model_and_save(self, lake_dir):
        _, warm = _warm(lake_dir)
        added = warm.add_model(build_model(_SPEC, seed=99), name="late",
                               model_id="late-model")
        save_lake(warm, lake_dir)
        lake = self._assert_rebuilt(lake_dir)
        reloaded = load_lake(lake_dir)
        assert len(reloaded) == len(lake) == len(warm)
        assert reloaded.model_ids()[-1] == "late-model"
        assert reloaded.weight_digests()[-1] == added.weights_digest

    @pytest.mark.parametrize("kind", ["foreign", "truncated", "empty", "bare_npy"])
    def test_damaged_table_file(self, lake_dir, kind, monkeypatch):
        _warm(lake_dir)
        path = _table_path(lake_dir)
        with open(path, "rb") as handle:
            good = handle.read()
        if kind == "foreign":
            atomic.atomic_write_npz(path, {"key": np.array("other")})
        elif kind == "truncated":
            with open(path, "wb") as handle:
                handle.write(good[: len(good) // 2])
        elif kind == "empty":
            open(path, "wb").close()
        else:
            with open(path, "wb") as handle:
                np.save(handle, np.arange(4))
        events = _Events()
        monkeypatch.setattr(atomic, "_log", events)
        self._assert_rebuilt(lake_dir)
        # A file in another layout is a quiet miss; a damaged one warns.
        assert events.warnings == ([] if kind == "foreign" else ["npz.unreadable"])

    @pytest.mark.parametrize("change", [1, -1])
    def test_entry_blocks_not_matching_the_rows(self, lake_dir, change):
        _warm(lake_dir)
        path = _table_path(lake_dir)
        arrays = atomic.read_npz(path, record_table._MEMBERS)
        blocks = arrays["entry_blocks"]
        arrays["entry_blocks"] = (
            np.append(blocks, blocks[-1]) if change > 0 else blocks[:-1]
        )
        atomic.atomic_write_npz(path, arrays)
        assert record_table.read_table(path, _manifest_key(lake_dir)) is None
        self._assert_rebuilt(lake_dir)

    def test_version_2_table_reads_as_miss_and_is_rewritten(self, lake_dir):
        _warm(lake_dir)
        path = _table_path(lake_dir)
        arrays = atomic.read_npz(path, record_table._MEMBERS)
        lake = load_lake(lake_dir)
        with open(os.path.join(lake_dir, "manifest.json"), "rb") as handle:
            sha = hashlib.sha256(handle.read()).hexdigest()
        # The version-2 layout: the texts stored, no column digests.
        v2 = {name: arrays[name] for name in record_table._MEMBERS[:5]}
        v2["key"] = np.array(f"records v2 manifest sha256 {sha}")
        for name in ("ids", "digests"):
            v2[name], v2[f"{name}_offsets"] = arrays[name], arrays[f"{name}_offsets"]
        v2["texts"], v2["texts_offsets"] = record_table.pack_strings(
            lake.card_texts()
        )
        v2["entries"] = arrays["entries"]
        v2["entries_offsets"] = arrays["entries_offsets"]
        v2["entry_blocks"] = arrays["entry_blocks"]
        atomic.atomic_write_npz(path, v2)
        self._assert_rebuilt(lake_dir)
        with np.load(path) as archive:
            assert archive.files == record_table._MEMBERS
            assert "texts" not in archive.files

    def test_version_3_table_reads_as_miss_and_is_rewritten(self, lake_dir):
        _warm(lake_dir)
        path = _table_path(lake_dir)
        arrays = atomic.read_npz(path, record_table._MEMBERS)
        with open(os.path.join(lake_dir, "manifest.json"), "rb") as handle:
            sha = hashlib.sha256(handle.read()).hexdigest()
        # The version-3 layout: no stored id order.
        v3 = {name: arrays[name] for name in record_table._MEMBERS
              if name != "ids_order"}
        v3["key"] = np.array(f"records v3 manifest sha256 {sha}")
        atomic.atomic_write_npz(path, v3)
        self._assert_rebuilt(lake_dir)
        with np.load(path) as archive:
            assert archive.files == record_table._MEMBERS

    def test_newer_table_version_reads_as_miss(self, lake_dir, monkeypatch):
        _warm(lake_dir)
        monkeypatch.setattr(
            record_table, "_TABLE_VERSION", record_table._TABLE_VERSION + 1
        )
        self._assert_rebuilt(lake_dir)

    def test_read_only_cache_still_serves_with_a_warning(self, lake_dir, monkeypatch):
        with LakeSnapshot.open(lake_dir) as snapshot:  # writes every cache file
            expected = [(hit.model_id, hit.score)
                        for hit in snapshot.engine.search("legal", k=5)]
        cache = os.path.dirname(_table_path(lake_dir))
        os.remove(_table_path(lake_dir))
        events = _Events()
        monkeypatch.setattr(persist, "_log", events)
        os.chmod(cache, 0o555)
        try:
            if os.access(cache, os.W_OK):  # root ignores the mode bits

                def refuse(path, arrays, fsync=True):
                    raise PermissionError(errno.EACCES, "Permission denied", path)

                monkeypatch.setattr(record_table, "atomic_write_npz", refuse)
            with LakeSnapshot.open(lake_dir) as snapshot:
                hits = snapshot.engine.search("legal", k=5)
        finally:
            os.chmod(cache, 0o755)
        assert [(hit.model_id, hit.score) for hit in hits] == expected
        assert events.warnings == ["records.save_failed"]
        assert not os.path.exists(_table_path(lake_dir))

    def test_clock_check_runs_on_a_hit(self, lake_dir, monkeypatch):
        _warm(lake_dir)
        seen = []
        check = persist._check_clock
        monkeypatch.setattr(
            persist, "_check_clock",
            lambda lake, created: seen.append(list(created)) or check(lake, created),
        )
        lake = load_lake(lake_dir)
        assert lake._table is not None
        assert seen == [[record.created_at for record in lake]]


def test_concurrent_first_access_decodes_each_record_once(lake_dir):
    # A record decoded twice would let a change made through one copy
    # vanish from the other; every thread must get the same object.
    _, warm = _warm(lake_dir)
    ids = warm.model_ids()
    seen = [[] for _ in range(8)]

    def read_all(out):
        for model_id in ids:
            out.append(warm.get_record(model_id))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read_all, args=(out,)) for out in seen]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for records in seen:
        assert len(records) == len(ids)
        assert all(a is b for a, b in zip(records, seen[0]))


def _small_lake(directory, count):
    spec = {"family": "mlp_classifier", "in_features": 2, "num_classes": 2,
            "hidden": [2]}
    lake = ModelLake()
    for index in range(count):
        lake.add_model(
            build_model(spec, seed=index), name=f"m{index}",
            card=ModelCard(model_name=f"m{index}", description=_WORDS[index % 10]),
            tags=[str(index)],
        )
    save_lake(lake, directory, sharded=True)


class TestEntryBlocks:
    """Entries are stored in zlib blocks of ``_BLOCK`` rows."""

    @pytest.mark.parametrize("count", [1, 63, 64, 65, 129])
    def test_every_row_decodes_to_its_manifest_entry(self, tmp_path, count):
        directory = str(tmp_path / "lake")
        _small_lake(directory, count)
        table = _warm(directory)[1]._table
        with open(os.path.join(directory, "manifest.json")) as handle:
            entries = sorted(json.load(handle)["records"],
                             key=lambda entry: entry["created_at"])
        assert len(table) == len(entries) == count
        # Rows out of order, so every block is entered from another one.
        for row in [*range(0, count, 2), *range(1, count, 2)]:
            assert table.record(row) == record_table.record_from_entry(entries[row])

    def test_a_walk_decompresses_each_block_once(self, tmp_path, monkeypatch):
        directory = str(tmp_path / "lake")
        _small_lake(directory, 129)
        warm = _warm(directory)[1]
        calls = []
        decompress = record_table.zlib.decompress
        monkeypatch.setattr(
            record_table.zlib, "decompress",
            lambda data: calls.append(len(data)) or decompress(data),
        )
        assert [record.name for record in warm] == [f"m{i}" for i in range(129)]
        assert len(calls) == 3  # 64 + 64 + 1 rows


class TestMutationsAfterWarmLoad:
    """Changes to a table-backed lake show in accessors and new engines."""

    @pytest.fixture()
    def warm(self, lake_dir):
        return _warm(lake_dir)[1]

    def _keyword_top(self, lake, probes, query):
        engine = SearchEngine(lake, probes, cache=EmbeddingCache())
        return [hit.model_id for hit in engine.search(query, k=1, method="keyword")]

    def test_update_card(self, warm, probes):
        model_id = warm.model_ids()[3]
        warm.update_card(model_id, ModelCard(model_name="x", description="zebra quartz"))
        assert warm.card_texts()[3] == "x\nzebra quartz"
        assert self._keyword_top(warm, probes, "zebra quartz") == [model_id]

    def test_add_model(self, warm, probes):
        record = warm.add_model(
            build_model(_SPEC, seed=7), name="late", model_id="late-model",
            card=ModelCard(model_name="late", description="zebra quartz"),
        )
        assert warm.model_ids()[-1] == "late-model"
        assert warm.weight_digests()[-1] == record.weights_digest
        assert self._keyword_top(warm, probes, "zebra quartz") == ["late-model"]
        engine = SearchEngine(warm, probes, cache=EmbeddingCache())
        assert "late-model" in {
            hit.model_id for hit in engine.search("legal", k=len(warm),
                                                  method="behavioral")
        }

    def test_register_record(self, warm, probes):
        source = warm.get_record(warm.model_ids()[0])
        twin = ModelRecord(
            model_id="twin", name="twin", architecture=dict(source.architecture),
            weights_digest=source.weights_digest,
            card=ModelCard(model_name="twin", description="zebra quartz"),
            created_at=warm.clock + 1,
        )
        warm.register_record(twin)
        assert warm.model_ids()[-1] == "twin"
        assert warm.card_texts()[-1] == "twin\nzebra quartz"
        assert self._keyword_top(warm, probes, "zebra quartz") == ["twin"]

    def test_record_metric_and_visibility(self, warm, probes):
        first, second = warm.model_ids()[:2]
        warm.record_metric(first, "zebra", 0.1)
        warm.record_metric(second, "zebra", 0.9)
        warm.set_history_visibility(first, False)
        warm.set_weights_visibility(first, False)
        payload = _model_payload(warm, first)[1]
        assert payload["eval_metrics"]["zebra"] == 0.1
        assert payload["history_public"] is False
        assert payload["weights_public"] is False
        engine = SearchEngine(warm, probes, cache=EmbeddingCache())
        assert [hit.model_id for hit in engine.models_outperforming(first, "zebra")] == [
            second
        ]

    def test_copy_of_a_warm_lake_directory_opens_warm(self, lake_dir, tmp_path):
        _warm(lake_dir)
        copy = str(tmp_path / "copy")
        shutil.copytree(lake_dir, copy)
        assert load_lake(copy)._table is not None  # keyed by content, not path


class TestMappedTable:
    """An open table serves its members from one read-only mapping."""

    def test_replacing_the_file_after_the_open_changes_no_record(self, lake_dir):
        decoded, warm = _warm(lake_dir)
        path = _table_path(lake_dir)
        ids = decoded.model_ids()
        # Another lake's table, swapped in atomically as a rewrite would.
        other = os.path.join(os.path.dirname(lake_dir), "other")
        _small_lake(other, 70)
        load_lake(other)
        with open(_table_path(other), "rb") as handle:
            atomic.atomic_write_bytes(path, handle.read())
        assert warm._table._decoded == {}
        assert warm.model_ids() == ids
        assert warm.weight_digests() == decoded.weight_digests()
        assert warm.card_texts() == decoded.card_texts()
        for model_id in reversed(ids):
            assert model_id in warm
            assert _model_payload(warm, model_id) == _model_payload(decoded, model_id)

    def test_members_are_read_only_views_of_one_mapping(self, lake_dir):
        _, warm = _warm(lake_dir)
        table = warm._table
        arrays = [table.created, table._entries, table._entry_offsets,
                  table._entry_blocks, *table._columns["ids"],
                  *table._columns["digests"]]
        bases = set()
        for array in arrays:
            assert not array.flags.writeable and array.flags.aligned
            while isinstance(array, np.ndarray) and array.base is not None:
                array = array.base
            if isinstance(array, memoryview):
                array = array.obj
            bases.add(id(array))
        assert len(bases) == 1
        # The stdlib's mapping, or the C library's seen through ctypes.
        assert isinstance(array, (mmap.mmap, ctypes.Array))

    def test_a_member_that_fails_its_crc_is_a_miss(self, lake_dir, monkeypatch):
        _warm(lake_dir)
        path = _table_path(lake_dir)
        with open(path, "rb") as handle:
            data = bytearray(handle.read())
        # Flip one byte inside the entries blob, leaving every header whole.
        arrays = atomic.read_npz(path, record_table._MEMBERS)
        needle = arrays["entries"].tobytes()[:32]
        at = bytes(data).index(needle) + 16
        data[at] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(data))
        events = _Events()
        monkeypatch.setattr(atomic, "_log", events)
        assert record_table.read_table(path, _manifest_key(lake_dir)) is None
        assert events.warnings == ["npz.unreadable"]
