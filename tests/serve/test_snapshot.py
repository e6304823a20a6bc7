"""Tests for LakeSnapshot: lifecycle, and weight reads that hold no fd."""

import gc
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from repro.data.domains import DOMAIN_NAMES
from repro.data.vocab import build_default_vocabulary
from repro.index.cache import EmbeddingCache
from repro.lake import ModelCard, ModelLake, save_lake
from repro.lake import table as record_table
from repro.nn.models import build_model
from repro.serve import LakeSnapshot

_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "src",
)

#: Models in the cold-open lake; more than the probe's soft fd limit.
_COLD_MODELS = 200
_FD_LIMIT = 128

_COLD_OPEN_PROBE = """
import resource
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, ({limit}, hard))
from repro.serve.snapshot import LakeSnapshot
with LakeSnapshot.open({directory!r}) as snapshot:
    print(len(snapshot.lake))
"""


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestSnapshotLifecycle:
    def test_open_builds_working_engine(self, serve_lake_dir):
        with LakeSnapshot.open(serve_lake_dir) as snapshot:
            hits = snapshot.engine.search("legal court statute", k=3)
            assert hits
            assert snapshot.directory == serve_lake_dir
            assert not snapshot.closed

    def test_close_releases_every_weight_handle(self, serve_lake_dir):
        """No weight read leaves an fd behind for close() to release."""
        gc.collect()  # earlier tests' unreachable files close here
        baseline = _open_fds()
        snapshot = LakeSnapshot.open(serve_lake_dir)
        record = next(iter(snapshot.lake))
        arrays = snapshot.lake.weights.get(record.weights_digest)
        assert all(np.isfinite(a).all() for a in arrays.values())
        del arrays
        snapshot.close()
        assert _open_fds() <= baseline
        assert snapshot.closed

    def test_close_is_idempotent(self, serve_lake_dir):
        snapshot = LakeSnapshot.open(serve_lake_dir)
        snapshot.close()
        snapshot.close()
        assert snapshot.closed

    def test_stragglers_survive_close(self, serve_lake_dir):
        """Arrays handed out before close() stay readable after it."""
        snapshot = LakeSnapshot.open(serve_lake_dir)
        record = next(iter(snapshot.lake))
        arrays = snapshot.lake.weights.get(record.weights_digest)
        snapshot.close()
        for array in arrays.values():
            assert array.shape is not None
            float(array.ravel()[0])  # actually touch the mapping

    def test_handles_do_not_grow_per_read(self, serve_lake_dir):
        """Every disk read's mapping goes away with its arrays."""
        gc.collect()  # earlier tests' unreachable files close here
        baseline = _open_fds()
        snapshot = LakeSnapshot.open(serve_lake_dir)
        digests = [record.weights_digest for record in snapshot.lake]
        for digest in digests * 2:
            arrays = snapshot.lake.weights.get(digest)
            assert all(np.isfinite(a).all() for a in arrays.values())
        del arrays
        assert _open_fds() <= baseline
        assert not snapshot.closed


class TestScopedWeightReads:
    def test_cold_open_needs_no_fd_per_model(self, tmp_path):
        """A cold open of more models than the soft fd limit succeeds."""
        pytest.importorskip("resource")
        rng = np.random.default_rng(0)
        template = build_model({
            "family": "text_classifier",
            "vocab_size": len(build_default_vocabulary()),
            "num_classes": len(DOMAIN_NAMES), "dim": 8, "hidden": [8],
        })
        base = template.state_dict()
        lake = ModelLake()
        for i in range(_COLD_MODELS):
            template.load_state_dict({
                key: value + rng.normal(scale=0.05, size=value.shape)
                for key, value in base.items()
            })
            lake.add_model(template, name=f"fd-{i:03d}")
        directory = str(tmp_path / "lake")
        save_lake(lake, directory, sharded=True)
        shutil.rmtree(os.path.join(directory, "cache"), ignore_errors=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [_SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )
        completed = subprocess.run(
            [sys.executable, "-c",
             _COLD_OPEN_PROBE.format(limit=_FD_LIMIT, directory=directory)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert completed.stdout.split() == [str(_COLD_MODELS)]


class TestWarmOpenWork:
    """A warm open builds its query indexes from the packed cache files,
    with no per-model Python object in between."""

    def test_warm_open_decodes_no_card_and_gets_embeddings_once(
        self, serve_lake_dir, monkeypatch
    ):
        LakeSnapshot.open(serve_lake_dir).close()  # writes every cache file
        texts, gets, unpacked = [], [], []
        real_text, real_get = ModelCard.text, EmbeddingCache.get
        real_unpack = record_table._unpack

        def counting_text(self):
            texts.append(self)
            return real_text(self)

        def recording_get(self, space, digests):
            gets.append(digests)
            return real_get(self, space, digests)

        def recording_unpack(blob, offsets):
            unpacked.append(blob)
            return real_unpack(blob, offsets)

        monkeypatch.setattr(ModelCard, "text", counting_text)
        monkeypatch.setattr(EmbeddingCache, "get", recording_get)
        monkeypatch.setattr(record_table, "_unpack", recording_unpack)
        with LakeSnapshot.open(serve_lake_dir) as snapshot:
            table = snapshot.lake._current_table()
            assert table is not None  # opened from the record table
            # No texts blob at all: BM25's key is the texts' stored digest.
            assert "texts" not in table._columns
            assert texts == []
            # Nor a digest decoded to a str: the gather views the blob.
            digests_blob = table.packed("digests")[0]
            assert not any(blob is digests_blob for blob in unpacked)
            # One lookup of the whole digest list, none per model.
            assert [np.asarray(digests).astype(str).tolist()
                    for digests in gets] == [snapshot.lake.weight_digests()]
            # One copy of the behavioral matrix: the index's own.
            assert snapshot.engine.cache.loaded_spaces == []
            assert snapshot.engine.search("legal court statute", k=3)
