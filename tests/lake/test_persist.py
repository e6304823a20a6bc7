"""Tests for lake persistence round trips."""

import gc
import json
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from repro.core.citation import cite_model, resolve_citation
from repro.core.versioning import VersionGraph
from repro.errors import LakeError
from repro.lake import load_lake, save_lake


@pytest.fixture(scope="module")
def saved(tmp_path_factory, lake_bundle):
    directory = str(tmp_path_factory.mktemp("lake"))
    save_lake(lake_bundle.lake, directory)
    return directory, load_lake(directory)


class TestRoundTrip:
    def test_record_identity(self, saved, lake_bundle):
        _, restored = saved
        assert restored.model_ids() == lake_bundle.lake.model_ids()
        for record in lake_bundle.lake:
            twin = restored.get_record(record.model_id)
            assert twin.name == record.name
            assert twin.weights_digest == record.weights_digest
            assert twin.created_at == record.created_at
            assert twin.eval_metrics == record.eval_metrics

    def test_cards_survive(self, saved, lake_bundle):
        _, restored = saved
        for record in lake_bundle.lake:
            assert restored.get_record(record.model_id).card.digest() == (
                record.card.digest()
            )

    def test_models_behave_identically(self, saved, lake_bundle):
        _, restored = saved
        model_id = lake_bundle.truth.foundations[0]
        original = lake_bundle.lake.get_model(model_id, force=True)
        twin = restored.get_model(model_id, force=True)
        tokens = lake_bundle.eval_dataset.tokens[:5]
        assert np.allclose(
            original.predict_proba(tokens), twin.predict_proba(tokens)
        )

    def test_histories_and_version_graph_survive(self, saved, lake_bundle):
        _, restored = saved
        original_graph = VersionGraph.from_lake_history(lake_bundle.lake)
        restored_graph = VersionGraph.from_lake_history(restored)
        assert restored_graph.edge_set() == original_graph.edge_set()
        child = next(c for _, c, _ in lake_bundle.truth.edges)
        history = restored.get_history(child)
        assert history.transform is not None
        assert history.transform.kind == (
            lake_bundle.lake.get_history(child).transform.kind
        )

    def test_datasets_and_lineage_survive(self, saved, lake_bundle):
        _, restored = saved
        original = lake_bundle.lake.datasets
        twin = restored.datasets
        assert set(twin.digests()) == set(original.digests())
        base = lake_bundle.base_dataset.content_digest()
        assert twin.versions_of(base) == original.versions_of(base)

    def test_clock_and_citations_survive(self, saved, lake_bundle):
        _, restored = saved
        assert restored.clock == lake_bundle.lake.clock
        model_id = lake_bundle.truth.foundations[0]
        citation = cite_model(lake_bundle.lake, model_id)
        outcome = resolve_citation(restored, citation)
        # Same artifact, same weights; at worst a snapshot difference.
        assert outcome.status in ("exact", "lake_evolved")

    def test_missing_manifest_raises(self, tmp_path):
        with pytest.raises(LakeError):
            load_lake(str(tmp_path))


class TestGcPause:
    """``load_lake`` runs its manifest decode and record build with the
    cyclic GC paused, and leaves the GC as it found it."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_load_and_restored_after(self, saved, monkeypatch):
        from repro.lake import persist

        directory, _ = saved
        states = []
        check_clock = persist._check_clock

        def spy(lake, manifest):
            states.append(gc.isenabled())
            check_clock(lake, manifest)

        monkeypatch.setattr(persist, "_check_clock", spy)
        gc.enable()
        load_lake(directory)
        assert states == [False]
        assert gc.isenabled()

    def test_restored_after_lake_error(self, saved, tmp_path):
        directory = str(tmp_path / "lake")
        shutil.copytree(saved[0], directory)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["clock"] = -1  # behind every record: refused after the build
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        gc.enable()
        with pytest.raises(LakeError, match="clock"):
            load_lake(directory)
        assert gc.isenabled()

    def test_disabled_gc_stays_disabled(self, saved):
        gc.disable()
        load_lake(saved[0])
        assert not gc.isenabled()

    def test_overlapping_pauses_leave_gc_on(self):
        # Many threads entering and leaving the pause, with a tiny switch
        # interval: without the state lock a thread can read "off" while
        # another re-enables, then switch the collector off for good.
        from repro.lake.persist import _gc_paused

        def pause_repeatedly():
            for _ in range(5000):
                with _gc_paused():
                    pass

        gc.enable()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pause_repeatedly)
                       for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert gc.isenabled()

    def test_load_creates_no_cyclic_garbage(self, saved, tmp_path):
        # The premise of the pause: the manifest decode and record build
        # leave nothing for the cycle collector, so pausing it only saves
        # time.  Dataset archives load after the pause (np.load's header
        # parse leaves cycles), so this lake carries none.
        directory = str(tmp_path / "lake")
        shutil.copytree(saved[0], directory)
        manifest_path = os.path.join(directory, "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        assert manifest.pop("datasets")
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        load_lake(directory)  # first-use imports and caches
        gc.collect()
        gc.disable()
        lake = load_lake(directory)
        assert gc.collect() == 0
        assert len(lake) == len(load_lake(saved[0]))
