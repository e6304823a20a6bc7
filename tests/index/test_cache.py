"""Tests for the persistent embedding cache and its SearchEngine wiring."""

import numpy as np
import pytest

from repro.core.search import SearchEngine
from repro.index import EmbeddingCache
from repro.lake import load_lake, save_lake
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    EMBED_CACHE_HITS,
    EMBED_CACHE_MISSES,
    LAKE_MODEL_LOADS,
)


class TestEmbeddingCache:
    def test_miss_then_hit_in_memory(self):
        cache = EmbeddingCache()
        assert cache.get("space", "digest") is None
        cache.put("space", "digest", np.arange(3.0))
        assert np.allclose(cache.get("space", "digest"), [0.0, 1.0, 2.0])

    def test_spaces_are_isolated(self):
        cache = EmbeddingCache()
        cache.put("a", "d", np.ones(2))
        assert cache.get("b", "d") is None

    def test_persists_across_instances(self, tmp_path):
        first = EmbeddingCache(str(tmp_path))
        first.put("weightstat-s4", "abc123", np.array([1.0, 2.0]))
        first.flush()
        second = EmbeddingCache(str(tmp_path))
        assert np.allclose(second.get("weightstat-s4", "abc123"), [1.0, 2.0])

    def test_flush_is_idempotent_and_memory_mode_safe(self, tmp_path):
        EmbeddingCache().flush()
        cache = EmbeddingCache(str(tmp_path))
        cache.flush()
        cache.put("s", "d", np.zeros(1))
        cache.flush()
        cache.flush()
        assert np.allclose(EmbeddingCache(str(tmp_path)).get("s", "d"), [0.0])

    def test_hit_miss_counters(self):
        registry = obs_metrics.get_registry()
        hits = registry.counter(EMBED_CACHE_HITS)
        misses = registry.counter(EMBED_CACHE_MISSES)
        cache = EmbeddingCache()
        h0, m0 = hits.value, misses.value
        cache.get("s", "d")
        assert (hits.value, misses.value) == (h0, m0 + 1)
        cache.put("s", "d", np.ones(1))
        cache.get("s", "d")
        assert (hits.value, misses.value) == (h0 + 1, m0 + 1)


class TestCacheFileLayout:
    """One ``digests`` array plus one stacked ``vectors`` matrix per file."""

    def test_round_trip_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        expected = {
            f"{index:02x}{index * 7919:08x}": rng.standard_normal(5)
            for index in range(40)
        }
        # Values a lossy round trip would change.
        expected["ff00000000"] = np.array(
            [np.pi, -0.0, 1e-308, np.nextafter(1.0, 2.0), 5e-324]
        )
        first = EmbeddingCache(str(tmp_path))
        for digest, vector in expected.items():
            first.put("space", digest, vector)
        first.flush()
        second = EmbeddingCache(str(tmp_path))
        for digest, vector in expected.items():
            got = second.get("space", digest)
            assert got.dtype == np.float64
            assert got.tobytes() == vector.tobytes(), digest

    def test_file_holds_digests_and_one_matrix(self, tmp_path):
        cache = EmbeddingCache(str(tmp_path))
        cache.put("space", "bb", np.full(3, 2.0))
        cache.put("space", "aa", np.full(3, 1.0))
        cache.flush()
        with np.load(tmp_path / "embeddings-space.npz") as archive:
            assert archive.files == ["digests", "vectors"]
            assert archive["digests"].tolist() == ["aa", "bb"]
            assert archive["vectors"].shape == (2, 3)
            assert archive["vectors"].dtype == np.float64

    def test_old_per_digest_file_is_a_miss_then_rewritten(self, tmp_path):
        path = tmp_path / "embeddings-space.npz"
        np.savez(path, aa11=np.ones(2), bb22=np.zeros(2))
        cache = EmbeddingCache(str(tmp_path))
        assert cache.get("space", "aa11") is None
        assert cache.get("space", "bb22") is None
        cache.put("space", "aa11", np.full(2, 3.0))
        cache.flush()
        with np.load(path) as archive:
            assert archive.files == ["digests", "vectors"]
            assert archive["digests"].tolist() == ["aa11"]
        reread = EmbeddingCache(str(tmp_path))
        assert reread.get("space", "aa11").tolist() == [3.0, 3.0]

    def test_old_layout_lake_cache_rebuilds_once(self, lake_bundle, probes, tmp_path):
        lake = lake_bundle.lake
        cache_dir = tmp_path / "cache"
        cold = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        # Rewrite every embedding file in the old one-member-per-digest layout.
        for path in cache_dir.glob("embeddings-*.npz"):
            with np.load(path) as archive:
                old = dict(zip(archive["digests"].tolist(), archive["vectors"]))
            np.savez(path, **old)
        loads = obs_metrics.get_registry().counter(LAKE_MODEL_LOADS)
        before = loads.value
        rebuilt = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        assert loads.value > before  # old layout misses: models re-embedded
        before = loads.value
        warm = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        assert loads.value == before  # rewritten in the new layout: all hits
        for engine in (rebuilt, warm):
            assert [tuple(hit) for hit in engine.search("legal contracts", k=5)] == [
                tuple(hit) for hit in cold.search("legal contracts", k=5)
            ]


class TestShardedLakeCache:
    """A sharded lake's cache is still one file per embedding space."""

    @pytest.fixture()
    def sharded_dir(self, lake_bundle, tmp_path):
        directory = tmp_path / "lake"
        save_lake(lake_bundle.lake, str(directory), sharded=True)
        return directory

    def test_one_file_per_space(self, probes, sharded_dir):
        cache_dir = sharded_dir / "cache"
        SearchEngine(load_lake(str(sharded_dir)), probes, cache_dir=str(cache_dir))
        entries = sorted(cache_dir.iterdir())
        assert all(entry.is_file() for entry in entries), entries
        names = [entry.name for entry in entries]
        behavioral = [name for name in names
                      if name.startswith("embeddings-behavioral-")]
        assert len(behavioral) == 1 and behavioral[0].endswith(".npz")
        assert set(names) == {
            behavioral[0], "embeddings-weightstat-s4.npz", "bm25.npz",
        }

    def test_prefix_directories_read_as_misses_once(self, probes, sharded_dir):
        cache_dir = sharded_dir / "cache"
        lake = load_lake(str(sharded_dir))
        cold = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        # Move every space into the older per-digest-prefix layout.
        for path in sorted(cache_dir.glob("embeddings-*.npz")):
            with np.load(path) as archive:
                digests = archive["digests"].tolist()
                vectors = archive["vectors"]
            prefix_dir = cache_dir / path.name[: -len(".npz")]
            prefix_dir.mkdir()
            for prefix in sorted({digest[:2] for digest in digests}):
                rows = [i for i, d in enumerate(digests) if d[:2] == prefix]
                np.savez(
                    prefix_dir / f"{prefix}.npz",
                    digests=np.array([digests[i] for i in rows]),
                    vectors=vectors[rows],
                )
            path.unlink()
        registry = obs_metrics.get_registry()
        hits = registry.counter(EMBED_CACHE_HITS)
        misses = registry.counter(EMBED_CACHE_MISSES)
        h0, m0 = hits.value, misses.value
        rebuilt = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        assert hits.value == h0  # the prefix directories are not read
        assert misses.value - m0 == 2 * len(lake)
        h0, m0 = hits.value, misses.value
        warm = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        assert (hits.value - h0, misses.value - m0) == (2 * len(lake), 0)
        assert len(list(cache_dir.glob("embeddings-*.npz"))) == 2
        for engine in (rebuilt, warm):
            assert [tuple(hit) for hit in engine.search("legal contracts", k=5)] == [
                tuple(hit) for hit in cold.search("legal contracts", k=5)
            ]


class TestSearchEngineCache:
    @pytest.fixture()
    def lake(self, lake_bundle):
        return lake_bundle.lake

    def test_warm_rebuild_loads_no_models(self, lake, probes, tmp_path):
        cache_dir = str(tmp_path / "cache")
        registry = obs_metrics.get_registry()
        loads = registry.counter(LAKE_MODEL_LOADS)

        cold_start = loads.value
        cold = SearchEngine(lake, probes, cache_dir=cache_dir)
        assert loads.value > cold_start  # cold build embeds models

        warm_start = loads.value
        warm = SearchEngine(lake, probes, cache_dir=cache_dir)
        assert loads.value == warm_start  # warm build loads zero models

        for query in ("legal contracts", "medical notes"):
            assert (
                [(h.model_id, round(h.score, 12)) for h in cold.search(query, k=5)]
                == [(h.model_id, round(h.score, 12)) for h in warm.search(query, k=5)]
            )

    def test_warm_rebuild_across_processes_shape(self, lake, probes, tmp_path):
        """The on-disk layout is one npz per embedding space."""
        cache_dir = tmp_path / "cache"
        SearchEngine(lake, probes, cache_dir=str(cache_dir))
        files = sorted(p.name for p in cache_dir.iterdir())
        assert any(f.startswith("embeddings-behavioral-") for f in files)
        assert "embeddings-weightstat-s4.npz" in files

    def test_shared_cache_object(self, lake, probes):
        cache = EmbeddingCache()
        SearchEngine(lake, probes, cache=cache)
        registry = obs_metrics.get_registry()
        loads = registry.counter(LAKE_MODEL_LOADS)
        before = loads.value
        SearchEngine(lake, probes, cache=cache)
        assert loads.value == before

    def test_engine_without_cache_still_works(self, lake, probes):
        engine = SearchEngine(lake, probes)
        assert engine.cache is None
        assert engine.search("legal", k=3)


class TestCacheThreadSafety:
    """Regression tests for the lazy first-touch / flush races.

    Before the cache grew its lock, two threads first-touching the same
    space both missed the lookup, both read the npz, and the loser's
    assignment replaced the dict the winner had already
    put fresh embeddings into — embeddings a later flush then silently
    dropped.  These tests force that interleaving with a gated
    ``np.load`` and assert the put survives.
    """

    def test_put_racing_lazy_load_is_not_lost(self, tmp_path, monkeypatch):
        import threading
        import time

        seeded = EmbeddingCache(str(tmp_path))
        seeded.put("s", "aa11", np.ones(2))
        seeded.flush()

        cache = EmbeddingCache(str(tmp_path))
        load_entered = threading.Event()
        release_load = threading.Event()
        real_load = np.load

        def gated_load(path, *args, **kwargs):
            load_entered.set()
            release_load.wait(timeout=10)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", gated_load)
        loader = threading.Thread(target=lambda: cache.get("s", "aa11"))
        loader.start()
        assert load_entered.wait(timeout=10)
        # The writer races the in-flight first-touch load; with the
        # cache lock it must wait for the load instead of inserting
        # into a dict the load is about to replace.
        writer = threading.Thread(
            target=lambda: cache.put("s", "bb22", np.full(2, 7.0))
        )
        writer.start()
        time.sleep(0.05)  # let the writer reach the lock
        release_load.set()
        loader.join(timeout=10)
        writer.join(timeout=10)
        monkeypatch.setattr(np, "load", real_load)

        assert np.allclose(cache.get("s", "bb22"), 7.0)
        cache.flush()
        reread = EmbeddingCache(str(tmp_path))
        assert reread.get("s", "bb22") is not None
        assert np.allclose(reread.get("s", "aa11"), 1.0)

    def test_concurrent_first_touch_reads_disk_once(self, tmp_path, monkeypatch):
        import threading
        import time

        seeded = EmbeddingCache(str(tmp_path))
        seeded.put("s", "aa11", np.ones(2))
        seeded.flush()

        cache = EmbeddingCache(str(tmp_path))
        calls = []
        real_load = np.load

        def counting_load(path, *args, **kwargs):
            calls.append(path)
            time.sleep(0.05)  # widen the race window
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        threads = [
            threading.Thread(target=lambda: cache.get("s", "aa11"))
            for _ in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        monkeypatch.setattr(np, "load", real_load)
        assert len(calls) == 1  # exactly one thread performed the read

    def test_flush_racing_put_keeps_dirty_mark(self, tmp_path):
        """A put during a flush sweep must not lose its dirty mark."""
        import threading

        cache = EmbeddingCache(str(tmp_path))
        cache.put("s", "aa11", np.ones(2))

        done = threading.Event()

        def flusher():
            for _ in range(20):
                cache.flush()
            done.set()

        def putter():
            for index in range(20):
                cache.put("s", f"d{index:04d}", np.full(2, float(index)))

        threads = [
            threading.Thread(target=flusher),
            threading.Thread(target=putter),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        cache.flush()
        reread = EmbeddingCache(str(tmp_path))
        for index in range(20):
            assert reread.get("s", f"d{index:04d}") is not None, index
