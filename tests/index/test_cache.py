"""Tests for the persistent embedding cache and its SearchEngine wiring."""

import errno
import io
import os
import threading
import time
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.search import SearchEngine
from repro.core.search import engine as engine_module
from repro.core.search.behavioral import embedding_index
from repro.index import EmbeddingCache
from repro.index import cache as cache_module
from repro.index.embedders import WeightStatEmbedder
from repro.index.flat import BLOCK_ROWS
from repro.lake import load_lake, save_lake
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    EMBED_CACHE_HITS,
    EMBED_CACHE_MISSES,
    LAKE_MODEL_LOADS,
)
from repro.serve.snapshot import LakeSnapshot


def _weight_query(engine):
    """One model-as-query weight search: builds the lazy weight view."""
    model_id = engine.lake.model_ids()[0]
    return engine.related_models(model_id, k=3, view="weight")


class _Events:
    """Stands in for the cache's structured logger; keeps warning events."""

    def __init__(self):
        self.warnings = []

    def warning(self, event, **fields):
        self.warnings.append(event)

    def debug(self, event, **fields):
        pass

    info = debug


def _refuse(path, arrays, fsync=True):
    raise PermissionError(errno.EACCES, "Permission denied", path)


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

    def test_unwritable_directory_keeps_space_dirty(self, tmp_path, monkeypatch):
        events = _Events()
        monkeypatch.setattr(cache_module, "_log", events)
        monkeypatch.setattr(cache_module, "atomic_write_npz", _refuse)
        cache = EmbeddingCache(str(tmp_path))
        cache.put("s", "d", np.full(2, 4.0))
        cache.flush()  # logs instead of raising
        assert events.warnings == ["embeddings.save_failed"]
        assert cache.get("s", "d").tolist() == [4.0, 4.0]  # still in memory
        assert not (tmp_path / "embeddings-s.npz").exists()
        monkeypatch.undo()
        cache.flush()  # still dirty: the next flush writes it
        assert EmbeddingCache(str(tmp_path)).get("s", "d").tolist() == [4.0, 4.0]


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
            assert archive["digests"].dtype == np.dtype("S2")
            assert archive["digests"].tolist() == [b"aa", b"bb"]
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
            assert archive["digests"].tolist() == [b"aa11"]
        reread = EmbeddingCache(str(tmp_path))
        assert reread.get("space", "aa11").tolist() == [3.0, 3.0]

    def test_old_layout_lake_cache_rebuilds_once(self, lake_bundle, probes, tmp_path):
        lake = lake_bundle.lake
        cache_dir = tmp_path / "cache"
        cold = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        # Rewrite every embedding file in the old one-member-per-digest layout.
        for path in cache_dir.glob("embeddings-*.npz"):
            with np.load(path) as archive:
                old = dict(zip(archive["digests"].astype(str).tolist(),
                               archive["vectors"]))
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
        lake = load_lake(str(sharded_dir))
        _weight_query(SearchEngine(lake, probes, cache_dir=str(cache_dir)))
        entries = sorted(cache_dir.iterdir())
        assert all(entry.is_file() for entry in entries), entries
        names = [entry.name for entry in entries]
        behavioral = [name for name in names
                      if name.startswith("embeddings-behavioral-")]
        assert len(behavioral) == 1 and behavioral[0].endswith(".npz")
        assert set(names) == {
            behavioral[0], "embeddings-weightstat-s4.npz", "bm25.npz",
            "records.npz",
        }

    def test_prefix_directories_read_as_misses_once(self, probes, sharded_dir):
        cache_dir = sharded_dir / "cache"
        lake = load_lake(str(sharded_dir))
        cold = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        _weight_query(cold)
        # Move every space into the older per-digest-prefix layout.
        for path in sorted(cache_dir.glob("embeddings-*.npz")):
            with np.load(path) as archive:
                digests = archive["digests"].astype(str).tolist()
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
        _weight_query(rebuilt)
        assert hits.value == h0  # the prefix directories are not read
        assert misses.value - m0 == 2 * len(lake)
        h0, m0 = hits.value, misses.value
        warm = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        _weight_query(warm)
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
        _weight_query(SearchEngine(lake, probes, cache_dir=str(cache_dir)))
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

    def test_unwritable_cache_does_not_fail_the_engine(
        self, lake, probes, tmp_path, monkeypatch
    ):
        expected = SearchEngine(lake, probes)
        events = _Events()
        monkeypatch.setattr(cache_module, "_log", events)
        monkeypatch.setattr(cache_module, "atomic_write_npz", _refuse)
        engine = SearchEngine(lake, probes, cache_dir=str(tmp_path / "cache"))
        assert _weight_query(engine) == _weight_query(expected)
        assert engine.search("legal", k=5) == expected.search("legal", k=5)
        assert events.warnings == ["embeddings.save_failed"] * 3
        assert not list((tmp_path / "cache").glob("embeddings-*"))


class TestLazyWeightView:
    """The weight-statistics index is built by its first query, once."""

    @pytest.fixture()
    def lake(self, lake_bundle):
        return lake_bundle.lake

    @pytest.fixture()
    def lake_dir(self, lake_bundle, tmp_path):
        directory = tmp_path / "lake"
        save_lake(lake_bundle.lake, str(directory), sharded=True)
        return directory

    def test_warm_open_reads_only_the_behavioral_space(
        self, lake_dir, monkeypatch
    ):
        LakeSnapshot.open(str(lake_dir)).close()  # writes the cache files
        reads = []
        real_open = cache_module.open_npz

        def recording_open(path, members):
            reads.append(os.path.basename(path))
            return real_open(path, members)

        monkeypatch.setattr(cache_module, "open_npz", recording_open)
        registry = obs_metrics.get_registry()
        hits = registry.counter(EMBED_CACHE_HITS)
        misses = registry.counter(EMBED_CACHE_MISSES)
        h0, m0 = hits.value, misses.value
        with LakeSnapshot.open(str(lake_dir)) as snapshot:
            assert (hits.value - h0, misses.value - m0) == (len(snapshot.lake), 0)
            assert len(reads) == 1 and reads[0].startswith("embeddings-behavioral-")
            assert not (lake_dir / "cache" / "embeddings-weightstat-s4.npz").exists()
            _weight_query(snapshot.engine)
        assert reads[1:] == ["embeddings-weightstat-s4.npz"]
        assert (lake_dir / "cache" / "embeddings-weightstat-s4.npz").exists()

    def test_lazy_view_matches_an_eager_index(self, lake, probes, tmp_path):
        eager = embedding_index(lake, WeightStatEmbedder())
        engine = SearchEngine(lake, probes, cache_dir=str(tmp_path / "cache"))
        embedder = WeightStatEmbedder()
        for model_id in lake.model_ids():
            vector = embedder.embed(lake.get_model(model_id, force=True))
            expected = [
                (mid, score) for mid, score in eager.query(vector, k=6)
                if mid != model_id
            ][:5]
            hits = engine.related_models(model_id, k=5, view="weight")
            assert [(h.model_id, h.score) for h in hits] == expected

    def test_concurrent_first_queries_build_once(self, lake, probes, monkeypatch):
        engine = SearchEngine(lake, probes)
        builds = []
        real_build = engine_module.embedding_index

        def slow_build(*args, **kwargs):
            builds.append(threading.get_ident())
            time.sleep(0.05)  # widen the race window
            return real_build(*args, **kwargs)

        monkeypatch.setattr(engine_module, "embedding_index", slow_build)
        start = threading.Barrier(8)
        results = [None] * 8

        def ask(slot):
            start.wait(timeout=10)
            results[slot] = _weight_query(engine)

        threads = [threading.Thread(target=ask, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(builds) == 1
        assert all(result == results[0] for result in results)
        assert results[0]


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


#: The digests a gather property test's cache file holds, in sorted order.
_STORED = sorted(f"{index * 7919 % 251:02x}{index:06x}" for index in range(24))


@pytest.fixture(scope="module")
def stored_dir(tmp_path_factory):
    """A cache directory whose space ``s`` holds :data:`_STORED`."""
    directory = str(tmp_path_factory.mktemp("gather"))
    cache = EmbeddingCache(directory)
    for index, digest in enumerate(_STORED):
        cache.put("s", digest, np.arange(3.0) + 10 * index)
    cache.flush()
    return directory


def _per_digest_loop(cache, space, digests):
    """What a per-digest index build did: ``get``, and ``put`` each miss."""
    rows = []
    for digest in digests:
        vector = cache.get(space, digest)
        if vector is None:
            vector = np.full(3, -1.0)
            cache.put(space, digest, vector)
        rows.append(vector)
    return rows


def _counters():
    registry = obs_metrics.get_registry()
    return (registry.counter(EMBED_CACHE_HITS).value,
            registry.counter(EMBED_CACHE_MISSES).value)


#: Stored row counts around the gather's block edges.
_BOUNDARY_ROWS = (BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1)


@pytest.fixture(scope="module")
def boundary_dirs(tmp_path_factory):
    """Row count -> (cache directory whose space ``s`` holds that many
    rows, its digests in file order)."""
    dirs = {}
    for rows in _BOUNDARY_ROWS:
        directory = str(tmp_path_factory.mktemp(f"rows{rows}"))
        cache = EmbeddingCache(directory)
        for index in range(rows):
            cache.put("s", f"{index * 2654435761 % 2**32:08x}{index:05x}",
                      np.array([index, -0.5 * index, 1.0 / (index + 1)]))
        cache.flush()
        with np.load(os.path.join(directory, "embeddings-s.npz")) as archive:
            dirs[rows] = (directory, archive["digests"].astype(str).tolist())
    return dirs


class TestGather:
    """``EmbeddingCache.get`` of a digest list: one lookup for them all."""

    @given(st.lists(
        st.one_of(st.sampled_from(_STORED), st.sampled_from(
            ["zz000000", "00", _STORED[3] + "0", _STORED[5][:-1]]
        )),
        max_size=30,
    ), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_digest_get(self, stored_dir, digests, in_memory):
        cache = EmbeddingCache(stored_dir)
        if in_memory:
            cache.get("s", _STORED[0])  # loads the space's dict
        reference = EmbeddingCache(stored_dir)
        found = cache.get("s", digests)
        want = [reference.get("s", digest) for digest in digests]
        if all(row is None for row in want):
            assert found is None
            return
        matrix, missed = found
        assert missed == [i for i, row in enumerate(want) if row is None]
        assert matrix.shape == (len(digests), 3)
        for position, row in enumerate(want):
            expected = np.zeros(3) if row is None else row
            assert matrix[position].tobytes() == expected.tobytes()
        assert ("s" in cache.loaded_spaces) == (in_memory or bool(missed))

    @pytest.mark.parametrize("column", ["reversed", "foreign"])
    def test_odd_column_never_gives_a_wrong_row(self, tmp_path, column):
        digests = ["aa11", "bb22", "cc33", "dd44"]
        vectors = np.arange(8.0).reshape(4, 2)
        if column == "reversed":  # unsorted: searchsorted lands anywhere
            stored, rows = digests[::-1], vectors[::-1]
        else:  # near-misses of every wanted digest
            stored, rows = ["aa1", "bb222", "cc3", "dd45"], vectors
        np.savez(tmp_path / "embeddings-s.npz",
                 digests=np.array(stored, dtype=bytes), vectors=rows)
        truth = dict(zip(stored, rows))
        found = EmbeddingCache(str(tmp_path)).get("s", digests)
        if found is None:  # an unsorted column reads as a miss too
            return
        matrix, missed = found
        for position, digest in enumerate(digests):
            if position not in missed:
                assert digest in truth
                assert matrix[position].tolist() == truth[digest].tolist()

    @given(st.lists(st.sampled_from(_STORED[:4] + ["ee000000", "ff000000"]),
                    max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_counters_move_as_the_per_digest_loop(self, stored_dir, digests):
        before = _counters()
        _per_digest_loop(EmbeddingCache(stored_dir), "s", digests)
        middle = _counters()
        cache = EmbeddingCache(stored_dir)
        found = cache.get("s", digests)
        after = _counters()
        missed = range(len(digests)) if found is None else found[1]
        assert (after[0] - middle[0], after[1] - middle[1]) == (
            middle[0] - before[0], middle[1] - before[1]
        )
        assert len({digests[i] for i in missed}) == middle[1] - before[1]

    def test_put_racing_a_gather_survives_the_flush(self, tmp_path, monkeypatch):
        seeded = EmbeddingCache(str(tmp_path))
        seeded.put("s", "aa11", np.ones(2))
        seeded.flush()
        cache = EmbeddingCache(str(tmp_path))
        entered, release = threading.Event(), threading.Event()
        real_open = cache_module.open_npz

        def gated_open(path, members):
            entered.set()
            release.wait(timeout=10)
            return real_open(path, members)

        monkeypatch.setattr(cache_module, "open_npz", gated_open)
        gathered = []
        gatherer = threading.Thread(
            target=lambda: gathered.append(cache.get("s", ["aa11"]))
        )
        gatherer.start()
        assert entered.wait(timeout=10)
        writer = threading.Thread(
            target=lambda: cache.put("s", "bb22", np.full(2, 7.0))
        )
        writer.start()
        time.sleep(0.05)  # let the writer reach the lock
        release.set()
        gatherer.join(timeout=10)
        writer.join(timeout=10)
        monkeypatch.setattr(cache_module, "open_npz", real_open)
        matrix, missed = gathered[0]
        assert missed == [] and matrix.tolist() == [[1.0, 1.0]]
        cache.flush()
        reread = EmbeddingCache(str(tmp_path))
        assert reread.get("s", "aa11").tolist() == [1.0, 1.0]
        assert reread.get("s", "bb22").tolist() == [7.0, 7.0]

    @given(st.data(), st.sampled_from(sorted(_BOUNDARY_ROWS)), st.booleans(),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_rows_match_per_digest_get_at_block_boundaries(
        self, boundary_dirs, data, rows, as_bytes, in_memory
    ):
        directory, stored = boundary_dirs[rows]
        # Rows on either side of every block edge, plus any stored row.
        edges = [row for row in (0, BLOCK_ROWS - 1, BLOCK_ROWS,
                                 BLOCK_ROWS + 1, 2 * BLOCK_ROWS, rows - 1)
                 if row < rows]
        digests = data.draw(st.lists(st.one_of(
            st.sampled_from([stored[row] for row in edges]),
            st.sampled_from(stored),
            st.sampled_from(["zz000000", "00", stored[1] + "0"]),
        ), max_size=40))
        cache = EmbeddingCache(directory)
        if in_memory:
            cache.get("s", stored[0])  # loads the space's dict
        reference = EmbeddingCache(directory)
        want = [reference.get("s", digest) for digest in digests]
        wanted = np.array(digests, dtype=bytes) if as_bytes else digests
        before = _counters()
        found = cache.get("s", wanted)
        after = _counters()
        # As a per-digest get-then-put loop: a repeated miss hits.
        misses = len({d for d, row in zip(digests, want) if row is None})
        assert (after[0] - before[0], after[1] - before[1]) == (
            len(digests) - misses, misses,
        )
        if all(row is None for row in want):
            assert found is None
            return
        matrix, missed = found
        assert missed == [i for i, row in enumerate(want) if row is None]
        assert matrix.shape == (len(digests), 3)
        assert matrix.dtype == np.float64 and matrix.flags.writeable
        for position, row in enumerate(want):
            expected = np.zeros(3) if row is None else row
            assert matrix[position].tobytes() == expected.tobytes()
        assert ("s" in cache.loaded_spaces) == (in_memory or bool(missed))

    def test_whole_space_in_lake_order(self, boundary_dirs):
        directory, stored = boundary_dirs[2 * BLOCK_ROWS + 1]
        digests = stored[::-1][:BLOCK_ROWS + 3] + stored[:5] + stored[::7]
        reference = EmbeddingCache(directory)
        matrix, missed = EmbeddingCache(directory).get(
            "s", np.array(digests, dtype=bytes)
        )
        assert missed == []
        assert matrix.tobytes() == np.stack(
            [reference.get("s", digest) for digest in digests]
        ).tobytes()

    @pytest.mark.parametrize("damage", [
        "unsorted", "foreign", "flipped_byte", "truncated_member",
    ])
    def test_damaged_file_is_a_miss_with_no_partial_matrix(self, tmp_path,
                                                           damage):
        digests = [f"{index:02x}aa{index:04x}" for index in range(40)]
        vectors = np.arange(40 * 3, dtype=np.float64).reshape(40, 3) + 0.125
        stored, rows = np.array(digests, dtype=bytes), vectors
        if damage == "unsorted":
            stored, rows = stored[::-1], vectors[::-1]
        elif damage == "foreign":  # near-misses of every wanted digest
            stored = np.array([d[:-1] + "z" for d in digests], dtype=bytes)
        path = tmp_path / "embeddings-s.npz"
        if damage == "truncated_member":
            # A vectors member holding fewer rows than its header says.
            payload = io.BytesIO()
            np.save(payload, vectors)
            raw = payload.getvalue()[:-3 * 8]
            with zipfile.ZipFile(path, "w") as archive:
                with archive.open("digests.npy", "w") as member:
                    np.save(member, stored)
                archive.writestr("vectors.npy", raw)
        else:
            np.savez(path, digests=stored, vectors=rows)
        if damage == "flipped_byte":
            data = bytearray(path.read_bytes())
            at = data.index(np.float64(20 * 3 + 0.125).tobytes())
            data[at + 3] ^= 0x10
            path.write_bytes(bytes(data))
        before = _counters()
        cache = EmbeddingCache(str(tmp_path))
        assert cache.get("s", digests) is None
        assert cache.get("s", np.array(digests, dtype=bytes)) is None
        after = _counters()
        assert after[0] == before[0]  # nothing counted as a hit
        assert after[1] - before[1] == 2 * len(digests)

    def test_str_digest_column_is_re_embedded_once(self, lake_bundle, probes,
                                                   tmp_path):
        lake = lake_bundle.lake
        cache_dir = tmp_path / "cache"
        cold = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        # The layout before digests were bytes: a ``str`` column.
        paths = sorted(cache_dir.glob("embeddings-*.npz"))
        for path in paths:
            with np.load(path) as archive:
                digests = archive["digests"].astype(str)
                vectors = archive["vectors"]
            np.savez(path, digests=digests, vectors=vectors)
        loads = obs_metrics.get_registry().counter(LAKE_MODEL_LOADS)
        before = loads.value
        rebuilt = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        assert loads.value - before == len(lake)  # re-embedded once
        for path in paths:
            with np.load(path) as archive:
                assert archive["digests"].dtype.kind == "S"  # rewritten
        before = loads.value
        warm = SearchEngine(lake, probes, cache_dir=str(cache_dir))
        assert loads.value == before
        assert warm.cache.loaded_spaces == []
        for engine in (rebuilt, warm):
            assert repr(engine.search("legal contracts", k=5)) == repr(
                cold.search("legal contracts", k=5)
            )

    def test_warm_build_keeps_no_space_in_memory(self, lake_bundle, probes,
                                                 tmp_path):
        cache_dir = str(tmp_path / "cache")
        cold = SearchEngine(lake_bundle.lake, probes, cache_dir=cache_dir)
        assert cold.cache.loaded_spaces  # the cold build put its embeddings
        warm = SearchEngine(lake_bundle.lake, probes, cache_dir=cache_dir)
        assert warm.cache.loaded_spaces == []
        _weight_query(warm)  # cold weight view: a miss loads the space
        assert warm.cache.loaded_spaces == ["weightstat-s4"]
        rewarm = SearchEngine(lake_bundle.lake, probes, cache_dir=cache_dir)
        _weight_query(rewarm)
        assert rewarm.cache.loaded_spaces == []
        for query in ("legal contracts", "medical notes"):
            assert warm.search(query, k=5) == cold.search(query, k=5)


class TestWarmGatherMemory:
    """A warm build holds the cache's matrix once: its traced peak stays
    within the matrix, two blocks and the digest column.  Before the
    gather streamed, the file's matrix, the gathered copy and the
    normalization's two temporaries peaked near 2.5 matrices."""

    def test_peak_within_matrix_two_blocks_and_digest_column(self, tmp_path):
        from repro.perf.suite import GATHER_ROWS, warm_gather_peak

        assert GATHER_ROWS >= 5000
        peak, bound = warm_gather_peak(str(tmp_path))
        assert peak <= bound, (peak, bound)
