"""Tests that a sharded on-disk layout leaves search results unchanged."""

import pytest

from repro.core.search import SearchEngine
from repro.lake import load_lake, save_lake


class TestShardedLakeEngine:
    """Sharding is a storage concern: a loaded sharded lake is searched
    through the same single exact index as an in-memory one, so ids and
    scores agree bit for bit."""

    @pytest.fixture(scope="class")
    def sharded_lake(self, lake_bundle, tmp_path_factory):
        directory = str(tmp_path_factory.mktemp("sharded") / "lake")
        save_lake(lake_bundle.lake, directory, sharded=True)
        return load_lake(directory)

    def test_weight_view_parity_with_flat_engine(self, lake_bundle, probes, sharded_lake):
        flat_engine = SearchEngine(lake_bundle.lake, probes)
        shard_engine = SearchEngine(sharded_lake, probes)
        anchor = lake_bundle.truth.foundations[0]
        flat_hits = flat_engine.related_models(anchor, k=4, view="weight")
        shard_hits = shard_engine.related_models(anchor, k=4, view="weight")
        assert [h.model_id for h in shard_hits] == [h.model_id for h in flat_hits]
        assert [h.score for h in shard_hits] == [h.score for h in flat_hits]

    def test_behavioral_view_parity_with_flat_engine(
        self, lake_bundle, probes, sharded_lake
    ):
        flat_engine = SearchEngine(lake_bundle.lake, probes)
        shard_engine = SearchEngine(sharded_lake, probes)
        anchor = lake_bundle.truth.foundations[0]
        flat_related = flat_engine.related_models(anchor, k=4)
        shard_related = shard_engine.related_models(anchor, k=4)
        assert [tuple(h) for h in shard_related] == [tuple(h) for h in flat_related]
        query = "summarize legal court documents"
        flat_hits = flat_engine.search(query, k=5, method="behavioral")
        shard_hits = shard_engine.search(query, k=5, method="behavioral")
        assert [tuple(h) for h in shard_hits] == [tuple(h) for h in flat_hits]
