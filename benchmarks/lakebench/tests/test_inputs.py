"""Lakes and traffic are functions of their seeds."""

import itertools
import json
import os

from repro.lake import save_lake

from benchmarks.lakebench import lake
from benchmarks.lakebench.lake import GENERIC_WORDS, build_lake
from benchmarks.lakebench.traffic import WORKLOADS, distinct_queries


def _digest(directory):
    with open(os.path.join(directory, "manifest.json")) as handle:
        return json.load(handle)["integrity"]["manifest_digest"]


def test_same_seed_gives_the_same_manifest_digest(tmp_path):
    digests = []
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        directory = str(tmp_path / name)
        save_lake(build_lake(40, seed=seed), directory, sharded=True)
        digests.append(_digest(directory))
    assert digests[0] == digests[1] != digests[2]


def test_lakes_are_rebuilt_for_other_code(tmp_path, monkeypatch):
    monkeypatch.setattr(lake, "code_digest", lambda: "parent")
    first = lake.prepare_lake(str(tmp_path), 20)
    assert lake.prepare_lake(str(tmp_path), 20) == first
    monkeypatch.setattr(lake, "code_digest", lambda: "change")
    second = lake.prepare_lake(str(tmp_path), 20)
    assert second.directory != first.directory
    assert not os.path.exists(first.directory)
    assert second.domains == first.domains


def test_cold_open_leaves_the_lake_cache_alone(small_lake, tmp_path):
    cache = os.path.join(small_lake.directory, "cache")

    def files():
        return {
            os.path.join(d, f): os.stat(os.path.join(d, f)).st_mtime_ns
            for d, _, names in os.walk(cache) for f in names
        }

    before = files()
    assert lake.time_cold_open(small_lake.directory, str(tmp_path / "cold")) > 0
    assert files() == before
    assert not os.path.exists(tmp_path / "cold")


def test_queries_are_distinct_and_seeded():
    first = list(itertools.islice(distinct_queries(7), 2000))
    assert first == list(itertools.islice(distinct_queries(7), 2000))
    assert len({q.text for q in first}) == len(first)
    assert [q.text for q in itertools.islice(distinct_queries(8), 50)] != [
        q.text for q in first[:50]
    ]
    for query in first:
        words = query.text.split()
        assert 1 <= len(query.domains) <= 2
        assert sum(word in GENERIC_WORDS for word in words) == 2


def test_request_streams_are_seeded():
    ids = ["m-a", "m-b", "m-c"]
    for workload in WORKLOADS:
        first = list(itertools.islice(workload.stream(1, ids), 300))
        assert first == list(itertools.islice(workload.stream(1, ids), 300))
        assert first != list(itertools.islice(workload.stream(2, ids), 300))
