"""Logical-clock monotonicity across save/load round trips.

``created_at`` values are minted from the lake clock, so a loaded lake
whose clock trails its newest record would mint duplicate timestamps —
silently breaking citation ordering.  ``load_lake`` now refuses such
manifests; these tests cover both the honest round trip and tampered
manifests.
"""

import json
import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LakeError
from repro.lake import ModelLake, load_lake, persist, save_lake
from repro.nn import TextClassifier


def _tiny_model(seed):
    return TextClassifier(40, num_classes=3, dim=4, hidden=(5,), seed=seed)


def _build_lake(num_models, clock_bumps):
    lake = ModelLake()
    for i in range(num_models):
        lake.add_model(_tiny_model(seed=i), name=f"model-{i}")
    first = lake.model_ids()[0]
    for i in range(clock_bumps):
        # Non-registration mutations advance the clock past created_at.
        lake.record_metric(first, f"metric_{i}", float(i))
    return lake


class TestClockRoundTrip:
    def test_clock_survives_round_trip(self, tmp_path):
        lake = _build_lake(num_models=3, clock_bumps=2)
        save_lake(lake, str(tmp_path))
        restored = load_lake(str(tmp_path))
        assert restored.clock == lake.clock
        assert [r.created_at for r in restored] == [
            r.created_at for r in lake
        ]

    def test_loaded_lake_mints_fresh_unique_timestamps(self, tmp_path):
        lake = _build_lake(num_models=2, clock_bumps=0)
        save_lake(lake, str(tmp_path))
        restored = load_lake(str(tmp_path))
        record = restored.add_model(_tiny_model(seed=9), name="post-load")
        stamps = [r.created_at for r in restored]
        assert len(set(stamps)) == len(stamps)
        assert record.created_at == max(stamps)

    def test_clock_behind_newest_record_refused(self, tmp_path):
        lake = _build_lake(num_models=3, clock_bumps=0)
        save_lake(lake, str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        manifest["clock"] = 0  # behind every record
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(LakeError, match="behind the newest record"):
            load_lake(str(tmp_path))

    def test_duplicate_created_at_refused(self, tmp_path):
        lake = _build_lake(num_models=2, clock_bumps=0)
        save_lake(lake, str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        stamps = [entry["created_at"] for entry in manifest["records"]]
        manifest["records"][1]["created_at"] = stamps[0]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(LakeError, match="clock-monotonic"):
            load_lake(str(tmp_path))

    def test_duplicate_report_lists_each_repeated_value_once(self, tmp_path):
        lake = _build_lake(num_models=5, clock_bumps=0)
        save_lake(lake, str(tmp_path))
        manifest_path = os.path.join(str(tmp_path), "manifest.json")
        with open(manifest_path) as handle:
            manifest = json.load(handle)
        stamps = [entry["created_at"] for entry in manifest["records"]]
        # Two duplicated values: stamps[0] twice and stamps[2] three times.
        manifest["records"][1]["created_at"] = stamps[0]
        manifest["records"][3]["created_at"] = stamps[2]
        manifest["records"][4]["created_at"] = stamps[2]
        with open(manifest_path, "w") as handle:
            json.dump(manifest, handle)
        with pytest.raises(LakeError) as caught:
            load_lake(str(tmp_path))
        expected = sorted([stamps[0], stamps[2]])
        assert f"duplicate created_at value(s) {expected} across" in str(caught.value)


@given(
    num_models=st.integers(min_value=1, max_value=4),
    clock_bumps=st.integers(min_value=0, max_value=5),
    reloads=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=10, deadline=None)
def test_clock_monotonic_through_any_round_trip(num_models, clock_bumps, reloads):
    """Property: however a lake is built and however often it is
    re-saved, the restored clock dominates every ``created_at`` and
    timestamps stay unique."""
    directory = tempfile.mkdtemp(prefix="clock-lake-")
    try:
        lake = _build_lake(num_models, clock_bumps)
        for _ in range(reloads):
            save_lake(lake, directory)
            lake = load_lake(directory)
            stamps = [record.created_at for record in lake]
            assert lake.clock >= max(stamps)
            assert len(set(stamps)) == len(stamps)
        # And the lake is still writable without timestamp collisions.
        lake.add_model(_tiny_model(seed=99), name="afterwards")
        stamps = [record.created_at for record in lake]
        assert len(set(stamps)) == len(stamps)
    finally:
        shutil.rmtree(directory, ignore_errors=True)


class TestTableClockColumn:
    """A record table's ``created`` column is checked in place, with the
    messages a list of the same timestamps gets."""

    def _lake(self, clock):
        lake = ModelLake()
        lake._clock = clock
        return lake

    @pytest.mark.parametrize("created, clock, message", [
        ([1, 1, 2], 5, r"duplicate created_at value\(s\) \[1\] across"),
        ([1, 2, 2, 3, 3], 5, r"duplicate created_at value\(s\) \[2, 3\] across"),
        ([1, 2, 6], 5, "clock 5 is behind the newest record .created_at=6."),
        ([3, 1, 2], 5, "record table rows are not in created_at order"),
    ])
    def test_a_bad_column_is_refused_as_a_list_would_be(self, created, clock,
                                                        message):
        with pytest.raises(LakeError, match=message):
            persist._check_clock(self._lake(clock), np.array(created, dtype=np.int64))

    @pytest.mark.parametrize("created", [[], [4], [1, 2, 5]])
    def test_an_increasing_column_within_the_clock_passes(self, created):
        persist._check_clock(self._lake(5), np.array(created, dtype=np.int64))
        persist._check_clock(self._lake(5), created)
