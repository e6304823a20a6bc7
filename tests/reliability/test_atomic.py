"""Atomic-write primitives: a crash at any stage never tears the file."""

import json
import os

import numpy as np
import pytest

from repro.reliability import (
    FaultPlan,
    InjectedFault,
    inject_faults,
)
from repro.reliability import atomic
from repro.reliability.atomic import (
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    open_npz,
)
from repro.reliability.faults import WRITE_BEGIN, WRITE_DATA, WRITE_RENAME

OLD = b"previous committed contents"
NEW = b"replacement contents, longer than the old ones"


def tmp_litter(directory):
    return [name for name in os.listdir(directory) if name.endswith(".tmp")]


@pytest.fixture()
def target(tmp_path):
    path = tmp_path / "artifact.bin"
    path.write_bytes(OLD)
    return str(path)


class TestAtomicWriteBytes:
    def test_writes_fresh_file(self, tmp_path):
        path = str(tmp_path / "fresh.bin")
        atomic_write_bytes(path, NEW)
        assert open(path, "rb").read() == NEW
        assert tmp_litter(str(tmp_path)) == []

    def test_replaces_existing_file(self, target, tmp_path):
        atomic_write_bytes(target, NEW)
        assert open(target, "rb").read() == NEW
        assert tmp_litter(str(tmp_path)) == []

    def test_crash_before_tmp_creation_changes_nothing(self, target, tmp_path):
        plan = FaultPlan().fail_write("artifact.bin", stage=WRITE_BEGIN)
        with inject_faults(plan), pytest.raises(InjectedFault):
            atomic_write_bytes(target, NEW)
        assert open(target, "rb").read() == OLD
        assert tmp_litter(str(tmp_path)) == []

    def test_crash_mid_write_keeps_old_and_leaves_torn_tmp(self, target, tmp_path):
        plan = FaultPlan().fail_write(
            "artifact.bin", stage=WRITE_DATA, truncate_at=5
        )
        with inject_faults(plan), pytest.raises(InjectedFault):
            atomic_write_bytes(target, NEW)
        assert open(target, "rb").read() == OLD
        litter = tmp_litter(str(tmp_path))
        assert len(litter) == 1  # the debris a real SIGKILL would leave
        torn = (tmp_path / litter[0]).read_bytes()
        assert torn == NEW[:5]

    def test_crash_before_rename_keeps_old_with_complete_tmp(self, target, tmp_path):
        plan = FaultPlan().fail_write("artifact.bin", stage=WRITE_RENAME)
        with inject_faults(plan), pytest.raises(InjectedFault):
            atomic_write_bytes(target, NEW)
        assert open(target, "rb").read() == OLD
        litter = tmp_litter(str(tmp_path))
        assert len(litter) == 1
        assert (tmp_path / litter[0]).read_bytes() == NEW

    def test_ordinary_failure_cleans_up_its_tmp(self, target, tmp_path, monkeypatch):
        def explode(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError, match="disk on fire"):
            atomic_write_bytes(target, NEW)
        monkeypatch.undo()
        assert open(target, "rb").read() == OLD
        assert tmp_litter(str(tmp_path)) == []

    def test_pattern_scopes_the_fault_to_matching_files(self, target, tmp_path):
        other = str(tmp_path / "other.bin")
        plan = FaultPlan().fail_write("artifact.bin", stage=WRITE_RENAME)
        with inject_faults(plan):
            atomic_write_bytes(other, NEW)  # does not match: succeeds
            with pytest.raises(InjectedFault):
                atomic_write_bytes(target, NEW)
        assert open(other, "rb").read() == NEW


class TestJsonAndNpz:
    def test_json_round_trip(self, tmp_path):
        path = str(tmp_path / "payload.json")
        payload = {"b": [1, 2, 3], "a": {"nested": True}}
        atomic_write_json(path, payload, sort_keys=True)
        with open(path) as handle:
            assert json.load(handle) == payload

    def test_npz_round_trip(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        arrays = {
            "tokens": np.arange(12).reshape(3, 4),
            "labels": np.array([0, 1, 2]),
        }
        atomic_write_npz(path, arrays)
        with np.load(path) as restored:
            assert np.array_equal(restored["tokens"], arrays["tokens"])
            assert np.array_equal(restored["labels"], arrays["labels"])

    def test_npz_crash_leaves_no_partial_archive(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        plan = FaultPlan().fail_write("arrays.npz", stage=WRITE_DATA, truncate_at=3)
        with inject_faults(plan), pytest.raises(InjectedFault):
            atomic_write_npz(path, {"tokens": np.arange(4)})
        assert not os.path.exists(path)


class _Events:
    """Stands in for the module's structured logger; keeps warnings."""

    def __init__(self):
        self.warnings = []

    def warning(self, event, **fields):
        self.warnings.append(event)


class TestOpenNpz:
    """Members read whole or in row blocks; bad bytes are a miss, a
    caller's own error is not."""

    @pytest.fixture()
    def archive_path(self, tmp_path):
        path = str(tmp_path / "arrays.npz")
        atomic_write_npz(path, {
            "names": np.array([b"aa", b"bb"]),
            "rows": np.arange(30.0).reshape(10, 3),
        })
        return path

    @pytest.mark.parametrize("rows", [1, 3, 10, 11])
    def test_row_blocks_cover_the_member_in_order(self, archive_path, rows):
        with open_npz(archive_path, ["names", "rows"]) as archive:
            whole = archive.read("rows")
            shape, blocks = archive.row_blocks("rows", rows)
            got = list(blocks)
        assert shape == (10, 3)
        assert [len(block) for block in got[:-1]] == [rows] * (len(got) - 1)
        assert np.concatenate(got).tobytes() == whole.tobytes()

    def test_other_members_are_a_quiet_none(self, archive_path, monkeypatch):
        events = _Events()
        monkeypatch.setattr(atomic, "_log", events)
        with open_npz(archive_path, ["rows"]) as archive:
            assert archive is None
        with open_npz(archive_path + ".missing", ["rows"]) as archive:
            assert archive is None
        assert events.warnings == []

    def test_damaged_member_abandons_the_block_with_a_warning(
        self, archive_path, monkeypatch
    ):
        data = bytearray(open(archive_path, "rb").read())
        at = data.index(np.float64(20.0).tobytes())
        data[at] ^= 0x01
        open(archive_path, "wb").write(bytes(data))
        events = _Events()
        monkeypatch.setattr(atomic, "_log", events)
        reached = []
        with open_npz(archive_path, ["names", "rows"]) as archive:
            assert archive.read("names").tolist() == [b"aa", b"bb"]
            _, blocks = archive.row_blocks("rows", 4)
            for block in blocks:
                reached.append(len(block))
            reached.append("after")  # not run: the CRC fails at the end
        assert "after" not in reached
        assert events.warnings == ["npz.unreadable"]

    def test_a_callers_own_error_propagates(self, archive_path):
        with pytest.raises(ValueError, match="caller"):
            with open_npz(archive_path, ["names", "rows"]) as archive:
                archive.read("rows")
                raise ValueError("caller bug")
        with pytest.raises(ValueError, match="broadcast"):
            with open_npz(archive_path, ["names", "rows"]) as archive:
                np.zeros((2, 2))[:] = archive.read("rows")
