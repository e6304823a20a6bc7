"""Warm snapshot opens: no record is built up front, and a damaged cache
file is rebuilt instead of failing the open."""

import os
import shutil

import numpy as np
import pytest

from repro.lake import ModelRecord
from repro.serve import LakeSnapshot

from tests.serve.conftest import ServerHarness

_QUERY = "legal court statute"


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _hits(snapshot):
    return [
        (hit.model_id, hit.score)
        for method in ("keyword", "behavioral", "hybrid")
        for hit in snapshot.engine.search(_QUERY, k=10, method=method)
    ]


@pytest.fixture()
def warm_dir(serve_lake_dir, tmp_path):
    """A private copy of the served lake with every cache file written."""
    directory = str(tmp_path / "lake")
    shutil.copytree(serve_lake_dir, directory)
    LakeSnapshot.open(directory).close()
    return directory


def test_warm_open_builds_no_records_and_model_request_builds_one(
    warm_dir, monkeypatch
):
    built = []
    init = ModelRecord.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("model_id", args[0] if args else None))
        init(self, *args, **kwargs)

    monkeypatch.setattr(ModelRecord, "__init__", counting_init)
    harness = ServerHarness(warm_dir).start()
    try:
        assert built == []
        status, _ = harness.search(_QUERY, k=5)
        assert status == 200 and built == []
        model_id = harness.snapshot.lake.model_ids()[3]
        for _ in range(2):
            status, payload = harness.get(f"/model/{model_id}")
            assert status == 200 and payload["model_id"] == model_id
        assert built == [model_id]
    finally:
        harness.stop()


def _corrupt_zip(path):
    with open(path, "rb") as handle:
        raw = bytearray(handle.read())
    raw[len(raw) // 2:] = b"\0" * (len(raw) - len(raw) // 2)
    with open(path, "wb") as handle:
        handle.write(raw)


def _empty(path):
    open(path, "wb").close()


def _bare_npy(path):
    with open(path, "wb") as handle:
        np.save(handle, np.arange(4.0))


def _truncated(path):
    with open(path, "rb") as handle:
        raw = handle.read()
    with open(path, "wb") as handle:
        handle.write(raw[: len(raw) - 100])


@pytest.mark.parametrize("damage", [_corrupt_zip, _empty, _bare_npy, _truncated],
                         ids=["corrupt_zip", "empty", "bare_npy", "truncated"])
@pytest.mark.parametrize("prefix", ["embeddings-", "bm25", "records"],
                         ids=["embeddings", "bm25", "records"])
def test_damaged_cache_file_is_rebuilt(warm_dir, prefix, damage):
    cache = os.path.join(warm_dir, "cache")
    with LakeSnapshot.open(warm_dir) as snapshot:
        expected = _hits(snapshot)
    damaged = sorted(name for name in os.listdir(cache) if name.startswith(prefix))
    assert damaged
    for name in damaged:
        damage(os.path.join(cache, name))
    fds = _open_fds()
    with LakeSnapshot.open(warm_dir) as snapshot:
        assert _hits(snapshot) == expected
    assert _open_fds() == fds  # no handle left behind by a failed read
    rewritten = {name: os.stat(os.path.join(cache, name)) for name in damaged}
    with LakeSnapshot.open(warm_dir) as snapshot:
        assert _hits(snapshot) == expected
    for name, stat in rewritten.items():  # read this time, not rebuilt
        assert os.stat(os.path.join(cache, name)).st_mtime_ns == stat.st_mtime_ns
