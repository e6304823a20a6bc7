"""Tests for weight serialization round trips."""

import os

import numpy as np
import pytest

from repro.errors import LakeError
from repro.utils.serialization import (
    RWB_ALIGN,
    RWB_MAGIC,
    arrays_to_bytes,
    bytes_to_arrays,
    dumps_json,
    open_arrays_memmap,
    pack_arrays,
    to_jsonable,
    unpack_arrays,
)


class TestArrayRoundTrip:
    def test_round_trip(self):
        arrays = {
            "layer.weight": np.random.default_rng(0).normal(size=(4, 5)),
            "layer.bias": np.zeros(5),
        }
        restored = bytes_to_arrays(arrays_to_bytes(arrays))
        assert set(restored) == set(arrays)
        for name in arrays:
            assert np.array_equal(restored[name], arrays[name])

    def test_slash_names_survive(self):
        arrays = {"block/0/weight": np.ones(3)}
        restored = bytes_to_arrays(arrays_to_bytes(arrays))
        assert "block/0/weight" in restored

    def test_deterministic_bytes(self):
        arrays = {"w": np.arange(6.0)}
        assert arrays_to_bytes(arrays) == arrays_to_bytes(arrays)

    def test_dtypes_preserved(self):
        arrays = {"ints": np.arange(4, dtype=np.int64), "floats": np.ones(4)}
        restored = bytes_to_arrays(arrays_to_bytes(arrays))
        assert restored["ints"].dtype == np.int64
        assert restored["floats"].dtype == np.float64


class TestRawWeightBundle:
    def _arrays(self):
        rng = np.random.default_rng(4)
        return {
            "layer.weight": rng.normal(size=(7, 5)),
            "layer.bias": rng.normal(size=(5,)),
            "steps": np.arange(3, dtype=np.int64),
            "scalar": np.float64(2.5).reshape(()),
        }

    def test_round_trip(self):
        arrays = self._arrays()
        restored = unpack_arrays(pack_arrays(arrays))
        assert set(restored) == set(arrays)
        for name in arrays:
            assert np.array_equal(restored[name], np.asarray(arrays[name]))
            assert restored[name].dtype == np.asarray(arrays[name]).dtype

    def test_deterministic_and_order_independent(self):
        arrays = self._arrays()
        reordered = dict(reversed(list(arrays.items())))
        assert pack_arrays(arrays) == pack_arrays(reordered)

    def test_payloads_are_aligned(self):
        from repro.utils.serialization import _parse_rwb_header

        blob = pack_arrays(self._arrays())
        header, data_start = _parse_rwb_header(blob, "<test>")
        assert data_start % RWB_ALIGN == 0
        assert all(meta["offset"] % RWB_ALIGN == 0 for meta in header["arrays"])

    def test_memmap_matches_unpack(self, tmp_path):
        arrays = self._arrays()
        path = tmp_path / "bundle.rwb"
        path.write_bytes(pack_arrays(arrays))
        mapped = open_arrays_memmap(str(path))
        assert set(mapped) == set(arrays)
        for name in arrays:
            assert np.array_equal(mapped[name], np.asarray(arrays[name]))

    def test_memmap_views_are_read_only(self, tmp_path):
        path = tmp_path / "bundle.rwb"
        path.write_bytes(pack_arrays({"w": np.ones(4)}))
        mapped = open_arrays_memmap(str(path))
        with pytest.raises((ValueError, TypeError)):
            mapped["w"][0] = 5.0

    def test_memmap_holds_zero_size_arrays(self, tmp_path):
        arrays = {
            "a_empty": np.zeros((0, 3), dtype=np.float32),
            "b": np.arange(5, dtype=np.int64),
            "z_empty": np.zeros(0),  # last: its offset is the file's end
        }
        path = tmp_path / "bundle.rwb"
        path.write_bytes(pack_arrays(arrays))
        mapped = open_arrays_memmap(str(path))
        for name, array in arrays.items():
            assert mapped[name].shape == array.shape
            assert mapped[name].dtype == array.dtype
            assert np.array_equal(mapped[name], array)
            assert not mapped[name].flags.writeable

    def test_memmap_is_zero_copy_and_scoped(self, tmp_path):
        import mmap

        path = tmp_path / "bundle.rwb"
        path.write_bytes(pack_arrays({"u": np.ones(3), "v": np.zeros(2)}))
        fds = len(os.listdir("/proc/self/fd"))
        mapped = open_arrays_memmap(str(path))

        def root(array):
            while isinstance(array, (np.ndarray, memoryview)):
                array = (array.base if isinstance(array, np.ndarray)
                         else array.obj)
            return array

        roots = {id(root(array)) for array in mapped.values()}
        assert len(roots) == 1
        assert isinstance(root(mapped["u"]), mmap.mmap)
        del mapped
        assert len(os.listdir("/proc/self/fd")) <= fds

    def test_truncated_payload_raises(self, tmp_path):
        blob = pack_arrays({"w": np.ones(64)})
        path = tmp_path / "bundle.rwb"
        path.write_bytes(blob[:-8])
        with pytest.raises(LakeError):
            open_arrays_memmap(str(path))

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "bundle.rwb"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(LakeError):
            open_arrays_memmap(str(path))
        with pytest.raises(LakeError):
            unpack_arrays(b"NOPE" + b"\x00" * 32)

    def test_truncated_header_raises(self, tmp_path):
        blob = pack_arrays({"w": np.ones(4)})
        assert blob.startswith(RWB_MAGIC)
        path = tmp_path / "bundle.rwb"
        path.write_bytes(blob[:10])
        with pytest.raises(LakeError):
            open_arrays_memmap(str(path))


class TestJsonable:
    def test_numpy_scalars(self):
        out = to_jsonable({"a": np.float64(1.5), "b": np.int32(2), "c": np.bool_(True)})
        assert out == {"a": 1.5, "b": 2, "c": True}

    def test_arrays_become_lists(self):
        assert to_jsonable(np.array([1, 2])) == [1, 2]

    def test_dumps_sorted(self):
        assert dumps_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
