"""Shared fixtures: import paths and one small prepared lake."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)
))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

#: Tests run every workload against this lake size instead of 1k/10k.
SMALL_LAKE = 200


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("lakebench"))


@pytest.fixture(scope="session")
def small_lake(work_dir):
    from benchmarks.lakebench.lake import prepare_lake

    return prepare_lake(work_dir, SMALL_LAKE)
