"""Shared benchmark fixtures and the experiment-table recorder.

Each benchmark module computes its experiment's quality table once (in a
session fixture), records it under ``benchmarks/results/``, and then
times the operation under study with pytest-benchmark.  The tables are
the "rows/series the paper reports"; the timings are the systems story.

Every benchmark additionally snapshots the process-global metrics
registry (:mod:`repro.obs.metrics`) around its run: the wall time and
the counter deltas it caused are accumulated into
``results/observability.txt``, so each experiment row carries its
operational cost alongside its quality numbers.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterable, List

import pytest

from repro.data.probes import make_text_probes
from repro.lake import LakeSpec, generate_lake
from repro.obs import get_registry

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Rows accumulated by the per-test registry snapshots; written out at
#: session end as the "observability" table.
_OBS_ROWS: List[str] = []


def _counter_delta(before: Dict[str, int], after: Dict[str, int]) -> str:
    deltas = {
        name: after[name] - before.get(name, 0)
        for name in after
        if after[name] != before.get(name, 0)
    }
    if not deltas:
        return "-"
    return " ".join(f"{name}=+{delta}" for name, delta in sorted(deltas.items()))


@pytest.fixture(autouse=True)
def obs_snapshot(request):
    """Wrap every benchmark in a wall-clock + metrics-registry snapshot."""
    registry = get_registry()
    before = registry.snapshot()["counters"]
    start = time.perf_counter()
    yield
    wall = time.perf_counter() - start
    after = registry.snapshot()["counters"]
    _OBS_ROWS.append(
        f"{request.node.name:<52} {wall:9.3f}  {_counter_delta(before, after)}"
    )


def pytest_sessionfinish(session, exitstatus):
    if _OBS_ROWS:
        header = f"{'benchmark':<52} {'wall_s':>9}  counter deltas"
        record_table("observability", [header, "-" * len(header)] + _OBS_ROWS)


def record_table(name: str, lines: Iterable[str]) -> List[str]:
    """Persist an experiment table and echo it to stdout."""
    lines = list(lines)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"\n===== {name} =====")
    for line in lines:
        print(line)
    return lines


@pytest.fixture(scope="session")
def probes():
    return make_text_probes(probes_per_domain=4, seq_len=24)


@pytest.fixture(scope="session")
def search_lake():
    """E1 lake: opaque names, one clean specialist per domain."""
    spec = LakeSpec(
        num_foundations=2, chains_per_foundation=4, max_chain_depth=1,
        docs_per_domain=20, foundation_epochs=8, specialize_epochs=6,
        transform_mix={"finetune": 0.6, "lora": 0.4},
        num_merges=0, num_stitches=0, seed=1, opaque_names=True,
    )
    return generate_lake(spec)


@pytest.fixture(scope="session")
def mixed_lake():
    """E2/E6/E7/E8 lake: every transform kind, deeper chains."""
    spec = LakeSpec(
        num_foundations=3, chains_per_foundation=4, max_chain_depth=2,
        docs_per_domain=18, foundation_epochs=8, specialize_epochs=6,
        num_merges=1, num_stitches=1, seed=8,
    )
    return generate_lake(spec)
