"""The runner reports exactly what BENCHMARK.json declares, for every workload."""

import dataclasses
import json
import math
import os

import pytest

from benchmarks.lakebench import runner
from benchmarks.lakebench.traffic import WORKLOADS

from conftest import ROOT, SMALL_LAKE

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    DECLARED = json.load(_handle)

NAMES = [w.name for w in WORKLOADS]


def _run(work_dir, trace):
    # Every workload on the small lake, 1 s segments and a short warm-up
    # keep the test quick.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner, "WARMUP_S", 0.5)
        patch.setattr(runner, "BY_NAME", {
            w.name: dataclasses.replace(w, models=SMALL_LAKE) for w in WORKLOADS
        })
        return runner.run(NAMES, seed=3, seconds=runner.SEGMENTS * 1.0,
                          trace=trace, work_dir=work_dir)


@pytest.fixture(scope="module")
def untraced(work_dir, small_lake):
    return _run(work_dir, trace=False)


@pytest.fixture(scope="module")
def traced(work_dir, small_lake):
    return _run(work_dir, trace=True)


def _values(result):
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def test_declaration_matches_the_runner():
    assert [w["name"] for w in DECLARED["workloads"]] == NAMES
    assert [w["why"] for w in DECLARED["workloads"]] == [w.why for w in WORKLOADS]
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == runner.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == runner.PER_LAYER
    assert DECLARED["paths"] == ["benchmarks/lakebench"]


@pytest.mark.parametrize("kind", ["end_to_end", "per_layer"])
def test_every_declared_metric_is_reported_for_every_workload(kind, request):
    result, problems = request.getfixturevalue(
        "traced" if kind == "per_layer" else "untraced"
    )
    assert problems == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {
        f"{workload}.{metric['name']}": metric["unit"]
        for workload in NAMES for metric in DECLARED[kind]
    }
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(math.isfinite(v) for v in _values(result).values())


def test_outputs_match_the_in_process_engine(untraced):
    values = _values(untraced[0])
    for workload in NAMES:
        assert values[f"{workload}.parity"] == 1.0
        assert 0.0 < values[f"{workload}.precision_at_10"] <= 1.0


def test_layer_shares_sum_to_one_and_follow_the_workloads(traced):
    values = _values(traced[0])
    for workload in NAMES:
        shares = [v for n, v in values.items()
                  if n.startswith(f"{workload}.") and n.endswith(".share")]
        assert len(shares) == 6
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert values["behavioral_10k.core.search.keyword.share"] == 0.0
    assert values["behavioral_10k.core.search.keyword.postings_per_query"] == 0.0
    assert values["hybrid_10k.core.search.keyword.postings_per_query"] > 0.0
    assert values["hybrid_10k.repeat_share"] == 0.0
    assert values["hot_10k.repeat_share"] > 0.5
    assert values["mixed_1k.index.cache.hit_ratio"] == 1.0
