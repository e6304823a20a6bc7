"""The registered perf suite: one harness, and every bench guards its claim.

``repro bench`` is the only writer of ``benchmarks/results/trajectory/``,
so every trajectory file must belong to a registered bench.  Each bench
returns numbers and raises when the guarantee its fast path keeps
breaks; these tests break each guarantee on a tiny input and check that
the bench raises.
"""

import json
import os
from types import SimpleNamespace

import pytest

import repro.lake
from repro.perf import registered_benches, suite

_TRAJECTORY = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "benchmarks", "results", "trajectory",
)


def test_every_trajectory_belongs_to_a_registered_bench():
    names = {spec.name for spec in registered_benches()}
    stems = {
        name[: -len(".json")]
        for name in os.listdir(_TRAJECTORY) if name.endswith(".json")
    }
    assert stems, "no committed trajectory"
    assert stems - names == set()


def test_registered_benches():
    assert [spec.name for spec in registered_benches()] == [
        "generate", "hnsw", "lint.dataflow", "search", "shard", "shard.rss",
    ]


# -- generate: workers=2 must build the workers=1 lake -------------------
def _fake_generate(differ: str):
    def generate_lake(spec):
        parallel = spec.workers == 2
        child = "m1-par" if parallel and differ == "ids" else "m1"
        digest = "d-par" if parallel and differ == "digests" else "d"
        kind = "lora" if parallel and differ == "edges" else "finetune"
        return SimpleNamespace(
            lake=[SimpleNamespace(model_id=mid, weights_digest=digest)
                  for mid in ("m0", child)],
            truth=SimpleNamespace(
                edges=[(["m0"], child, SimpleNamespace(kind=kind))]
            ),
        )

    return generate_lake


def test_generate_reports_both_runs(monkeypatch):
    monkeypatch.setattr(repro.lake, "generate_lake", _fake_generate(""))
    metrics = suite.bench_generate("smoke")
    assert metrics["models"] == 2.0
    assert {"generate_seconds", "parallel_seconds", "speedup"} <= set(metrics)


@pytest.mark.parametrize("differ", ["ids", "digests", "edges"])
def test_generate_raises_when_parallel_lake_differs(monkeypatch, differ):
    monkeypatch.setattr(repro.lake, "generate_lake", _fake_generate(differ))
    with pytest.raises(AssertionError, match="workers=2 differs"):
        suite.bench_generate("smoke")


# -- shard: flat/sharded digest parity and a clean fsck ------------------
@pytest.fixture()
def tiny_bundle(monkeypatch):
    bundle = SimpleNamespace(lake=suite.build_synthetic_lake(3))
    monkeypatch.setattr(suite, "_build_lake", lambda mode: bundle)
    return bundle


def test_shard_times_fsck_at_one_and_two_workers(tiny_bundle):
    metrics = suite.bench_shard("smoke")
    assert metrics["models"] == 3.0
    assert {"fsck_seconds", "fsck_parallel_seconds"} <= set(metrics)


def test_shard_raises_when_layouts_disagree(tiny_bundle, monkeypatch):
    save_lake = repro.lake.save_lake

    def drifting_save(lake, directory, sharded=None):
        save_lake(lake, directory, sharded=sharded)
        if sharded:
            path = os.path.join(directory, "manifest.json")
            with open(path) as fh:
                manifest = json.load(fh)
            manifest["integrity"]["manifest_digest"] = "0" * 64
            with open(path, "w") as fh:
                json.dump(manifest, fh)

    monkeypatch.setattr(repro.lake, "save_lake", drifting_save)
    with pytest.raises(AssertionError, match="sharded manifest digest"):
        suite.bench_shard("smoke")


@pytest.mark.parametrize("dirty_workers", [1, 2])
def test_shard_raises_unless_fsck_is_clean(tiny_bundle, monkeypatch, dirty_workers):
    import repro.reliability.fsck as fsck

    fsck_lake = fsck.fsck_lake

    def flaky_fsck(directory, workers=1, **kwargs):
        if workers == dirty_workers:
            return SimpleNamespace(
                clean=False, findings=[SimpleNamespace(kind="corrupt")]
            )
        return fsck_lake(directory, workers=workers, **kwargs)

    monkeypatch.setattr(fsck, "fsck_lake", flaky_fsck)
    with pytest.raises(AssertionError, match=f"workers={dirty_workers}"):
        suite.bench_shard("smoke")


# -- shard.rss: mmap ordering (smoke) and the three bounds (full) --------
_HEALTHY = {
    "mmap": {2: 110_000, 3: 120_000},
    "resident": {2: 120_000, 3: 300_000},
}


@pytest.fixture()
def canned_rss(monkeypatch):
    """Two tiny lakes, and child probes that report canned peaks (KB)."""
    for mode in ("smoke", "full"):
        monkeypatch.setitem(suite._RSS_SIZES, mode, (2, 3))
    peaks = {read: dict(by_size) for read, by_size in _HEALTHY.items()}

    def measure(read, directory):
        if read == "baseline":
            return 100_000
        return peaks[read][int(os.path.basename(directory).split("-")[1])]

    monkeypatch.setattr(suite, "_measure_rss", measure)
    return peaks


@pytest.mark.parametrize("mode", ["smoke", "full"])
def test_shard_rss_passes_on_flat_mmap_peaks(canned_rss, mode):
    metrics = suite.bench_shard_rss(mode)
    assert metrics["mmap_peak_ratio"] == 1.09
    assert metrics["resident_growth"] == 10.0
    assert metrics["resident_vs_mmap"] == 10.0


@pytest.mark.parametrize("mode, peaks, message", [
    ("smoke", {"mmap": {3: 200_000}, "resident": {3: 150_000}},
     "exceeded the resident working set"),
    ("full", {"mmap": {3: 170_000}}, "mmap peak RSS grew"),
    ("full", {"resident": {2: 150_000}}, "resident RSS delta grew only"),
    ("full", {"mmap": {3: 150_000}, "resident": {2: 105_000, 3: 250_000}},
     "cost only"),
])
def test_shard_rss_raises_when_a_bound_breaks(canned_rss, mode, peaks, message):
    for read, by_size in peaks.items():
        canned_rss[read].update(by_size)
    with pytest.raises(AssertionError, match=message):
        suite.bench_shard_rss(mode)


def test_rss_probe_runs_in_a_fresh_interpreter():
    assert suite._measure_rss("baseline", "") > 0


# -- lint.dataflow: budget, warm replay, exact invalidation --------------
@pytest.fixture()
def tiny_tree(tmp_path, monkeypatch):
    files = {
        "src/repro/__init__.py": "",
        "src/repro/analysis/__init__.py": "",
        "src/repro/analysis/pragmas.py": "def parse(line):\n    return line.strip()\n",
        "src/repro/user.py": (
            "from repro.analysis.pragmas import parse\n\n\n"
            "def use(line):\n    return parse(line)\n"
        ),
        "src/repro/other.py": "def alone():\n    return 1\n",
    }
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    monkeypatch.setattr(suite, "_REPO_ROOT", str(tmp_path))
    return tmp_path


def test_lint_dataflow_reanalyzes_the_edit_closure(tiny_tree):
    metrics = suite.bench_lint_dataflow("smoke")
    assert metrics["modules"] == 5.0
    assert 0 < metrics["reanalyzed_after_edit"] < metrics["modules"]


def test_lint_dataflow_raises_over_budget(tiny_tree, monkeypatch):
    monkeypatch.setattr(suite, "DATAFLOW_BUDGET_SECONDS", 0.0)
    with pytest.raises(AssertionError, match="budget"):
        suite.bench_lint_dataflow("smoke")


def test_lint_dataflow_raises_when_warm_rerun_misses(tiny_tree, monkeypatch):
    from repro.analysis.cache import LintCache

    monkeypatch.setattr(LintCache, "save", lambda self: None)
    with pytest.raises(AssertionError, match="warm rerun re-analyzed 5"):
        suite.bench_lint_dataflow("smoke")


def test_lint_dataflow_raises_on_a_wrong_invalidation_set(tiny_tree, monkeypatch):
    import repro.analysis.dataflow as dataflow

    analyze = dataflow.analyze_dataflow
    calls = []

    def overeager(files, project, cache):
        report = analyze(files, project, cache)
        calls.append(report)
        if len(calls) == 3:
            report.files_reanalyzed += 1
        return report

    monkeypatch.setattr(dataflow, "analyze_dataflow", overeager)
    with pytest.raises(AssertionError, match="one-file edit re-analyzed"):
        suite.bench_lint_dataflow("smoke")


class TestWarmOpenBlocks:
    """A warm open of a record table keeps no Python object per model:
    the retained traced blocks of a 1,000- and a 5,000-row open differ
    by under 0.01 a row."""

    def test_retained_blocks_do_not_grow_with_the_rows(self, tmp_path):
        assert suite.OPEN_ROWS == (1000, 5000)
        per_row = suite.warm_open_blocks_per_row(str(tmp_path))
        assert abs(per_row) < suite.OPEN_BLOCKS_PER_ROW, per_row

    def test_a_str_per_row_breaks_the_bound(self, tmp_path, monkeypatch):
        # The measure must see what the id column replaced: a warm open
        # that decodes every id to a str keeps about one block a row.
        from repro.lake import ModelLake

        register = ModelLake.register_table

        def decode_every_id(self, table):
            register(self, table)
            self.kept_ids = table.column("ids")

        monkeypatch.setattr(ModelLake, "register_table", decode_every_id)
        assert suite.warm_open_blocks_per_row(str(tmp_path)) > 0.9

    def test_the_check_raises_when_the_bound_breaks(self, tmp_path, monkeypatch):
        # ``repro bench``'s search bench runs this check.
        monkeypatch.setattr(suite, "warm_open_blocks_per_row", lambda _: 1.0)
        with pytest.raises(AssertionError, match="per-model Python object"):
            suite.check_warm_open_blocks(str(tmp_path))
        monkeypatch.setattr(suite, "warm_open_blocks_per_row", lambda _: 0.0)
        assert suite.check_warm_open_blocks(str(tmp_path)) == 0.0
