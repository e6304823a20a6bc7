"""Incremental dataflow caching: exact reverse-closure invalidation."""

from repro.analysis.cache import LintCache
from repro.analysis.dataflow import analyze_dataflow
from repro.analysis.dataflow import engine as engine_mod
from repro.analysis.graph import build_project
from repro.utils.hashing import stable_hash


BASE = {
    "src/pkg/leaf.py": "def width():\n    return 3\n",
    "src/pkg/mid.py": (
        "from pkg.leaf import width\n\n\n"
        "def padded():\n    return width() + 1\n"
    ),
    "src/pkg/top.py": (
        "from pkg.mid import padded\n\n\n"
        "def total():\n    return padded() * 2\n"
    ),
    "src/pkg/island.py": "def alone():\n    return 0\n",
}


def file_map(files):
    return {
        rel: (source, stable_hash(source)) for rel, source in files.items()
    }


def sweep(tmp_path, files):
    mapped = file_map(files)
    project = build_project(mapped, None)
    cache = LintCache(tmp_path / "df-cache.json")
    report = analyze_dataflow(mapped, project, cache)
    cache.save()
    return report


def test_cold_sweep_analyzes_everything(tmp_path):
    report = sweep(tmp_path, BASE)
    assert report.files_reanalyzed == len(BASE)
    assert report.cache_hits == 0


def test_warm_rerun_reanalyzes_nothing(tmp_path):
    sweep(tmp_path, BASE)
    report = sweep(tmp_path, BASE)
    assert report.files_reanalyzed == 0
    assert report.cache_hits == len(BASE)


def test_one_edit_invalidates_exactly_the_reverse_closure(tmp_path):
    sweep(tmp_path, BASE)
    edited = dict(BASE)
    edited["src/pkg/leaf.py"] = "def width():\n    return 4\n"
    report = sweep(tmp_path, edited)
    # leaf itself, mid (imports leaf), top (imports mid) — island is
    # untouched and must come straight from the cache.
    assert report.files_reanalyzed == 3
    assert report.cache_hits == 1


def test_editing_an_island_invalidates_only_itself(tmp_path):
    sweep(tmp_path, BASE)
    edited = dict(BASE)
    edited["src/pkg/island.py"] = "def alone():\n    return 1\n"
    report = sweep(tmp_path, edited)
    assert report.files_reanalyzed == 1
    assert report.cache_hits == len(BASE) - 1


def test_engine_version_bump_invalidates_everything(tmp_path, monkeypatch):
    sweep(tmp_path, BASE)
    monkeypatch.setattr(engine_mod, "ENGINE_VERSION", engine_mod.ENGINE_VERSION + 1)
    report = sweep(tmp_path, BASE)
    assert report.files_reanalyzed == len(BASE)
    assert report.cache_hits == 0


def test_cached_findings_replay_identically(tmp_path):
    files = dict(BASE)
    files["src/pkg/leaky.py"] = (
        "import json\n\n\n"
        "def load(path, strict):\n"
        "    handle = open(path)\n"
        "    if strict:\n"
        "        return json.load(handle)\n"
        "    data = json.load(handle)\n"
        "    handle.close()\n"
        "    return data\n"
    )
    cold = sweep(tmp_path, files)
    warm = sweep(tmp_path, files)
    assert warm.files_reanalyzed == 0
    assert warm.findings == cold.findings
    assert [f.rule for f in cold.findings] == ["resource-leak"]
