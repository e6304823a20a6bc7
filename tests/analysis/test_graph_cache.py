"""Dependency-aware incremental caching: an edit re-analyzes exactly
the edited file plus its reverse-import closure."""

import json

from repro.analysis.cache import LintCache
from repro.analysis.graph import analyze_project
from repro.utils.hashing import stable_hash

CHAIN = {
    "src/pkg/app.py": "import pkg.mid\n\nVALUE = pkg.mid.X\n",
    "src/pkg/mid.py": "import pkg.base\n\nX = pkg.base.X\n",
    "src/pkg/base.py": "X = 1\n",
    "src/pkg/loner.py": "Y = 2\n",
}


def as_files(tree):
    return {rel: (src, stable_hash(src)) for rel, src in tree.items()}


def run(tmp_path, tree):
    """One analyze_project round through the persistent cache file."""
    cache = LintCache(str(tmp_path / "cache.json"))
    report = analyze_project(as_files(tree), None, cache)
    cache.save()
    return report, cache


def test_cold_run_analyzes_everything(tmp_path):
    report, cache = run(tmp_path, CHAIN)
    assert report.files_reanalyzed == len(CHAIN)
    assert cache.misses["graph_modules"] == len(CHAIN)
    assert cache.misses["extractions"] == len(CHAIN)


def test_warm_run_replays_entirely_from_cache(tmp_path):
    run(tmp_path, CHAIN)
    report, cache = run(tmp_path, CHAIN)
    assert report.files_reanalyzed == 0
    assert cache.hits["graph_modules"] == len(CHAIN)
    assert cache.hits["extractions"] == len(CHAIN)
    assert cache.misses["extractions"] == 0


def test_edit_invalidates_only_the_reverse_import_closure(tmp_path):
    run(tmp_path, CHAIN)
    edited = dict(CHAIN)
    edited["src/pkg/base.py"] = "X = 1  # touched\n"
    report, cache = run(tmp_path, edited)
    # base + mid + app re-analyze; loner replays from cache.
    assert report.files_reanalyzed == 3
    assert cache.hits["graph_modules"] == 1
    assert cache.misses["extractions"] == 1  # only base re-parses


def test_editing_a_leaf_invalidates_only_itself(tmp_path):
    run(tmp_path, CHAIN)
    edited = dict(CHAIN)
    edited["src/pkg/loner.py"] = "Y = 3\n"
    report, _cache = run(tmp_path, edited)
    assert report.files_reanalyzed == 1


def test_editing_the_middle_spares_the_bottom(tmp_path):
    run(tmp_path, CHAIN)
    edited = dict(CHAIN)
    edited["src/pkg/mid.py"] = "import pkg.base\n\nX = pkg.base.X + 0\n"
    report, _cache = run(tmp_path, edited)
    assert report.files_reanalyzed == 2  # mid + app, not base/loner


def test_new_import_edge_shows_up_despite_warm_cache(tmp_path):
    run(tmp_path, CHAIN)
    edited = dict(CHAIN)
    # loner grows an import of app: app's closure is unchanged, loner's is
    # not — the new edge must surface without a stale verdict anywhere.
    edited["src/pkg/loner.py"] = "import pkg.app\n\nY = 2\n"
    report, _cache = run(tmp_path, edited)
    assert report.all_edges == 3
    assert report.files_reanalyzed == 1


def test_project_scope_rules_are_not_served_stale(tmp_path):
    tree = {
        "src/pkg/api.py": "def helper():\n    return 1\n",
        "src/pkg/app.py": "from pkg.api import helper\n\nV = helper()\n",
    }
    report, _cache = run(tmp_path, tree)
    assert [f for f in report.findings if f.rule == "dead-symbol"] == []
    # Deleting the only reference must flip dead-symbol on a warm cache.
    tree["src/pkg/app.py"] = "V = 1\n"
    report, _cache = run(tmp_path, tree)
    assert len(
        [f for f in report.findings if f.rule == "dead-symbol"]
    ) == 1


def test_deleted_files_are_pruned_from_the_cache(tmp_path):
    run(tmp_path, CHAIN)
    smaller = {k: v for k, v in CHAIN.items() if "loner" not in k}
    run(tmp_path, smaller)
    tables = json.loads((tmp_path / "cache.json").read_text())["tables"]
    assert "src/pkg/loner.py" not in tables["extractions"]
    assert "src/pkg/loner.py" not in tables["graph_modules"]


def test_format_version_mismatch_discards_the_cache(tmp_path):
    run(tmp_path, CHAIN)
    path = tmp_path / "cache.json"
    payload = json.loads(path.read_text())
    payload["version"] = -1
    path.write_text(json.dumps(payload))
    report, _cache = run(tmp_path, CHAIN)
    assert report.files_reanalyzed == len(CHAIN)


def test_corrupt_cache_file_degrades_to_a_cold_run(tmp_path):
    (tmp_path / "cache.json").write_text("{not json")
    report, _cache = run(tmp_path, CHAIN)
    assert report.files_reanalyzed == len(CHAIN)


def test_disabled_persistence_still_analyzes(tmp_path):
    cache = LintCache(None)
    report = analyze_project(as_files(CHAIN), None, cache)
    cache.save()  # must be a no-op, not an error
    assert report.modules == len(CHAIN)
