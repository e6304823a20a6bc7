"""The lint cache: one file, named tables, per-table invalidation."""

import json
import os

from repro.analysis import Finding, LintCache, LintConfig, rules_fingerprint, run_lint
from repro.analysis import runner as runner_mod
from repro.analysis.cache import TABLES, content_digest
from repro.analysis.dataflow import engine as engine_mod


def make_finding(path="src/repro/x.py", rule="no-print"):
    return Finding(path=path, line=3, col=4, rule=rule, message="m")


def test_roundtrip_hit(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = LintCache(path)
    digest = content_digest("source")
    cache.put_findings("files", "src/repro/x.py", digest, [make_finding()])
    cache.put("extractions", "src/repro/x.py", digest, {"facts": [1, 2]})
    cache.save()

    fresh = LintCache(path)
    assert fresh.get_findings("files", "src/repro/x.py", digest) == [
        make_finding()
    ]
    assert fresh.get("extractions", "src/repro/x.py", digest) == {
        "facts": [1, 2]
    }
    assert fresh.hits == {"files": 1, "extractions": 1}
    assert not fresh.misses


def test_content_change_misses(tmp_path):
    path = str(tmp_path / "cache.json")
    cache = LintCache(path)
    cache.put_findings(
        "files", "src/repro/x.py", content_digest("old"), [make_finding()]
    )
    cache.save()

    fresh = LintCache(path)
    assert fresh.get_findings(
        "files", "src/repro/x.py", content_digest("new")
    ) is None
    assert fresh.misses["files"] == 1


def test_format_version_mismatch_is_a_cold_start(tmp_path):
    path = tmp_path / "cache.json"
    cache = LintCache(str(path))
    cache.put_findings("files", "a.py", "s", [])
    cache.save()
    payload = json.loads(path.read_text())
    payload["version"] = -1
    path.write_text(json.dumps(payload))
    assert LintCache(str(path)).get_findings("files", "a.py", "s") is None


def test_corrupt_cache_file_is_ignored(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text("{not json")
    cache = LintCache(str(path))
    assert cache.get_findings("files", "src/repro/x.py", "s") is None


def test_pathless_cache_never_persists(tmp_path):
    cache = LintCache(None)
    cache.put_findings("files", "src/repro/x.py", content_digest("s"), [])
    cache.save()  # must be a no-op, not an error
    assert cache.get_findings("files", "src/repro/x.py", content_digest("s")) == []
    assert os.listdir(tmp_path) == []


def test_unwritable_path_is_not_persisted_and_does_not_raise(tmp_path):
    cache = LintCache(str(tmp_path / "missing-dir" / "cache.json"))
    cache.put_findings("files", "a.py", "s", [make_finding(path="a.py")])
    cache.save()  # the directory does not exist: degrade, never fail
    assert not (tmp_path / "missing-dir").exists()


def test_prune_drops_a_deleted_file_from_every_table(tmp_path):
    path = tmp_path / "cache.json"
    cache = LintCache(str(path))
    for table in TABLES:
        for rel_path in ("kept.py", "gone.py"):
            cache.put_findings(table, rel_path, "s", [])
    cache.prune(["kept.py"])
    cache.save()
    tables = json.loads(path.read_text())["tables"]
    assert set(tables) == set(TABLES)
    for table in TABLES:
        assert list(tables[table]) == ["kept.py"]


PACKAGE = {
    "src/pkg/__init__.py": "",
    "src/pkg/leaf.py": "def width():\n    return 3\n",
    "src/pkg/top.py": (
        "from pkg.leaf import width\n\n\n"
        "def total():\n    return width() * 2\n"
    ),
}


def strict_sweep(root):
    """One graph + dataflow lint of ``root`` through its default cache."""
    return run_lint(
        LintConfig(paths=["src"], root=str(root), graph=True, dataflow=True)
    )


def write_package(root):
    for rel_path, source in PACKAGE.items():
        target = root / rel_path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)


def test_dataflow_engine_bump_keeps_the_other_tables_warm(tmp_path, monkeypatch):
    write_package(tmp_path)
    strict_sweep(tmp_path)
    monkeypatch.setattr(engine_mod, "ENGINE_VERSION", engine_mod.ENGINE_VERSION + 1)
    result = strict_sweep(tmp_path)
    assert result.dataflow_files_reanalyzed == len(PACKAGE)
    assert result.graph_files_reanalyzed == 0
    assert result.cache_hits == len(PACKAGE) and result.cache_misses == 0


def test_rules_fingerprint_change_keeps_the_other_tables_warm(
    tmp_path, monkeypatch
):
    write_package(tmp_path)
    strict_sweep(tmp_path)
    monkeypatch.setattr(runner_mod, "rules_fingerprint", lambda: "rules-v2")
    result = strict_sweep(tmp_path)
    assert result.cache_misses == len(PACKAGE) and result.cache_hits == 0
    assert result.graph_files_reanalyzed == 0
    assert result.dataflow_files_reanalyzed == 0


def test_save_is_valid_json_with_fingerprint(tmp_path):
    write_package(tmp_path)
    strict_sweep(tmp_path)
    payload = json.loads((tmp_path / ".repro-lint-cache.json").read_text())
    stamp = payload["tables"]["files"]["src/pkg/leaf.py"]["stamp"]
    assert stamp.startswith(rules_fingerprint())
    for table in TABLES:
        assert payload["tables"][table], f"strict sweep left {table} empty"


def test_rules_fingerprint_is_deterministic():
    assert rules_fingerprint() == rules_fingerprint()
