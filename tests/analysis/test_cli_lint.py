"""The ``repro lint`` subcommand: exit codes, JSON output, cache flag."""

import json
import os
import textwrap

import pytest

from repro.cli import main


@pytest.fixture()
def tree(tmp_path):
    def build(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return tmp_path

    return build


CLEAN = "X = 1\n"
PRINTING = "def report(x):\n    print(x)\n"


def test_lint_clean_tree_exits_zero(tree, capsys):
    root = tree({"src/repro/lake/mod.py": CLEAN})
    code = main(["lint", "--root", str(root), "--no-cache", "src"])
    assert code == 0
    assert "0 errors" in capsys.readouterr().out


def test_lint_violation_exits_one(tree, capsys):
    root = tree({"src/repro/lake/mod.py": PRINTING})
    code = main(["lint", "--root", str(root), "--no-cache", "src"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[no-print]" in out
    assert "src/repro/lake/mod.py:2" in out


def test_lint_json_output_parses(tree, capsys):
    root = tree({"src/repro/lake/mod.py": PRINTING})
    code = main(["lint", "--root", str(root), "--no-cache", "--json", "src"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["errors"] == 1
    assert payload["findings"][0]["rule"] == "no-print"


def test_lint_missing_path_is_config_error(tree, capsys):
    root = tree({})
    code = main(["lint", "--root", str(root), "--no-cache", "nope"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_lint_writes_and_reuses_cache(tree, capsys):
    root = tree({"src/repro/lake/mod.py": CLEAN})
    assert main(["lint", "--root", str(root), "src"]) == 0
    assert (root / ".repro-lint-cache.json").exists()
    assert main(["lint", "--root", str(root), "src"]) == 0
    assert "cache 1 hits / 0 misses" in capsys.readouterr().out


def test_lint_strict_fails_on_warning(tree):
    root = tree({
        "src/repro/lake/mod.py": """
        def load(store, key):
            try:
                return store[key]
            except KeyError:
                pass
            return None
        """,
    })
    assert main(["lint", "--root", str(root), "--no-cache", "src"]) == 0
    assert main(
        ["lint", "--root", str(root), "--no-cache", "--strict", "src"]
    ) == 1


def test_lint_on_this_repository_is_clean():
    """Self-hosting gate: the repo's own tree must lint clean in strict mode."""
    import os

    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__)
    )))
    assert main([
        "lint", "--root", repo_root, "--strict", "--no-cache",
        "src", "tests", "benchmarks",
    ]) == 0


def test_lint_explain_known_rule(capsys):
    assert main(["lint", "--explain", "resource-leak"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("resource-leak")
    assert "Flags:" in out and "Passes:" in out
    assert "noqa[resource-leak]" in out


def test_lint_explain_unknown_rule_lists_known_ones(capsys):
    assert main(["lint", "--explain", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown rule" in err
    assert "impure-digest-flow" in err


def test_lint_bare_explain_lists_every_pack(capsys):
    assert main(["lint", "--explain"]) == 0
    out = capsys.readouterr().out
    for pack in ("per-file (ast):", "graph:", "dataflow:"):
        assert pack in out
    assert "swallowed-exception" in out
    assert "resource-leak" in out


#: One per-file warning: a swallowed exception.
SWALLOWING = """
def load(store, key):
    try:
        return store[key]
    except KeyError:
        pass
    return None
"""


def test_unwritable_cache_path_degrades_to_no_cache(tree, tmp_path, capsys):
    root = tree({"src/repro/lake/mod.py": PRINTING})
    args = ["lint", "--root", str(root), "--json", "--strict", "src"]
    code = main(args + ["--cache", str(tmp_path / "missing-dir" / "c.json")])
    cached = json.loads(capsys.readouterr().out)
    assert main(args + ["--no-cache"]) == code == 1
    uncached = json.loads(capsys.readouterr().out)
    assert cached["findings"] == uncached["findings"]
    assert "no-print" in {f["rule"] for f in cached["findings"]}


def test_strict_lint_writes_exactly_one_cache_file(tree):
    root = tree({
        "src/repro/lake/mod.py": "def width():\n    return 3\n",
        "src/repro/lake/use.py": (
            "from repro.lake.mod import width\n\nTABLE = width()\n"
        ),
    })
    assert main(["lint", "--root", str(root), "--strict", "src"]) == 0
    written = sorted(
        name for name in os.listdir(root) if name.endswith("cache.json")
    )
    assert written == [".repro-lint-cache.json"]


class TestBaselineUpdate:
    def test_fresh_findings_become_todo_entries(self, tree, capsys):
        import json as json_mod

        root = tree({"src/repro/lake/mod.py": SWALLOWING})
        assert main([
            "lint", "--root", str(root), "--no-cache",
            "--baseline-update", "src",
        ]) == 0
        ledger = json_mod.loads((root / ".repro-lint.json").read_text())
        entries = ledger["suppressions"]
        assert [e["rule"] for e in entries] == ["swallowed-exception"]
        assert entries[0]["path"] == "src/repro/lake/mod.py"
        assert entries[0]["reason"].startswith("TODO")
        # The rewritten ledger applies immediately: non-strict passes
        # with the finding suppressed...
        capsys.readouterr()
        assert main([
            "lint", "--root", str(root), "--no-cache", "src",
        ]) == 0
        assert "1 baselined" in capsys.readouterr().out
        # ...but --strict still rejects the unjustified TODO reason.
        assert main([
            "lint", "--root", str(root), "--no-cache", "--strict", "src",
        ]) == 1
        assert "TODO" in capsys.readouterr().out

    def test_stale_entries_are_dropped(self, tree):
        import json as json_mod

        root = tree({"src/repro/lake/mod.py": CLEAN})
        (root / ".repro-lint.json").write_text(json_mod.dumps({
            "version": 1,
            "suppressions": [{
                "rule": "no-print",
                "path": "src/repro/lake/gone.py",
                "reason": "matched a file that no longer exists",
            }],
        }))
        assert main([
            "lint", "--root", str(root), "--no-cache", "--baseline-update",
            "src",
        ]) == 0
        ledger = json_mod.loads((root / ".repro-lint.json").read_text())
        assert ledger["suppressions"] == []

    def test_skipped_phase_entries_survive_the_rewrite(self, tree):
        import json as json_mod

        root = tree({"src/repro/lake/mod.py": CLEAN})
        (root / ".repro-lint.json").write_text(json_mod.dumps({
            "version": 1,
            "suppressions": [{
                "rule": "resource-leak",
                "path": "src/repro/lake/other.py",
                "reason": "dataflow entry; this run never evaluates the rule",
            }],
        }))
        # Without --dataflow the dataflow pack never ran, so its entries
        # never had a chance to match and must not be dropped as stale.
        assert main([
            "lint", "--root", str(root), "--no-cache", "--baseline-update",
            "src",
        ]) == 0
        ledger = json_mod.loads((root / ".repro-lint.json").read_text())
        assert [e["rule"] for e in ledger["suppressions"]] == [
            "resource-leak"
        ]
