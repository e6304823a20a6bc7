"""Rule filters (--select / --ignore), lint --graph, and `repro graph`."""

import json
import textwrap

import pytest

from repro.analysis import LintConfig, run_lint
from repro.cli import main
from repro.errors import ConfigError

ARCH = """
version = 1

[project]
source-roots = ["src"]

[[layers]]
name = "low"
modules = ["repro.low"]

[[layers]]
name = "high"
modules = ["repro.high"]
"""

#: One unseeded-random error (line 2) + one whole-file-read error (line 3).
MIXED = "import numpy, random\nX = random.random()\nW = numpy.load('w.npy')\n"


@pytest.fixture()
def tree(tmp_path):
    def build(files):
        for rel, source in files.items():
            path = tmp_path / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return tmp_path

    return build


# -- --select / --ignore (runner level) --------------------------------


def test_select_keeps_only_named_rules(tree):
    root = tree({"src/repro/lake/mod.py": MIXED})
    result = run_lint(LintConfig(
        paths=["src"], root=str(root), use_cache=False,
        select=["unseeded-random"],
    ))
    assert [f.rule for f in result.findings] == ["unseeded-random"]


def test_ignore_drops_named_rules(tree):
    root = tree({"src/repro/lake/mod.py": MIXED})
    result = run_lint(LintConfig(
        paths=["src"], root=str(root), use_cache=False,
        ignore=["unseeded-random"],
    ))
    assert [f.rule for f in result.findings] == ["whole-file-read"]


def test_ignore_beats_select(tree):
    root = tree({"src/repro/lake/mod.py": MIXED})
    result = run_lint(LintConfig(
        paths=["src"], root=str(root), use_cache=False,
        select=["unseeded-random"], ignore=["unseeded-random"],
    ))
    assert result.findings == []


def test_unknown_rule_name_is_a_config_error(tree):
    root = tree({"src/repro/lake/mod.py": "X = 1\n"})
    with pytest.raises(ConfigError, match="no-such-rule"):
        run_lint(LintConfig(
            paths=["src"], root=str(root), use_cache=False,
            select=["no-such-rule"],
        ))


def test_select_accepts_graph_rule_names(tree):
    root = tree({
        "src/repro/low.py": "import repro.high\n",
        "src/repro/high.py": "X = 1\n",
        ".repro-arch.toml": ARCH,
    })
    result = run_lint(LintConfig(
        paths=["src"], root=str(root), use_cache=False,
        graph=True, select=["layering-violation"],
    ))
    assert [f.rule for f in result.findings] == ["layering-violation"]


def test_stale_baseline_outside_filter_is_not_reported(tree):
    root = tree({"src/repro/lake/mod.py": MIXED})
    (root / ".repro-lint.json").write_text(json.dumps({
        "version": 1,
        "suppressions": [{
            "rule": "time-in-digest",
            "path": "src/repro/lake/mod.py",
            "reason": "long gone",
        }],
    }))
    narrowed = run_lint(LintConfig(
        paths=["src"], root=str(root), use_cache=False,
        select=["unseeded-random"],
    ))
    assert narrowed.unused_baseline == []
    full = run_lint(LintConfig(paths=["src"], root=str(root), use_cache=False))
    assert len(full.unused_baseline) == 1


# -- lint --graph end to end -------------------------------------------


def test_lint_graph_reports_layering_violation(tree, capsys):
    root = tree({
        "src/repro/low.py": "import repro.high\n",
        "src/repro/high.py": "X = 1\n",
        ".repro-arch.toml": ARCH,
    })
    code = main(["lint", "--root", str(root), "--no-cache", "--graph", "src"])
    assert code == 1
    out = capsys.readouterr().out
    assert "[layering-violation]" in out
    assert "graph: 2 modules" in out


def test_strict_implies_graph_and_no_graph_disables_it(tree, capsys):
    root = tree({
        "src/repro/low.py": "import repro.high\n",
        "src/repro/high.py": "X = 1\n",
        ".repro-arch.toml": ARCH,
    })
    assert main(
        ["lint", "--root", str(root), "--no-cache", "--strict", "src"]
    ) == 1
    assert "[layering-violation]" in capsys.readouterr().out
    assert main([
        "lint", "--root", str(root), "--no-cache", "--strict",
        "--no-graph", "src",
    ]) == 0


def test_lint_graph_json_carries_graph_summary(tree, capsys):
    root = tree({"src/repro/mod.py": "X = 1\n"})
    code = main([
        "lint", "--root", str(root), "--no-cache", "--graph", "--json", "src",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["graph"]["modules"] == 1
    assert payload["graph"]["cycles"] == 0
    assert payload["graph"]["fingerprint"]


def test_lint_select_flag_round_trips(tree, capsys):
    root = tree({"src/repro/lake/mod.py": MIXED})
    code = main([
        "lint", "--root", str(root), "--no-cache",
        "--select", "whole-file-read", "src",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "[whole-file-read]" in out
    assert "[unseeded-random]" not in out


def test_lint_unknown_select_exits_config_error(tree, capsys):
    root = tree({"src/repro/lake/mod.py": "X = 1\n"})
    code = main([
        "lint", "--root", str(root), "--no-cache", "--select", "bogus", "src",
    ])
    assert code == 2
    assert "unknown rule name" in capsys.readouterr().err


# -- repro graph -------------------------------------------------------


GRAPH_TREE = {
    "src/repro/low.py": "X = 1\n",
    "src/repro/high.py": "import repro.low\n",
    ".repro-arch.toml": ARCH,
}


def test_graph_json_document(tree, capsys):
    root = tree(GRAPH_TREE)
    assert main(["graph", "--root", str(root), "src"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["module_count"] == 2
    assert payload["cycles"] == []
    assert payload["layers"] == [["repro.low"], ["repro.high"]]
    modules = {entry["name"]: entry for entry in payload["modules"]}
    assert modules["repro.high"]["imports"] == ["repro.low"]
    assert modules["repro.low"]["contract_layer"] == "low"


def test_graph_json_closures_flag(tree, capsys):
    root = tree(GRAPH_TREE)
    assert main(["graph", "--root", str(root), "--closures", "src"]) == 0
    payload = json.loads(capsys.readouterr().out)
    modules = {entry["name"]: entry for entry in payload["modules"]}
    assert modules["repro.low"]["reverse_closure"] == [
        "repro.high", "repro.low"
    ]


def test_graph_dot_output(tree, capsys):
    root = tree(GRAPH_TREE)
    assert main(["graph", "--root", str(root), "--dot", "src"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph repro_imports")
    assert '"repro.high" -> "repro.low"' in out
    assert "cluster" in out  # contract layers render as clusters


def test_graph_out_writes_file(tree, tmp_path, capsys):
    root = tree(GRAPH_TREE)
    target = tmp_path / "graph.dot"
    assert main([
        "graph", "--root", str(root), "--dot", "--out", str(target), "src",
    ]) == 0
    assert target.read_text().startswith("digraph repro_imports")
    assert capsys.readouterr().out == ""


# -- lint --dataflow end to end ----------------------------------------


#: Clean per-file; only the dataflow pack sees the blocking call.
BLOCKING = (
    "import time\n\n\n"
    "async def _poll():\n"
    "    time.sleep(1)\n"
)


def test_lint_dataflow_reports_blocking_call_in_async(tree, capsys):
    root = tree({"src/repro/poller.py": BLOCKING})
    code = main([
        "lint", "--root", str(root), "--no-cache", "--dataflow", "src",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "[blocking-call-in-async]" in out
    assert "dataflow: 1 modules" in out


def test_strict_implies_dataflow_and_no_dataflow_disables_it(tree, capsys):
    root = tree({"src/repro/poller.py": BLOCKING})
    assert main(
        ["lint", "--root", str(root), "--no-cache", "--strict", "src"]
    ) == 1
    assert "[blocking-call-in-async]" in capsys.readouterr().out
    assert main([
        "lint", "--root", str(root), "--no-cache", "--strict",
        "--no-dataflow", "src",
    ]) == 0


def test_lint_dataflow_json_carries_dataflow_summary(tree, capsys):
    root = tree({"src/repro/mod.py": "def f():\n    return 1\n"})
    code = main([
        "lint", "--root", str(root), "--no-cache", "--dataflow", "--json",
        "src",
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dataflow"]["modules"] == 1
    assert payload["dataflow"]["functions"] == 1
    assert payload["dataflow"]["fingerprint"]


def test_lint_dataflow_select_filter_applies(tree, capsys):
    root = tree({"src/repro/poller.py": BLOCKING})
    code = main([
        "lint", "--root", str(root), "--no-cache", "--dataflow",
        "--ignore", "blocking-call-in-async", "src",
    ])
    assert code == 0


# -- repro graph --cfg -------------------------------------------------


CFG_TREE = {
    "src/repro/calc.py": (
        "def double(n):\n"
        "    if n < 0:\n"
        "        return 0\n"
        "    return n * 2\n"
    ),
}


def test_graph_cfg_text_render(tree, capsys):
    root = tree(CFG_TREE)
    assert main(["graph", "--root", str(root), "--cfg", "double", "src"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("cfg repro.calc.double")
    assert "[entry]" in out and "[exit]" in out


def test_graph_cfg_dot_render(tree, capsys):
    root = tree(CFG_TREE)
    assert main([
        "graph", "--root", str(root), "--cfg", "repro.calc.double",
        "--dot", "src",
    ]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph cfg")
    assert "repro.calc.double" in out


def test_graph_cfg_unknown_function_is_an_error(tree, capsys):
    root = tree(CFG_TREE)
    code = main(["graph", "--root", str(root), "--cfg", "nope", "src"])
    assert code == 2
    assert "no function named" in capsys.readouterr().err


def test_graph_cfg_out_writes_file(tree, tmp_path, capsys):
    root = tree(CFG_TREE)
    target = tmp_path / "cfg.dot"
    assert main([
        "graph", "--root", str(root), "--cfg", "double", "--dot",
        "--out", str(target), "src",
    ]) == 0
    assert target.read_text().startswith("digraph cfg")


#: The same qualname in two modules: only path:qualname can pick one.
SHADOWED_TREE = {
    "src/repro/alpha.py": "def clamp(n):\n    return max(n, 0)\n",
    "src/repro/beta.py": (
        "def clamp(n):\n"
        "    if n > 9:\n"
        "        return 9\n"
        "    return n\n"
    ),
}


def test_graph_cfg_path_qualname_pins_the_file(tree, capsys):
    root = tree(SHADOWED_TREE)
    assert main([
        "graph", "--root", str(root),
        "--cfg", "src/repro/beta.py:clamp", "src",
    ]) == 0
    out = capsys.readouterr().out
    # Bare `clamp` would resolve to alpha (first in sorted file order);
    # the path form must land on beta's definition.
    assert out.startswith("cfg repro.beta.clamp")


def test_graph_cfg_path_qualname_wrong_file_is_an_error(tree, capsys):
    root = tree(SHADOWED_TREE)
    code = main([
        "graph", "--root", str(root),
        "--cfg", "src/repro/alpha.py:missing", "src",
    ])
    assert code == 2
    assert "no function named" in capsys.readouterr().err
