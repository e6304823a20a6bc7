"""``repro lint --explain``: every rule documented with live examples.

The per-file and dataflow examples are *executed* through the real
analyzers — the positive one must fire its rule and the negative one
must stay silent — so the documentation shown by ``--explain`` cannot
drift from the behavior it describes.
"""

import pytest

from repro.analysis.core import all_rules
from repro.analysis.cache import LintCache
from repro.analysis.dataflow import all_dataflow_rules, analyze_dataflow
from repro.analysis.explain import (
    explain_index,
    explain_rule,
    explainable_rules,
    rule_record,
)
from repro.analysis.graph import build_project
from repro.analysis.graph.rules import all_graph_rules
from repro.analysis.runner import lint_source
from repro.utils.hashing import stable_hash

#: A rel_path every per-file rule's ``applies_to`` accepts: the
#: reliability rules scope themselves to the artifact layers.
_EXAMPLE_PATH = "src/repro/lake/example.py"


def test_every_rule_is_explainable():
    names = explainable_rules()
    assert "syntax-error" in names
    for rule in all_rules():
        assert rule.name in names
    for rule in all_graph_rules():
        assert rule.name in names
    for rule in all_dataflow_rules():
        assert rule.name in names
    packs = all_rules() + all_graph_rules() + all_dataflow_rules()
    assert len(names) == len(packs) + 1  # + syntax-error


def test_unknown_rule_returns_none():
    assert explain_rule("no-such-rule") is None
    assert rule_record("no-such-rule") is None


def test_rendered_explanation_has_description_and_examples():
    for name in explainable_rules():
        rendered = explain_rule(name)
        assert rendered is not None
        assert rendered.startswith(name)
        assert f"noqa[{name}]" in rendered
        record = rule_record(name)
        if record["example_positive"]:
            assert "Flags:" in rendered
        if record["example_negative"]:
            assert "Passes:" in rendered


@pytest.mark.parametrize(
    "rule", all_rules(), ids=lambda rule: rule.name
)
def test_per_file_rule_examples_are_live(rule):
    assert rule.example_positive, f"{rule.name} has no positive example"
    assert rule.example_negative, f"{rule.name} has no negative example"
    fired = {f.rule for f in lint_source(rule.example_positive, _EXAMPLE_PATH)}
    assert rule.name in fired, (
        f"positive example of {rule.name} does not fire it (got {fired})"
    )
    silent = {f.rule for f in lint_source(rule.example_negative, _EXAMPLE_PATH)}
    assert rule.name not in silent, (
        f"negative example of {rule.name} still fires it"
    )


def _run_dataflow_example(tmp_path, source):
    files = {"src/pkg/example.py": (source, stable_hash(source))}
    project = build_project(files, None)
    cache = LintCache(tmp_path / "df-cache.json")
    return {
        f.rule
        for f in analyze_dataflow(files, project, cache).findings
    }


@pytest.mark.parametrize(
    "rule", all_dataflow_rules(), ids=lambda rule: rule.name
)
def test_dataflow_rule_examples_are_live(rule, tmp_path):
    assert rule.example_positive, f"{rule.name} has no positive example"
    assert rule.example_negative, f"{rule.name} has no negative example"
    fired = _run_dataflow_example(tmp_path, rule.example_positive)
    assert rule.name in fired, (
        f"positive example of {rule.name} does not fire it (got {fired})"
    )
    silent = _run_dataflow_example(tmp_path, rule.example_negative)
    assert rule.name not in silent, (
        f"negative example of {rule.name} still fires it"
    )


def test_index_lists_every_rule_grouped_by_pack():
    index = explain_index()
    for pack in ("per-file (ast):", "graph:", "dataflow:"):
        assert pack in index
    for name in explainable_rules():
        assert name in index
    assert "repro lint --explain RULE" in index


@pytest.mark.parametrize(
    "rule", all_graph_rules(), ids=lambda rule: rule.name
)
def test_graph_rule_examples_exist(rule):
    # Graph examples span several files (annotated inline), so they are
    # rendered, not executed.
    assert rule.example_positive
    assert rule.example_negative
    rendered = explain_rule(rule.name)
    assert "Flags:" in rendered and "Passes:" in rendered
