"""``repro lint --explain [RULE]``: what a rule means and how it looks.

Pulls one rule from whichever registry owns it — per-file, graph, or
dataflow — and renders its description, scope, and a
minimal positive/negative example pair.  The examples are real sources
(the explain tests execute the per-file ones through
:func:`lint_source` and the pack ones through their engines), so the
documentation cannot drift from the rules it describes.  With no RULE,
:func:`explain_index` lists every rule grouped by pack.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.analysis.core import all_rules
from repro.analysis.dataflow.rules import all_dataflow_rules
from repro.analysis.graph.rules import all_graph_rules

__all__ = ["explain_rule", "explain_index", "explainable_rules", "rule_record"]

#: How the syntax-error pseudo-rule (emitted by the runner, not a
#: registry) is documented.
_SYNTAX_ERROR = {
    "name": "syntax-error",
    "kind": "per-file",
    "description": (
        "the file does not parse; every other rule is skipped for it so "
        "one broken file cannot hide the rest of the sweep"
    ),
    "example_positive": "def broken(:\n    pass\n",
    "example_negative": "def fine():\n    pass\n",
}


def rule_record(name: str) -> Optional[dict]:
    """Uniform metadata for one rule, or ``None`` if unknown."""
    if name == _SYNTAX_ERROR["name"]:
        return dict(_SYNTAX_ERROR)
    for rule in all_rules():
        if rule.name == name:
            return {
                "name": rule.name,
                "kind": "per-file",
                "description": rule.description,
                "example_positive": rule.example_positive,
                "example_negative": rule.example_negative,
            }
    for rule in all_graph_rules():
        if rule.name == name:
            return {
                "name": rule.name,
                "kind": f"graph ({rule.scope} scope)",
                "description": rule.description,
                "example_positive": rule.example_positive,
                "example_negative": rule.example_negative,
            }
    for rule in all_dataflow_rules():
        if rule.name == name:
            return {
                "name": rule.name,
                "kind": "dataflow",
                "description": rule.description,
                "example_positive": rule.example_positive,
                "example_negative": rule.example_negative,
            }
    return None


def explainable_rules() -> List[str]:
    names = {_SYNTAX_ERROR["name"]}
    names.update(rule.name for rule in all_rules())
    names.update(rule.name for rule in all_graph_rules())
    names.update(rule.name for rule in all_dataflow_rules())
    return sorted(names)


def _one_liner(description: str) -> str:
    """First sentence of a rule description, for the index listing."""
    text = " ".join(str(description).split())
    for stop in (". ", "; "):
        cut = text.find(stop)
        if cut != -1:
            return text[: cut + 1].rstrip("; ")
    return text


def explain_index() -> str:
    """Every rule grouped by pack, one line each — the no-RULE listing."""
    packs: List[Tuple[str, List[Tuple[str, str]]]] = [
        (
            "per-file (ast)",
            [(r.name, r.description) for r in all_rules()]
            + [(str(_SYNTAX_ERROR["name"]), str(_SYNTAX_ERROR["description"]))],
        ),
        ("graph", [(r.name, r.description) for r in all_graph_rules()]),
        ("dataflow", [(r.name, r.description) for r in all_dataflow_rules()]),
    ]
    lines: List[str] = []
    for pack, rules in packs:
        lines.append(f"{pack}:")
        for name, description in sorted(rules):
            lines.append(f"  {name:28s} {_one_liner(description)}")
        lines.append("")
    lines.append("Run `repro lint --explain RULE` for details and examples.")
    return "\n".join(lines)


def _indent(block: str) -> str:
    return "\n".join(f"    {line}" for line in block.rstrip("\n").split("\n"))


def explain_rule(name: str) -> Optional[str]:
    """Human-readable explanation of one rule, or ``None`` if unknown."""
    record = rule_record(name)
    if record is None:
        return None
    lines = [
        f"{record['name']}  [{record['kind']}]",
        "",
        str(record["description"]),
    ]
    if record["example_positive"]:
        lines += ["", "Flags:", _indent(str(record["example_positive"]))]
    if record["example_negative"]:
        lines += ["", "Passes:", _indent(str(record["example_negative"]))]
    lines += [
        "",
        f"Suppress one finding with `# repro: noqa[{record['name']}]` on "
        "the reported line, or add a baseline entry with a reason.",
    ]
    return "\n".join(lines)
