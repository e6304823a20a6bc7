"""Whole-program analysis: import graph, call graph, layer contract.

Per-file AST rules (:mod:`repro.analysis.rules`) cannot see an unseeded
RNG reached *through* a helper, or ``repro.analysis`` quietly importing
``repro.lake``.  This subpackage supplies the missing view: every linted
file is distilled into :class:`~repro.analysis.graph.extract.ModuleFacts`,
assembled into an :class:`~repro.analysis.graph.imports.ImportGraph`
and a conservative :class:`~repro.analysis.graph.callgraph.CallGraph`,
checked against the declared layer contract (``.repro-arch.toml``), and
evaluated by interprocedural rules — all cached so a one-file edit
re-analyzes only the file plus its reverse-import closure.
"""

from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.contract import (
    DEFAULT_CONTRACT_NAME,
    LayerContract,
    load_contract,
)
from repro.analysis.graph.export import (
    graph_to_dict,
    render_graph_dot,
    render_graph_json,
)
from repro.analysis.graph.extract import (
    ModuleFacts,
    extract_facts,
    module_name_for,
)
from repro.analysis.graph.imports import ImportGraph
from repro.analysis.graph.project import (
    GraphReport,
    ProjectGraph,
    analyze_project,
    build_project,
)
from repro.analysis.graph.rules import (
    GraphRule,
    all_graph_rules,
    graph_rule_names,
    graph_rules_fingerprint,
    register_graph_rule,
)

__all__ = [
    "CallGraph",
    "DEFAULT_CONTRACT_NAME",
    "GraphReport",
    "GraphRule",
    "ImportGraph",
    "LayerContract",
    "ModuleFacts",
    "ProjectGraph",
    "all_graph_rules",
    "analyze_project",
    "build_project",
    "extract_facts",
    "graph_rule_names",
    "graph_rules_fingerprint",
    "graph_to_dict",
    "load_contract",
    "module_name_for",
    "register_graph_rule",
    "render_graph_dot",
    "render_graph_json",
]
