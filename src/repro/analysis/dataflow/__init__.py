"""Dataflow analysis: CFGs, fixpoint solving, and taint over the call graph.

Per-file AST rules see syntax; graph rules see module topology.  Neither
can answer *flow* questions: does this handle close on every path, does
this clock value reach a digest, does this memmap view outlive the file
backing it?  This subpackage supplies the machinery:

* :mod:`repro.analysis.dataflow.cfg` — per-function control-flow graphs
  covering branches, loops, ``try/except/finally``, ``with``, ``match``,
  and comprehension back edges;
* :mod:`repro.analysis.dataflow.solver` — a generic forward worklist
  fixpoint solver that the taint and resource analyses instantiate;
* :mod:`repro.analysis.dataflow.taint` — intraprocedural taint
  propagation with def-use chains, from nondeterminism sources to
  digest sinks;
* :mod:`repro.analysis.dataflow.summaries` — per-function summaries
  (blocking calls, taint returns, sink parameters, shared-state
  read/write sets) that make the analysis interprocedural by keying
  through the existing :class:`~repro.analysis.graph.callgraph.CallGraph`;
* :mod:`repro.analysis.dataflow.rules` — the concurrency/resource-safety
  rule pack (shared-state-race, blocking-call-in-async, memmap-escape,
  impure-digest-flow, resource-leak);
* :mod:`repro.analysis.dataflow.engine` — incremental evaluation, cached
  in the lint cache per dependency digest (engine version included, so
  engine upgrades invalidate cleanly), surfaced as
  ``repro lint --dataflow``.
"""

from repro.analysis.dataflow.cfg import (
    CFG,
    Block,
    Element,
    build_cfg,
    render_cfg_dot,
    render_cfg_text,
)
from repro.analysis.dataflow.engine import (
    ENGINE_VERSION,
    DataflowEngine,
    DataflowReport,
    analyze_dataflow,
    find_function,
)
from repro.analysis.dataflow.model import FunctionModel, ModelIndex, ModuleModel
from repro.analysis.dataflow.rules import (
    DataflowRule,
    all_dataflow_rules,
    dataflow_rule_names,
    dataflow_rules_fingerprint,
    register_dataflow_rule,
)
from repro.analysis.dataflow.solver import Analysis, solve
from repro.analysis.dataflow.summaries import SummaryIndex

__all__ = [
    "Analysis",
    "Block",
    "CFG",
    "DataflowEngine",
    "DataflowReport",
    "DataflowRule",
    "ENGINE_VERSION",
    "Element",
    "FunctionModel",
    "ModelIndex",
    "ModuleModel",
    "SummaryIndex",
    "all_dataflow_rules",
    "analyze_dataflow",
    "build_cfg",
    "dataflow_rule_names",
    "dataflow_rules_fingerprint",
    "find_function",
    "register_dataflow_rule",
    "render_cfg_dot",
    "render_cfg_text",
    "solve",
]
