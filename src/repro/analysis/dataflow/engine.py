"""Incremental driver for the dataflow rule pack.

:func:`analyze_dataflow` mirrors the graph layer's evaluation shape:
per-module findings cached on a dependency digest covering the module's
forward import closure, the rule-pack fingerprint, and
:data:`ENGINE_VERSION` — a one-file edit re-analyzes only that file plus
its reverse-import closure; a solver or summary change (an engine bump)
invalidates everything.

The expensive work — parsing function ASTs, building CFGs, solving
fixpoints — happens lazily through :class:`ModelIndex`, so a fully-warm
run touches no ASTs at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import LintCache
from repro.analysis.core import Finding
from repro.analysis.dataflow.model import FunctionModel, ModelIndex
from repro.analysis.dataflow.rules import (
    DataflowContext,
    all_dataflow_rules,
    dataflow_rules_fingerprint,
)
from repro.analysis.dataflow.summaries import SummaryIndex
from repro.analysis.graph.project import ProjectGraph
from repro.analysis.pragmas import apply_pragmas
from repro.obs.tracing import trace
from repro.utils.hashing import stable_hash

__all__ = [
    "ENGINE_VERSION",
    "DataflowEngine",
    "DataflowReport",
    "analyze_dataflow",
    "find_function",
]

#: Bump whenever CFG construction, the solver, taint, or summaries change
#: meaning — it keys the findings cache, so an upgrade can never replay a
#: verdict computed by an older engine.
ENGINE_VERSION = 1


@dataclass
class DataflowReport:
    """One incremental dataflow evaluation."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    functions_analyzed: int = 0
    files_reanalyzed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    fingerprint: str = ""


class DataflowEngine:
    """Per-sweep state: models, summaries, and the rule pack."""

    def __init__(self, files: Dict[str, Tuple[str, str]], project: ProjectGraph):
        self.files = files
        self.project = project
        self.models = ModelIndex(files, project.source_roots)
        self.summaries = SummaryIndex(project, self.models)
        self.rules = all_dataflow_rules()

    def dependency_digest(self, module: str, digests: Dict[str, str]) -> str:
        graph = self.project.imports
        closure_files = sorted(
            (graph.modules[dep], digests[graph.modules[dep]])
            for dep in graph.forward_closure(module)
            if graph.modules[dep] in digests
        )
        return stable_hash(
            {
                "deps": closure_files,
                "rules": dataflow_rules_fingerprint(),
                "engine": ENGINE_VERSION,
            }
        )

    def check_module(self, rel_path: str) -> Tuple[List[Finding], int]:
        """Raw (pre-pragma) findings plus functions analyzed for one file."""
        module_model = self.models.model(rel_path)
        if module_model is None or module_model.parse_error:
            return [], 0
        ctx = DataflowContext(
            summaries=self.summaries,
            rel_path=rel_path,
            module_model=module_model,
        )
        findings: List[Finding] = []
        for rule in self.rules:
            findings.extend(rule.check_module(ctx))
        return sorted(set(findings)), len(module_model.functions)


def analyze_dataflow(
    files: Dict[str, Tuple[str, str]],
    project: ProjectGraph,
    cache: LintCache,
) -> DataflowReport:
    """Run the dataflow rule pack incrementally over ``files``.

    ``files`` maps rel_path -> (source, content_digest); ``project`` is
    the already-built graph the lint sweep shares between phases.
    Returns post-pragma, pre-baseline findings plus cache accounting.
    """
    engine = DataflowEngine(files, project)
    graph = project.imports
    cache.prune(files)
    report = DataflowReport(
        modules=len(graph.modules),
        fingerprint=dataflow_rules_fingerprint(),
    )
    digests = {rel_path: digest for rel_path, (_s, digest) in files.items()}
    aggregate: List[Finding] = []
    for module in sorted(graph.modules):
        rel_path = graph.modules[module]
        if rel_path not in files:
            continue
        dep_digest = engine.dependency_digest(module, digests)
        findings = cache.get_findings("dataflow_modules", rel_path, dep_digest)
        if findings is None:
            report.files_reanalyzed += 1
            with trace("dataflow.module", path=rel_path):
                raw, functions = engine.check_module(rel_path)
            report.functions_analyzed += functions
            findings, _suppressed = apply_pragmas(raw, files[rel_path][0])
            cache.put_findings("dataflow_modules", rel_path, dep_digest, findings)
        aggregate.extend(findings)
    report.findings = sorted(aggregate)
    report.cache_hits = cache.hits["dataflow_modules"]
    report.cache_misses = cache.misses["dataflow_modules"]
    return report


def find_function(
    files: Dict[str, Tuple[str, str]],
    name: str,
    source_roots: Tuple[str, ...] = ("src",),
) -> Optional[FunctionModel]:
    """Resolve ``--cfg FUNC`` to a function model.

    Accepts a fully-qualified name (``repro.lake.store.WeightStore.put``),
    a module-relative qualname (``WeightStore.put``), a bare function
    name — first match in sorted file order wins — or the unambiguous
    ``path/to/file.py:qualname`` form, which looks only in that file.
    """
    models = ModelIndex(files, source_roots)
    if ":" in name:
        # path:qualname pins the file, so same-named functions in other
        # modules can never shadow the one asked for.
        raw_path, _, qualname = name.rpartition(":")
        rel_path = raw_path.replace("\\", "/").lstrip("./")
        model = models.model(rel_path)
        if model is None or model.parse_error:
            return None
        for candidate in sorted(model.functions):
            fn = model.functions[candidate]
            if candidate == qualname or (
                candidate.rsplit(".", 1)[-1] == qualname
            ):
                return fn
        return None
    exact = models.function(name)
    if exact is not None:
        return exact
    for rel_path in sorted(files):
        model = models.model(rel_path)
        if model is None or model.parse_error:
            continue
        for qualname in sorted(model.functions):
            fn = model.functions[qualname]
            if qualname == name or qualname.rsplit(".", 1)[-1] == name:
                return fn
    return None
