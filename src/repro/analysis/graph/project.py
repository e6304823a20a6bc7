"""Assembly and incremental evaluation of the whole-program view.

:class:`ProjectGraph` bundles what every graph rule reads: the import
graph, the call graph, and the layer contract.  :func:`analyze_project`
drives one incremental evaluation — extraction (cached per content
digest), graph assembly (always, it is cheap pure-Python over facts),
then rule evaluation cached per dependency digest so that an edit
re-analyzes only the edited file plus its reverse-import closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import PROJECT_KEY, LintCache
from repro.analysis.core import Finding
from repro.analysis.graph.callgraph import CallGraph
from repro.analysis.graph.contract import LayerContract
from repro.analysis.graph.extract import (
    EXTRACT_VERSION,
    ModuleFacts,
    extract_facts,
)
from repro.analysis.graph.imports import ImportGraph
from repro.analysis.graph.rules import (
    all_graph_rules,
    graph_rules_fingerprint,
)
from repro.analysis.pragmas import apply_pragmas
from repro.utils.hashing import stable_hash

__all__ = ["ProjectGraph", "GraphReport", "build_project", "analyze_project"]


class ProjectGraph:
    """Everything a graph rule may inspect."""

    def __init__(
        self,
        facts: Dict[str, ModuleFacts],
        contract: Optional[LayerContract],
        source_roots: Tuple[str, ...] = ("src",),
    ):
        self.imports = ImportGraph(facts)
        self.calls = CallGraph(self.imports)
        self.contract = contract
        self.source_roots = source_roots


@dataclass
class GraphReport:
    """One incremental whole-program evaluation."""

    findings: List[Finding] = field(default_factory=list)
    modules: int = 0
    top_edges: int = 0
    all_edges: int = 0
    cycles: int = 0
    files_reanalyzed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    fingerprint: str = ""


def build_project(
    files: Dict[str, Tuple[str, str]],
    contract: Optional[LayerContract],
    cache: Optional[LintCache] = None,
) -> ProjectGraph:
    """Extract facts (through ``cache`` when given) and assemble graphs.

    ``files`` maps rel_path -> (source, content_digest).
    """
    source_roots = contract.source_roots if contract is not None else ("src",)
    facts: Dict[str, ModuleFacts] = {}
    for rel_path in sorted(files):
        source, digest = files[rel_path]
        stamp = f"{EXTRACT_VERSION}:{digest}"
        raw = (
            cache.get("extractions", rel_path, stamp)
            if cache is not None else None
        )
        if raw is not None:
            file_facts = ModuleFacts.from_dict(raw)  # type: ignore[arg-type]
        else:
            file_facts = extract_facts(rel_path, source, source_roots)
            if cache is not None:
                cache.put("extractions", rel_path, stamp, file_facts.to_dict())
        facts[rel_path] = file_facts
    return ProjectGraph(facts, contract, source_roots)


def _dependency_digest(
    project: ProjectGraph,
    module: str,
    digests: Dict[str, str],
    contract_digest: str,
    rules_fp: str,
) -> str:
    """Fingerprint of everything a module's module-scope findings read."""
    graph = project.imports
    closure_files = sorted(
        (graph.modules[dep], digests[graph.modules[dep]])
        for dep in graph.forward_closure(module)
        if graph.modules[dep] in digests
    )
    return stable_hash(
        {
            "deps": closure_files,
            "contract": contract_digest,
            "rules": rules_fp,
            "extract": EXTRACT_VERSION,
        }
    )


def analyze_project(
    files: Dict[str, Tuple[str, str]],
    contract: Optional[LayerContract],
    cache: LintCache,
    project: Optional[ProjectGraph] = None,
) -> GraphReport:
    """Run every graph rule incrementally over ``files``.

    Returns post-pragma, pre-baseline findings plus cache accounting:
    ``files_reanalyzed`` counts the modules whose rule evaluation could
    not be replayed from cache — after a one-file edit that is exactly
    the file plus its reverse-import closure.  A prebuilt ``project``
    (shared with the dataflow phase) skips re-assembly.
    """
    if project is None:
        project = build_project(files, contract, cache)
    graph = project.imports
    cache.prune(files)
    report = GraphReport(
        modules=len(graph.modules),
        top_edges=sum(len(targets) for targets in graph.edges.values()),
        all_edges=sum(len(targets) for targets in graph.all_edges.values()),
        cycles=len(graph.cycles()),
        fingerprint=graph.fingerprint(),
    )
    digests = {rel_path: digest for rel_path, (_s, digest) in files.items()}
    contract_digest = contract.digest() if contract is not None else "none"
    rules_fp = graph_rules_fingerprint()
    module_rules = [rule for rule in all_graph_rules() if rule.scope == "module"]
    project_rules = [
        rule for rule in all_graph_rules() if rule.scope == "project"
    ]
    aggregate: List[Finding] = []
    for module in sorted(graph.modules):
        rel_path = graph.modules[module]
        dep_digest = _dependency_digest(
            project, module, digests, contract_digest, rules_fp
        )
        findings = cache.get_findings("graph_modules", rel_path, dep_digest)
        if findings is None:
            report.files_reanalyzed += 1
            raw: List[Finding] = []
            for rule in module_rules:
                raw.extend(rule.check_module(project, module))
            findings, _suppressed = apply_pragmas(
                sorted(raw), files[rel_path][0]
            )
            cache.put_findings("graph_modules", rel_path, dep_digest, findings)
        aggregate.extend(findings)
    project_key = stable_hash(
        {
            "files": sorted(digests.items()),
            "contract": contract_digest,
            "rules": rules_fp,
            "extract": EXTRACT_VERSION,
        }
    )
    project_findings = cache.get_findings("project", PROJECT_KEY, project_key)
    if project_findings is None:
        raw = []
        for rule in project_rules:
            raw.extend(rule.check_project(project))
        by_file: Dict[str, List[Finding]] = {}
        for finding in raw:
            by_file.setdefault(finding.path, []).append(finding)
        project_findings = []
        for rel_path, file_findings in sorted(by_file.items()):
            kept, _suppressed = apply_pragmas(
                sorted(file_findings), files[rel_path][0]
            )
            project_findings.extend(kept)
        cache.put_findings("project", PROJECT_KEY, project_key, project_findings)
    aggregate.extend(project_findings)
    report.findings = sorted(aggregate)
    report.cache_hits = cache.hits["graph_modules"]
    report.cache_misses = cache.misses["graph_modules"]
    return report
