"""The lint runner: walk files, run rules, suppress, summarize.

Per file the pipeline is: content hash -> cache probe -> (parse + run
every applicable rule) -> pragma filter -> cache store.  With graph
analysis enabled (``--graph``, implied by ``--strict``) a second phase
assembles the whole-program view and runs the interprocedural rules,
cached per dependency digest in the same lint cache.  Baseline
suppression and ``--select``/``--ignore`` scoping happen once at the
end, over the aggregate, so editing ``.repro-lint.json`` or narrowing a
CI run re-ranks results without invalidating the cache.

The runner is instrumented like every other subsystem: a ``lint.run``
span wraps the sweep, per-file work runs under ``lint.file`` spans, the
graph phase under a ``lint.graph`` span, and the registry counters
(files, cache hits/misses, findings, graph sizes) land in the same
metrics snapshot the CLI persists.
"""

from __future__ import annotations

import ast
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.baseline import (
    Baseline,
    BaselineEntry,
    DEFAULT_BASELINE_NAME,
    is_todo_reason,
    load_baseline,
    save_baseline,
    updated_entries,
)
from repro.analysis.cache import DEFAULT_CACHE_NAME, LintCache, content_digest
from repro.analysis.core import (
    FileContext,
    Finding,
    all_rules,
    rule_names,
    rules_fingerprint,
)
from repro.analysis.dataflow import analyze_dataflow, dataflow_rule_names
from repro.analysis.graph import (
    DEFAULT_CONTRACT_NAME,
    ProjectGraph,
    analyze_project,
    build_project,
    graph_rule_names,
    load_contract,
)
from repro.analysis.pragmas import apply_pragmas
from repro.errors import ConfigError
from repro.obs import metrics as obs_metrics
from repro.obs.instrument import (
    DATAFLOW_CACHE_HITS,
    DATAFLOW_CACHE_MISSES,
    DATAFLOW_FILES_REANALYZED,
    DATAFLOW_FINDINGS,
    DATAFLOW_FUNCTIONS,
    DATAFLOW_MODULES,
    DATAFLOW_RUN_SECONDS,
    GRAPH_BUILD_SECONDS,
    GRAPH_CACHE_HITS,
    GRAPH_CACHE_MISSES,
    GRAPH_EDGES,
    GRAPH_FILES_REANALYZED,
    GRAPH_FINDINGS,
    GRAPH_MODULES,
    LINT_CACHE_HITS,
    LINT_CACHE_MISSES,
    LINT_FILES,
    LINT_FINDINGS,
    LINT_RUN_SECONDS,
)
from repro.obs.logging import get_logger
from repro.obs.tracing import trace

__all__ = [
    "LintConfig",
    "LintResult",
    "run_lint",
    "lint_source",
    "known_rule_names",
    "collect_sources",
]

_log = get_logger("analysis.runner")

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules"}


def known_rule_names() -> List[str]:
    """Every rule id usable in pragmas, baselines, and filters."""
    return sorted(
        set(rule_names())
        | set(graph_rule_names())
        | set(dataflow_rule_names())
        | {"syntax-error"}
    )


@dataclass
class LintConfig:
    """One lint invocation's inputs."""

    paths: Sequence[str]
    root: str = "."
    baseline_path: Optional[str] = None  # default: <root>/.repro-lint.json
    cache_path: Optional[str] = None  # default: <root>/.repro-lint-cache.json
    use_cache: bool = True
    graph: bool = False  # run whole-program rules too
    dataflow: bool = False  # run the CFG/taint rule pack too
    arch_path: Optional[str] = None  # default: <root>/.repro-arch.toml
    select: Optional[Sequence[str]] = None  # keep only these rules
    ignore: Sequence[str] = ()  # drop these rules
    #: Rewrite the baseline ledger in place: drop entries stale for this
    #: run's active phases, add TODO-reason entries for new findings.
    baseline_update: bool = False

    def resolved_root(self) -> str:
        return os.path.abspath(self.root)

    def resolved_baseline(self) -> str:
        return self.baseline_path or os.path.join(
            self.resolved_root(), DEFAULT_BASELINE_NAME
        )

    def resolved_cache(self) -> Optional[str]:
        if not self.use_cache:
            return None
        return self.cache_path or os.path.join(
            self.resolved_root(), DEFAULT_CACHE_NAME
        )

    def resolved_arch(self) -> str:
        return self.arch_path or os.path.join(
            self.resolved_root(), DEFAULT_CONTRACT_NAME
        )

    def rule_filter(self) -> "RuleFilter":
        return RuleFilter(self.select, self.ignore)


class RuleFilter:
    """``--select`` / ``--ignore`` scoping, validated against known rules."""

    def __init__(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Sequence[str] = (),
    ):
        known = set(known_rule_names())
        self.select = frozenset(select) if select is not None else None
        self.ignore = frozenset(ignore)
        unknown = ((self.select or frozenset()) | self.ignore) - known
        if unknown:
            raise ConfigError(
                f"unknown rule name(s): {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(known))})"
            )

    def active(self, rule: str) -> bool:
        if self.select is not None and rule not in self.select:
            return False
        return rule not in self.ignore

    @property
    def is_noop(self) -> bool:
        return self.select is None and not self.ignore


@dataclass
class LintResult:
    """Everything a reporter needs about one sweep."""

    findings: List[Finding] = field(default_factory=list)
    baseline_suppressed: List[Finding] = field(default_factory=list)
    unused_baseline: List[BaselineEntry] = field(default_factory=list)
    files_scanned: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    elapsed_seconds: float = 0.0
    # -- graph phase (zeros when the phase did not run) ---------------
    graph_enabled: bool = False
    graph_modules: int = 0
    graph_edges: int = 0
    graph_cycles: int = 0
    graph_files_reanalyzed: int = 0
    graph_cache_hits: int = 0
    graph_cache_misses: int = 0
    graph_seconds: float = 0.0
    graph_fingerprint: str = ""
    # -- dataflow phase (zeros when the phase did not run) ------------
    dataflow_enabled: bool = False
    dataflow_modules: int = 0
    dataflow_functions: int = 0
    dataflow_files_reanalyzed: int = 0
    dataflow_cache_hits: int = 0
    dataflow_cache_misses: int = 0
    dataflow_seconds: float = 0.0
    dataflow_fingerprint: str = ""
    #: Baseline entries that matched findings but whose reason is still
    #: the ``--baseline-update`` placeholder — tracked debt, unjustified.
    todo_baseline: List[BaselineEntry] = field(default_factory=list)

    def exit_code(self, strict: bool = False) -> int:
        """0 clean; 1 when any finding survives.  Strict also fails on
        stale baseline entries and TODO-placeholder baseline reasons, so
        CI catches fixed-but-still-listed suppressions and ones nobody
        has justified yet."""
        if self.findings:
            return 1
        if strict and (self.unused_baseline or self.todo_baseline):
            return 1
        return 0


def _iter_python_files(root: str, paths: Sequence[str]) -> List[str]:
    """Absolute paths of every ``.py`` under ``paths`` (files or trees)."""
    collected: List[str] = []
    for raw in paths:
        target = raw if os.path.isabs(raw) else os.path.join(root, raw)
        if os.path.isfile(target):
            collected.append(os.path.abspath(target))
            continue
        if not os.path.isdir(target):
            raise ConfigError(f"lint path does not exist: {raw}")
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in _SKIP_DIRS and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    collected.append(
                        os.path.abspath(os.path.join(dirpath, filename))
                    )
    # De-duplicate while preserving deterministic order.
    return sorted(dict.fromkeys(collected))


def collect_sources(
    root: str, paths: Sequence[str]
) -> Dict[str, Tuple[str, str]]:
    """rel_path -> (source, content_digest) for every file in the sweep."""
    sources: Dict[str, Tuple[str, str]] = {}
    for abs_path in _iter_python_files(root, paths):
        rel_path = os.path.relpath(abs_path, root).replace(os.sep, "/")
        with open(abs_path, encoding="utf-8") as handle:
            source = handle.read()
        sources[rel_path] = (source, content_digest(source))
    return sources


def lint_source(source: str, rel_path: str) -> List[Finding]:
    """Lint one in-memory file; the unit the runner (and tests) build on.

    Returns post-pragma findings sorted by position.  A syntax error
    becomes a single ``syntax-error`` finding rather than an exception,
    so one broken file cannot hide the rest of the sweep.
    """
    try:
        tree = ast.parse(source, filename=rel_path)
    except SyntaxError as error:
        return [
            Finding(
                path=rel_path,
                line=error.lineno or 1,
                col=error.offset or 0,
                rule="syntax-error",
                message=f"file does not parse: {error.msg}",
            )
        ]
    ctx = FileContext(rel_path=rel_path, source=source, tree=tree)
    raw: List[Finding] = []
    for rule in all_rules():
        if rule.applies_to(ctx):
            raw.extend(rule.check(ctx))
    kept, _suppressed = apply_pragmas(raw, source)
    return sorted(kept)


def _run_graph_phase(
    sources: Dict[str, Tuple[str, str]],
    result: LintResult,
    project: "ProjectGraph",
    cache: LintCache,
) -> List[Finding]:
    """Whole-program phase: run the interprocedural graph rules."""
    contract = project.contract
    started = time.perf_counter()
    with trace("lint.graph", files=len(sources)):
        report = analyze_project(sources, contract, cache, project=project)
    result.graph_enabled = True
    result.graph_modules = report.modules
    result.graph_edges = report.all_edges
    result.graph_cycles = report.cycles
    result.graph_files_reanalyzed = report.files_reanalyzed
    result.graph_cache_hits = report.cache_hits
    result.graph_cache_misses = report.cache_misses
    result.graph_seconds = time.perf_counter() - started
    result.graph_fingerprint = report.fingerprint
    obs_metrics.inc(GRAPH_MODULES, report.modules)
    obs_metrics.inc(GRAPH_EDGES, report.all_edges)
    obs_metrics.inc(GRAPH_FILES_REANALYZED, report.files_reanalyzed)
    obs_metrics.inc(GRAPH_CACHE_HITS, report.cache_hits)
    obs_metrics.inc(GRAPH_CACHE_MISSES, report.cache_misses)
    obs_metrics.inc(GRAPH_FINDINGS, len(report.findings))
    obs_metrics.observe(GRAPH_BUILD_SECONDS, result.graph_seconds)
    return report.findings


def _run_dataflow_phase(
    sources: Dict[str, Tuple[str, str]],
    result: LintResult,
    project: "ProjectGraph",
    cache: LintCache,
) -> List[Finding]:
    """CFG/taint phase: run the dataflow rule pack incrementally."""
    started = time.perf_counter()
    with trace("lint.dataflow", files=len(sources)):
        report = analyze_dataflow(sources, project, cache)
    result.dataflow_enabled = True
    result.dataflow_modules = report.modules
    result.dataflow_functions = report.functions_analyzed
    result.dataflow_files_reanalyzed = report.files_reanalyzed
    result.dataflow_cache_hits = report.cache_hits
    result.dataflow_cache_misses = report.cache_misses
    result.dataflow_seconds = time.perf_counter() - started
    result.dataflow_fingerprint = report.fingerprint
    obs_metrics.inc(DATAFLOW_MODULES, report.modules)
    obs_metrics.inc(DATAFLOW_FUNCTIONS, report.functions_analyzed)
    obs_metrics.inc(DATAFLOW_FILES_REANALYZED, report.files_reanalyzed)
    obs_metrics.inc(DATAFLOW_CACHE_HITS, report.cache_hits)
    obs_metrics.inc(DATAFLOW_CACHE_MISSES, report.cache_misses)
    obs_metrics.inc(DATAFLOW_FINDINGS, len(report.findings))
    obs_metrics.observe(DATAFLOW_RUN_SECONDS, result.dataflow_seconds)
    return report.findings


def run_lint(config: LintConfig) -> LintResult:
    """Lint every file under ``config.paths``; apply caches and baseline."""
    start = time.perf_counter()
    root = config.resolved_root()
    rule_filter = config.rule_filter()
    baseline = load_baseline(config.resolved_baseline())
    cache = LintCache(config.resolved_cache())
    fingerprint = rules_fingerprint()
    result = LintResult()
    aggregate: List[Finding] = []
    with trace("lint.run", root=root, paths=len(config.paths)):
        sources = collect_sources(root, config.paths)
        for rel_path, (source, digest) in sources.items():
            stamp = f"{fingerprint}:{digest}"
            findings = cache.get_findings("files", rel_path, stamp)
            if findings is None:
                with trace("lint.file", path=rel_path):
                    findings = lint_source(source, rel_path)
                cache.put_findings("files", rel_path, stamp, findings)
            aggregate.extend(findings)
            result.files_scanned += 1
        if config.graph or config.dataflow:
            # Both whole-program phases read the same built project;
            # assemble it once (extraction goes through the cache).
            contract = load_contract(config.resolved_arch())
            project = build_project(sources, contract, cache)
            if config.graph:
                aggregate.extend(
                    _run_graph_phase(sources, result, project, cache)
                )
            if config.dataflow:
                aggregate.extend(
                    _run_dataflow_phase(sources, result, project, cache)
                )
        cache.save()
    if not rule_filter.is_noop:
        aggregate = [f for f in aggregate if rule_filter.active(f.rule)]
    # Baseline-exempt rules bypass the suppression ledger entirely:
    # their findings always surface, and a ledger entry naming one can
    # never match (it will show up as stale under --strict).
    exempt_rules = {
        rule.name for rule in all_rules() if rule.baseline_exempt
    }
    aggregate = sorted(aggregate)
    exempt = [f for f in aggregate if f.rule in exempt_rules]
    nonexempt = [f for f in aggregate if f.rule not in exempt_rules]
    # Entries for rules outside the filter — or whose whole phase was
    # skipped this run — never had a chance to match; reporting them as
    # stale (or dropping them on --baseline-update) would be wrong.
    skipped_rules: set = set()
    if not config.graph:
        skipped_rules |= set(graph_rule_names())
    if not config.dataflow:
        skipped_rules |= set(dataflow_rule_names())

    def _actionable(entries: List[BaselineEntry]) -> List[BaselineEntry]:
        return [
            entry
            for entry in entries
            if rule_filter.active(entry.rule)
            and entry.rule not in skipped_rules
        ]

    kept, suppressed, unused = baseline.apply(nonexempt)
    unused = _actionable(unused)
    if config.baseline_update:
        # Rewrite the ledger: stale (actionable) entries out, fresh
        # findings in with a TODO reason --strict still rejects.  Then
        # re-apply so the result reflects the ledger now on disk.
        entries = updated_entries(baseline, unused, kept)
        save_baseline(config.resolved_baseline(), entries)
        baseline = Baseline(entries)
        kept, suppressed, unused = baseline.apply(nonexempt)
        unused = _actionable(unused)
    kept = sorted(kept + exempt)
    matched = _actionable(
        [entry for entry in baseline.entries if entry not in set(unused)]
    )
    result.todo_baseline = sorted(
        (entry for entry in matched if is_todo_reason(entry.reason)),
        key=lambda e: (e.rule, e.path),
    )
    result.findings = kept
    result.baseline_suppressed = suppressed
    result.unused_baseline = unused
    result.cache_hits = cache.hits["files"]
    result.cache_misses = cache.misses["files"]
    result.elapsed_seconds = time.perf_counter() - start
    obs_metrics.inc(LINT_FILES, result.files_scanned)
    obs_metrics.inc(LINT_CACHE_HITS, result.cache_hits)
    obs_metrics.inc(LINT_CACHE_MISSES, result.cache_misses)
    obs_metrics.inc(LINT_FINDINGS, len(kept))
    obs_metrics.observe(LINT_RUN_SECONDS, result.elapsed_seconds)
    _log.info(
        "lint.completed",
        files=result.files_scanned,
        findings=len(kept),
        cache_hits=result.cache_hits,
        cache_misses=result.cache_misses,
        graph=result.graph_enabled,
        graph_reanalyzed=result.graph_files_reanalyzed,
        dataflow=result.dataflow_enabled,
        dataflow_reanalyzed=result.dataflow_files_reanalyzed,
        seconds=round(result.elapsed_seconds, 4),
    )
    return result
