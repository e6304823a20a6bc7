"""Rendering of lint results: human text and stable machine JSON.

The JSON form is byte-stable for a given tree + rule set (findings are
position-sorted, keys are sorted, no timestamps), so CI can diff two
reports and tooling can cache on them.
"""

from __future__ import annotations

import json
from typing import Dict, List

from repro.analysis.runner import LintResult

__all__ = ["render_text", "render_json"]

_REPORT_VERSION = 1


def render_text(result: LintResult, verbose: bool = False) -> str:
    """One ``path:line:col [rule] message`` line per finding + summary."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.location()}: [{finding.rule}] {finding.message}"
        )
    for entry in result.unused_baseline:
        lines.append(
            f"{entry.path}: [baseline] stale suppression for "
            f"{entry.rule!r} matches nothing (reason was: {entry.reason})"
        )
    for entry in result.todo_baseline:
        lines.append(
            f"{entry.path}: [baseline] suppression for {entry.rule!r} "
            f"still has a placeholder reason ({entry.reason}); justify "
            "it or fix the finding"
        )
    if verbose:
        for finding in result.baseline_suppressed:
            lines.append(
                f"{finding.location()}: [{finding.rule}] suppressed by baseline"
            )
    lines.append(
        f"{result.files_scanned} files, "
        f"{len(result.findings)} errors, "
        f"{len(result.baseline_suppressed)} baselined, "
        f"{len(result.unused_baseline)} stale baseline entries "
        f"(cache {result.cache_hits} hits / {result.cache_misses} misses, "
        f"{result.elapsed_seconds:.2f}s)"
    )
    if result.todo_baseline:
        lines.append(
            f"baseline: {len(result.todo_baseline)} entr"
            f"{'y' if len(result.todo_baseline) == 1 else 'ies'} awaiting "
            "a reason (strict runs fail until justified)"
        )
    if result.graph_enabled:
        lines.append(
            f"graph: {result.graph_modules} modules, "
            f"{result.graph_edges} edges, {result.graph_cycles} cycles, "
            f"{result.graph_files_reanalyzed} re-analyzed "
            f"(cache {result.graph_cache_hits} hits / "
            f"{result.graph_cache_misses} misses, "
            f"{result.graph_seconds:.2f}s)"
        )
    if result.dataflow_enabled:
        lines.append(
            f"dataflow: {result.dataflow_modules} modules, "
            f"{result.dataflow_functions} functions, "
            f"{result.dataflow_files_reanalyzed} re-analyzed "
            f"(cache {result.dataflow_cache_hits} hits / "
            f"{result.dataflow_cache_misses} misses, "
            f"{result.dataflow_seconds:.2f}s)"
        )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Stable JSON document describing the sweep."""
    payload: Dict[str, object] = {
        "version": _REPORT_VERSION,
        "findings": [finding.to_dict() for finding in result.findings],
        "baseline_suppressed": [
            finding.to_dict() for finding in result.baseline_suppressed
        ],
        "unused_baseline": [
            entry.to_dict() for entry in result.unused_baseline
        ],
        "todo_baseline": [
            entry.to_dict() for entry in result.todo_baseline
        ],
        "summary": {
            "files_scanned": result.files_scanned,
            "errors": len(result.findings),
            "baseline_suppressed": len(result.baseline_suppressed),
            "unused_baseline": len(result.unused_baseline),
            "todo_baseline": len(result.todo_baseline),
            "cache_hits": result.cache_hits,
            "cache_misses": result.cache_misses,
        },
    }
    if result.graph_enabled:
        payload["graph"] = {
            "modules": result.graph_modules,
            "edges": result.graph_edges,
            "cycles": result.graph_cycles,
            "files_reanalyzed": result.graph_files_reanalyzed,
            "cache_hits": result.graph_cache_hits,
            "cache_misses": result.graph_cache_misses,
            "fingerprint": result.graph_fingerprint,
        }
    if result.dataflow_enabled:
        payload["dataflow"] = {
            "modules": result.dataflow_modules,
            "functions": result.dataflow_functions,
            "files_reanalyzed": result.dataflow_files_reanalyzed,
            "cache_hits": result.dataflow_cache_hits,
            "cache_misses": result.dataflow_cache_misses,
            "fingerprint": result.dataflow_fingerprint,
        }
    return json.dumps(payload, indent=2, sort_keys=True)
