"""Static analysis: AST-based enforcement of the repo's invariants.

The lake's guarantees — bit-reproducible generation, pickle-safe pool
tasks, structured observability — are source-level properties, so this
package checks them at the source level, before any test runs:

* :mod:`repro.analysis.core` — :class:`Finding`, :class:`Rule`, the
  pluggable rule registry;
* :mod:`repro.analysis.rules` — the built-in determinism, pool-safety,
  obs-convention, and API-hygiene rules;
* :mod:`repro.analysis.pragmas` — ``# repro: noqa[rule]`` line pragmas;
* :mod:`repro.analysis.baseline` — ``.repro-lint.json``, the justified-
  exception ledger;
* :mod:`repro.analysis.cache` — the one lint cache file: per-file
  findings keyed on content hash and rule-set fingerprint, and the
  whole-program phases' results keyed on dependency digests;
* :mod:`repro.analysis.graph` — the whole-program view: import/call
  graphs, the ``.repro-arch.toml`` layer contract, and interprocedural
  rules;
* :mod:`repro.analysis.dataflow` — CFGs, a fixpoint solver, taint, and
  the concurrency/resource-safety rule pack;
* :mod:`repro.analysis.runner` / :mod:`repro.analysis.report` — the
  sweep and its text/JSON rendering, surfaced as ``repro lint`` and
  ``repro graph``.
"""

from repro.analysis.baseline import Baseline, BaselineEntry, load_baseline
from repro.analysis.cache import LintCache
from repro.analysis.core import (
    FileContext,
    Finding,
    Rule,
    all_rules,
    get_rule,
    register,
    rule_names,
    rules_fingerprint,
)
from repro.analysis.report import render_json, render_text
from repro.analysis.runner import (
    LintConfig,
    LintResult,
    collect_sources,
    known_rule_names,
    lint_source,
    run_lint,
)

__all__ = [
    "Baseline",
    "BaselineEntry",
    "FileContext",
    "Finding",
    "LintCache",
    "LintConfig",
    "LintResult",
    "Rule",
    "all_rules",
    "collect_sources",
    "get_rule",
    "known_rule_names",
    "lint_source",
    "load_baseline",
    "register",
    "render_json",
    "render_text",
    "rule_names",
    "rules_fingerprint",
    "run_lint",
]
