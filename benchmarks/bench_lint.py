"""Static-analysis benchmark: full-tree lint latency, cold vs. cached.

Lint sits on the critical path of every CI run and (via ``repro lint``)
of the edit loop, so it has a latency budget: a full sweep of ``src``,
``tests``, and ``benchmarks`` must finish in under ``BUDGET_SECONDS``
even cold, and the content-hash cache must make warm runs dramatically
cheaper.

Usage::

    python benchmarks/bench_lint.py            # report cold/warm timings
    python benchmarks/bench_lint.py --smoke    # CI gate, exits non-zero on
                                               # budget overrun or cold cache
    python benchmarks/bench_lint.py --graph    # whole-program phase instead:
                                               # cold build budget + the
                                               # incremental-invalidation proof

``--smoke`` runs the sweep twice against a throwaway cache file: the
first pass must be all cache misses and beat the budget; the second
must be all cache hits, strictly faster, and byte-identical in its
findings — which is what proves the cache layer is both exercised and
correct.

``--graph`` exercises the graph phase's dependency-aware cache entries
the same way:
a cold full-tree graph build must beat ``GRAPH_BUDGET_SECONDS``, a warm
rerun must replay every module from cache, and after a single-file edit
the re-analyzed set must be exactly the edited file plus its
reverse-import closure — no more (the cache works) and no less (the
cache is sound).

The dataflow phase gets the same cold/warm/one-edit proof from the
``lint.dataflow`` benchmark of ``python -m repro bench``, which also
records it on the perf trajectory.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis import LintConfig, collect_sources, run_lint  # noqa: E402
from repro.analysis.cache import LintCache, content_digest  # noqa: E402
from repro.analysis.graph import (  # noqa: E402
    analyze_project,
    build_project,
    load_contract,
    module_name_for,
)

LINT_PATHS = ["src", "tests", "benchmarks"]
BUDGET_SECONDS = 5.0
GRAPH_BUDGET_SECONDS = 2.0

#: The file the incremental proof edits: inside the analysis subsystem,
#: so its reverse-import closure is a real, nontrivial, strict subset of
#: the tree.
EDIT_TARGET = "src/repro/analysis/pragmas.py"


def timed_sweep(cache_path: str) -> tuple:
    config = LintConfig(paths=LINT_PATHS, root=REPO_ROOT, cache_path=cache_path)
    start = time.perf_counter()
    result = run_lint(config)
    return result, time.perf_counter() - start


def run(smoke: bool) -> int:
    with tempfile.TemporaryDirectory(prefix="bench-lint-") as scratch:
        cache_path = os.path.join(scratch, "lint-cache.json")
        cold, cold_seconds = timed_sweep(cache_path)
        warm, warm_seconds = timed_sweep(cache_path)

    speedup = cold_seconds / warm_seconds if warm_seconds > 0 else float("inf")
    print(
        f"[bench_lint] files={cold.files_scanned} "
        f"findings={len(cold.findings)} baselined={len(cold.baseline_suppressed)}"
    )
    print(
        f"[bench_lint] cold={cold_seconds:.3f}s "
        f"(hits={cold.cache_hits} misses={cold.cache_misses})  "
        f"warm={warm_seconds:.3f}s "
        f"(hits={warm.cache_hits} misses={warm.cache_misses})  "
        f"speedup={speedup:.1f}x  budget={BUDGET_SECONDS:.0f}s"
    )

    failures = []
    if cold_seconds >= BUDGET_SECONDS:
        failures.append(
            f"cold full-tree lint took {cold_seconds:.3f}s "
            f">= budget {BUDGET_SECONDS}s"
        )
    if cold.cache_hits != 0 or cold.cache_misses != cold.files_scanned:
        failures.append("first sweep should miss the cache for every file")
    if warm.cache_misses != 0 or warm.cache_hits != warm.files_scanned:
        failures.append("second sweep should hit the cache for every file")
    if warm_seconds >= cold_seconds:
        failures.append("cached sweep was not faster than the cold sweep")
    if warm.findings != cold.findings:
        failures.append("cached findings diverged from cold findings")
    if smoke and cold.exit_code(strict=True) != 0:
        failures.append("tree is not lint-clean in strict mode")

    for failure in failures:
        print(f"[bench_lint] FAIL: {failure}")
    if not failures:
        print("[bench_lint] OK")
    return 1 if failures else 0


def run_graph() -> int:
    sources = collect_sources(REPO_ROOT, LINT_PATHS)
    contract = load_contract(os.path.join(REPO_ROOT, ".repro-arch.toml"))
    with tempfile.TemporaryDirectory(prefix="bench-graph-") as scratch:
        cache_path = os.path.join(scratch, "graph-cache.json")

        def sweep(files):
            cache = LintCache(cache_path)
            start = time.perf_counter()
            report = analyze_project(files, contract, cache)
            elapsed = time.perf_counter() - start
            cache.save()
            return report, elapsed

        cold, cold_seconds = sweep(sources)
        warm, warm_seconds = sweep(sources)
        edited = dict(sources)
        new_source = edited[EDIT_TARGET][0] + "\n# bench edit\n"
        edited[EDIT_TARGET] = (new_source, content_digest(new_source))
        incremental, incremental_seconds = sweep(edited)

    source_roots = contract.source_roots if contract is not None else ("src",)
    edited_module = module_name_for(EDIT_TARGET, source_roots)
    closure = build_project(edited, contract).imports.reverse_closure(
        edited_module
    )

    print(
        f"[bench_lint --graph] modules={cold.modules} edges={cold.all_edges} "
        f"cycles={cold.cycles} findings={len(cold.findings)}"
    )
    print(
        f"[bench_lint --graph] cold={cold_seconds:.3f}s "
        f"(budget={GRAPH_BUDGET_SECONDS:.0f}s)  warm={warm_seconds:.3f}s "
        f"(re-analyzed={warm.files_reanalyzed})  "
        f"edit {EDIT_TARGET}: re-analyzed={incremental.files_reanalyzed} "
        f"expected={len(closure)} in {incremental_seconds:.3f}s"
    )

    failures = []
    if cold_seconds >= GRAPH_BUDGET_SECONDS:
        failures.append(
            f"cold full-tree graph build took {cold_seconds:.3f}s "
            f">= budget {GRAPH_BUDGET_SECONDS}s"
        )
    if cold.files_reanalyzed != cold.modules:
        failures.append("first build should analyze every module")
    if warm.files_reanalyzed != 0:
        failures.append(
            f"warm rerun re-analyzed {warm.files_reanalyzed} modules; "
            "an unchanged tree must replay entirely from cache"
        )
    if incremental.files_reanalyzed != len(closure):
        failures.append(
            f"one-file edit re-analyzed {incremental.files_reanalyzed} "
            f"modules, expected exactly the file plus its reverse-import "
            f"closure ({len(closure)})"
        )
    if not (0 < len(closure) < cold.modules):
        failures.append(
            "edit target's reverse closure should be a nonempty strict "
            "subset of the tree; pick a different EDIT_TARGET"
        )
    if incremental.findings != cold.findings:
        failures.append("comment-only edit changed the graph findings")

    for failure in failures:
        print(f"[bench_lint --graph] FAIL: {failure}")
    if not failures:
        print("[bench_lint --graph] OK")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke", action="store_true",
        help="CI gate: also require a strict-clean tree",
    )
    parser.add_argument(
        "--graph", action="store_true",
        help="benchmark the whole-program graph phase instead",
    )
    args = parser.parse_args()
    if args.graph:
        return run_graph()
    return run(smoke=args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
