"""Command-line interface: operate a model lake from the shell.

Subcommands::

    python -m repro generate --dir LAKE_DIR [--seed N] [--resume] [--shard] ...
    python -m repro fsck     LAKE_DIR [--repair] [--workers N] [--json]
    python -m repro migrate  --dir LAKE_DIR [--shard | --flat]
    python -m repro stats    --dir LAKE_DIR [--json]
    python -m repro search   --dir LAKE_DIR --query TEXT [--method M] [-k N]
    python -m repro query    --dir LAKE_DIR --q "FIND MODELS WHERE ..."
    python -m repro audit    --dir LAKE_DIR --model NAME_OR_ID
    python -m repro cite     --dir LAKE_DIR --model NAME_OR_ID
    python -m repro card     --dir LAKE_DIR --model NAME_OR_ID
    python -m repro metrics  --dir LAKE_DIR [--json] [--top N]
    python -m repro trace    report FILE [--top N] [--flame FILE] [--json]
    python -m repro bench    [--smoke] [--select NAMES] [--check]
                             [--results DIR] [--no-record] [--json]
    python -m repro lint     [PATHS ...] [--strict] [--graph] [--dataflow]
                             [--json] [--select RULES] [--ignore RULES]
                             [--explain [RULE]] [--baseline-update]
    python -m repro graph    [PATHS ...] [--dot | --json] [--out FILE]
                             [--cfg FUNC | --cfg path.py:FUNC]

Global flags (before the subcommand)::

    --trace FILE      export hierarchical spans of this run as JSONL
    --profile         add CPU time + peak allocations to every span
    --log-level LVL   structured-log verbosity (default WARNING)

Every lake-directory command leaves its metrics snapshot at
``LAKE_DIR/metrics.json``; ``repro metrics`` prints the snapshot of the
last run against that lake (counters, gauges, latency percentiles).

Lakes are persisted with :mod:`repro.lake.persist`, so a lake generated
once can be searched, audited, and cited across invocations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict
from typing import Callable, List, Optional

from repro.core.audit import ModelAuditor
from repro.core.citation import cite_model
from repro.core.docgen import CardGenerator
from repro.core.search import SearchEngine, execute_query
from repro.data.probes import make_text_probes
from repro.errors import AmbiguousModelNameError, ModelNotFoundError, ReproError
from repro.lake import LakeSpec, load_lake, migrate_lake
from repro.lake.generator import LakeGenerator
from repro.lake.stats import compute_statistics
from repro.obs import JSONLExporter, get_registry, trace, tracing
from repro.obs import logging as obs_logging
from repro.reliability.atomic import atomic_write_json
from repro.reliability.fsck import fsck_lake

_METRICS_FILE = "metrics.json"


def _resolve(lake, name_or_id: str) -> str:
    if name_or_id in lake:
        return name_or_id
    matches = lake.find_by_name(name_or_id)
    if len(matches) == 1:
        return matches[0].model_id
    if len(matches) > 1:
        raise AmbiguousModelNameError(
            name_or_id, [record.model_id for record in matches]
        )
    raise ModelNotFoundError(name_or_id)


def _emit(payload, as_json: bool, render: Callable[[], str]) -> None:
    """Shared ``--json`` helper: machine-readable or human rendering."""
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        print(render())


def _persist_metrics(directory: Optional[str], command: str) -> None:
    """Write this run's metrics snapshot next to the lake it touched."""
    if not directory or not os.path.isdir(directory):
        return
    payload = {
        "command": command,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "metrics": get_registry().snapshot(),
    }
    atomic_write_json(
        os.path.join(directory, _METRICS_FILE), payload,
        indent=1, sort_keys=True, default=str,
    )


def _cache_dir(lake_dir: str) -> str:
    """Embedding-cache location for a persisted lake."""
    return os.path.join(lake_dir, "cache")


def _cmd_generate(args) -> int:
    spec = LakeSpec(
        num_foundations=args.foundations,
        chains_per_foundation=args.chains,
        max_chain_depth=args.depth,
        docs_per_domain=args.docs,
        seed=args.seed,
        num_lm_foundations=args.lm_foundations,
        opaque_names=args.opaque_names,
        workers=args.workers,
    )
    print(
        f"generating lake (seed={args.seed}, workers={args.workers}"
        f"{', resuming' if args.resume else ''}) ...",
        file=sys.stderr,
    )
    # Waves checkpoint into the lake directory as they complete; a run
    # killed mid-wave continues with --resume instead of retraining.
    generator = LakeGenerator(
        spec,
        checkpoint_dir=os.path.join(args.dir, ".checkpoint"),
        resume=args.resume,
    )
    bundle = generator.generate()
    bundle.save(args.dir, sharded=True if args.shard else None)
    # Only now is the lake durable; a crash during save_lake above would
    # still have been resumable from the retained checkpoints.
    generator.clear_checkpoint()
    print(f"saved {bundle.num_models} models to {args.dir}")
    print(compute_statistics(bundle.lake).to_text())
    return 0


def _cmd_migrate(args) -> int:
    sharded = None
    if args.shard:
        sharded = True
    elif args.flat:
        sharded = False
    summary = migrate_lake(args.dir, sharded=sharded)
    layout = summary["to_layout"]
    placement = (
        f"sharded (prefix_len={layout['prefix_len']})"
        if layout["sharded"] else "flat"
    )
    print(
        f"migrated {summary['models']} model(s) in {args.dir} to "
        f"{placement} layout; removed {summary['removed_files']} "
        f"stale file(s)"
    )
    return 0


def _cmd_fsck(args) -> int:
    try:
        report = fsck_lake(args.dir, repair=args.repair, workers=args.workers)
    except FileNotFoundError as error:
        # fsck deliberately avoids the lake loader, so the missing-dir
        # error arrives as OSError rather than a ReproError; map it onto
        # the CLI's uniform error surface.
        print(f"error: {error}", file=sys.stderr)
        return 2
    _emit(report.to_json_payload(), args.json, report.to_text)
    return report.exit_code()


def _cmd_stats(args) -> int:
    lake = load_lake(args.dir)
    statistics = compute_statistics(lake)
    _emit(asdict(statistics), args.json, statistics.to_text)
    return 0


def _cmd_search(args) -> int:
    lake = load_lake(args.dir)
    engine = SearchEngine(lake, make_text_probes(), cache_dir=_cache_dir(args.dir))
    hits = engine.search(args.query, k=args.k, method=args.method)
    if not hits:
        print("no results")
        return 1
    for rank, hit in enumerate(hits, start=1):
        record = lake.get_record(hit.model_id)
        print(f"{rank:>2}. {record.name:<44} {hit.score:.3f}  [{hit.model_id}]")
    return 0


def _cmd_query(args) -> int:
    lake = load_lake(args.dir)
    engine = SearchEngine(lake, make_text_probes(), cache_dir=_cache_dir(args.dir))
    hits = execute_query(engine, args.q)
    for rank, hit in enumerate(hits, start=1):
        record = lake.get_record(hit.model_id)
        print(f"{rank:>2}. {record.name:<44} {hit.score:.3f}  [{hit.model_id}]")
    return 0 if hits else 1


def _cmd_serve(args) -> int:
    from repro.serve import ServeConfig, run_server

    config = ServeConfig(
        directory=args.dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_batch=args.max_batch,
    )

    def banner(server) -> None:
        print(
            f"serving {args.dir} on http://{config.host}:{server.port} "
            f"(models={len(server.snapshot.lake)}, workers={config.workers})",
            flush=True,
        )

    return run_server(config, ready=banner)


def _cmd_audit(args) -> int:
    lake = load_lake(args.dir)
    model_id = _resolve(lake, args.model)
    generator = CardGenerator(lake, make_text_probes())
    report = ModelAuditor(lake, generator).audit(model_id)
    print(report.to_text())
    return 0 if report.compliance_rate >= 0.6 else 1


def _cmd_cite(args) -> int:
    lake = load_lake(args.dir)
    model_id = _resolve(lake, args.model)
    citation = cite_model(lake, model_id)
    print(citation.key())
    print(citation.to_bibtex())
    return 0


def _cmd_card(args) -> int:
    lake = load_lake(args.dir)
    model_id = _resolve(lake, args.model)
    print(lake.get_record(model_id).card.to_markdown())
    return 0


def _render_metrics(payload: dict) -> str:
    metrics = payload.get("metrics", {})
    lines = [
        f"last command:         {payload.get('command', '?')} "
        f"({payload.get('written_at', 'unknown time')})",
    ]
    counters = metrics.get("counters", {})
    if counters:
        lines.append("counters:")
        lines.extend(
            f"  {name:<44} {value}" for name, value in sorted(counters.items())
        )
    gauges = metrics.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        lines.extend(
            f"  {name:<44} {value:.6g}" for name, value in sorted(gauges.items())
        )
    histograms = metrics.get("histograms", {})
    if histograms:
        lines.append("histograms (count | mean | p50 | p90 | p99):")
        for name, summary in sorted(histograms.items()):
            cells = " | ".join(
                "-" if summary.get(key) is None else f"{summary[key]:.6g}"
                for key in ("mean", "p50", "p90", "p99")
            )
            lines.append(f"  {name:<44} {summary.get('count', 0)} | {cells}")
    if len(lines) == 1:
        lines.append("no metrics recorded")
    return "\n".join(lines)


def _render_top_operations(payload: dict, top: int) -> str:
    """The N slowest operations by p99, straight from the histograms."""
    histograms = payload.get("metrics", {}).get("histograms", {})
    rows = [
        (name, summary)
        for name, summary in histograms.items()
        if summary.get("p99") is not None
    ]
    if not rows:
        return "no latency histograms recorded"
    rows.sort(key=lambda item: item[1]["p99"], reverse=True)
    lines = [
        f"slowest operations (top {min(top, len(rows))} of {len(rows)} by p99):",
        f"  {'operation':<44} {'count':>7} {'p50':>10} {'p90':>10} {'p99':>10}",
    ]
    for name, summary in rows[:top]:
        cells = " ".join(
            "-".rjust(10) if summary.get(key) is None
            else f"{summary[key]:.6g}".rjust(10)
            for key in ("p50", "p90", "p99")
        )
        lines.append(f"  {name:<44} {summary.get('count', 0):>7} {cells}")
    return "\n".join(lines)


def _cmd_metrics(args) -> int:
    path = os.path.join(args.dir, _METRICS_FILE)
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    else:
        # No recorded run yet: load the lake so this process exercises
        # the stores, and report the fresh snapshot.
        load_lake(args.dir)
        payload = {
            "command": "metrics",
            "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "metrics": get_registry().snapshot(),
        }
    if args.top is not None:
        _emit(payload, args.json, lambda: _render_top_operations(payload, args.top))
    else:
        _emit(payload, args.json, lambda: _render_metrics(payload))
    return 0


def _cmd_trace_report(args) -> int:
    from repro.obs.analyze import (
        analyze_trace,
        folded_stacks,
        load_trace,
        render_report,
    )

    spans = load_trace(args.file)
    if not spans:
        print(f"error: no spans in {args.file}", file=sys.stderr)
        return 1
    report = analyze_trace(spans)
    if args.flame:
        with open(args.flame, "w") as handle:
            handle.write("\n".join(folded_stacks(report)) + "\n")
        print(f"wrote folded stacks to {args.flame}", file=sys.stderr)
    payload = {
        "span_count": report.span_count,
        "trace_count": report.trace_count,
        "total_duration": report.total_duration,
        "profiled": report.profiled,
        "critical_path": [
            {
                "name": span.name,
                "duration": span.duration,
                "self_time": span.self_time,
            }
            for span in report.critical_path
        ],
        "operations": [
            {
                "name": op.name,
                "count": op.count,
                "total": op.total,
                "self_total": op.self_total,
                "mean": op.mean,
                "max": op.max_duration,
                "errors": op.errors,
            }
            for op in report.operations[: args.top]
        ],
    }
    _emit(payload, args.json, lambda: render_report(report, top=args.top))
    return 0


def _cmd_bench(args) -> int:
    from repro.obs import timeseries
    from repro.perf import registered_benches

    mode = "smoke" if args.smoke else "full"
    benches = registered_benches()
    selected = _parse_rule_list(args.select)
    if selected:
        known = {spec.name for spec in benches}
        unknown = sorted(set(selected) - known)
        if unknown:
            print(
                f"error: unknown benchmark(s) {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})",
                file=sys.stderr,
            )
            return 2
        benches = [spec for spec in benches if spec.name in selected]
    failed: List[str] = []
    documents = []
    for spec in benches:
        print(f"[bench] {spec.name} ({mode}) ...", file=sys.stderr)
        metrics = spec.fn(mode)
        result = timeseries.BenchResult(bench=spec.name, mode=mode, metrics=metrics)
        document = {"result": result.to_dict()}
        history = timeseries.load_trajectory(args.results, spec.name)
        if args.check:
            report = timeseries.check_regression(
                result, history, tolerances=spec.tolerances
            )
            document["check"] = {
                "passed": report.passed,
                "baseline_count": report.baseline_count,
                "regressions": [check.metric for check in report.regressions],
            }
            if not args.json:
                print(report.to_text())
            if not report.passed:
                failed.append(spec.name)
        elif not args.json:
            rendered = " ".join(
                f"{name}={value:.6g}" for name, value in sorted(metrics.items())
            )
            print(f"{spec.name}: {rendered}")
        if not args.no_record:
            path = timeseries.append_result(args.results, result)
            print(f"[bench] recorded -> {path}", file=sys.stderr)
        documents.append(document)
    if args.json:
        print(json.dumps(documents, indent=2, sort_keys=True, default=str))
    if failed:
        print(
            f"error: perf regression in: {', '.join(failed)}", file=sys.stderr
        )
        return 1
    return 0


def _parse_rule_list(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    return names or None


def _cmd_lint(args) -> int:
    # The analysis package is imported by the commands that use it, so
    # every other command (notably ``serve``) starts without it.
    from repro.analysis import LintConfig, render_json, render_text, run_lint
    from repro.analysis.explain import (
        explain_index,
        explain_rule,
        explainable_rules,
    )

    if args.explain is not None:
        if args.explain == "":
            # Bare --explain: the grouped index of every rule.
            print(explain_index())
            return 0
        rendered = explain_rule(args.explain)
        if rendered is None:
            known = ", ".join(explainable_rules())
            print(
                f"error: unknown rule {args.explain!r}; known rules: {known}",
                file=sys.stderr,
            )
            return 2
        print(rendered)
        return 0
    config = LintConfig(
        paths=args.paths,
        root=args.root,
        baseline_path=args.baseline,
        cache_path=args.cache,
        use_cache=not args.no_cache,
        # Graph and dataflow rules guard the architecture and the
        # concurrency/resource invariants, so strict mode implies both.
        graph=(args.graph or args.strict) and not args.no_graph,
        dataflow=(args.dataflow or args.strict) and not args.no_dataflow,
        arch_path=args.arch,
        select=_parse_rule_list(args.select),
        ignore=_parse_rule_list(args.ignore) or (),
        baseline_update=args.baseline_update,
    )
    result = run_lint(config)
    if args.json:
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code(strict=args.strict)


def _cmd_graph(args) -> int:
    from repro.analysis import collect_sources
    from repro.analysis.dataflow import (
        find_function,
        render_cfg_dot,
        render_cfg_text,
    )
    from repro.analysis.graph import (
        build_project,
        load_contract,
        render_graph_dot,
        render_graph_json,
    )

    root = os.path.abspath(args.root)
    contract = load_contract(
        args.arch or os.path.join(root, ".repro-arch.toml")
    )
    sources = collect_sources(root, args.paths)
    if args.cfg:
        fn = find_function(sources, args.cfg)
        if fn is None:
            print(f"error: no function named {args.cfg!r}", file=sys.stderr)
            return 2
        cfg = fn.cfg
        rendered = render_cfg_dot(cfg) if args.dot else render_cfg_text(cfg)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(rendered)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            print(rendered)
        return 0
    project = build_project(sources, contract)
    if args.dot:
        rendered = render_graph_dot(project)
    else:
        rendered = render_graph_json(project, closures=args.closures)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(rendered)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(rendered)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Model-lake operations"
    )
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="export spans of this invocation as JSONL to FILE",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="record CPU time and peak allocations on every span "
             "(use with --trace)",
    )
    parser.add_argument(
        "--log-level", default="WARNING",
        help="structured-log level for the repro library (default WARNING)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser("generate", help="generate and save a lake")
    generate.add_argument("--dir", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--foundations", type=int, default=2)
    generate.add_argument("--chains", type=int, default=4)
    generate.add_argument("--depth", type=int, default=1)
    generate.add_argument("--docs", type=int, default=18)
    generate.add_argument("--lm-foundations", type=int, default=0)
    generate.add_argument("--opaque-names", action="store_true")
    generate.add_argument(
        "--workers", type=int, default=1,
        help="parallel training workers (result is identical for any value)",
    )
    generate.add_argument(
        "--resume", action="store_true",
        help="resume a previously interrupted generation from its "
             "wave checkpoints",
    )
    generate.add_argument(
        "--shard", action="store_true",
        help="force the sharded on-disk layout regardless of lake size "
             "(default: auto-shard large lakes)",
    )
    generate.set_defaults(func=_cmd_generate)

    fsck = sub.add_parser(
        "fsck", help="verify a saved lake's on-disk integrity"
    )
    fsck.add_argument("dir", help="lake directory to check")
    fsck.add_argument("--repair", action="store_true",
                      help="quarantine corrupt artifacts and remove "
                           "stale temp files")
    fsck.add_argument("--workers", type=int, default=1,
                      help="parallel weight-check workers (the report is "
                           "identical for any value)")
    fsck.add_argument("--json", action="store_true",
                      help="emit machine-readable JSON")
    fsck.set_defaults(func=_cmd_fsck)

    migrate = sub.add_parser(
        "migrate", help="rewrite a saved lake to the current on-disk layout"
    )
    migrate.add_argument("--dir", required=True)
    placement = migrate.add_mutually_exclusive_group()
    placement.add_argument("--shard", action="store_true",
                           help="force the sharded layout")
    placement.add_argument("--flat", action="store_true",
                           help="force the flat (unsharded) layout")
    migrate.set_defaults(func=_cmd_migrate)

    stats = sub.add_parser("stats", help="lake statistics")
    stats.add_argument("--dir", required=True)
    stats.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    stats.set_defaults(func=_cmd_stats)

    search = sub.add_parser("search", help="free-text model search")
    search.add_argument("--dir", required=True)
    search.add_argument("--query", required=True)
    search.add_argument("--method", default="hybrid",
                        choices=["keyword", "behavioral", "hybrid"])
    search.add_argument("-k", type=int, default=5)
    search.set_defaults(func=_cmd_search)

    query = sub.add_parser("query", help="declarative model query")
    query.add_argument("--dir", required=True)
    query.add_argument("--q", required=True)
    query.set_defaults(func=_cmd_query)

    serve = sub.add_parser(
        "serve", help="serve lake search over HTTP (long-lived)"
    )
    serve.add_argument("--dir", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8484,
                       help="listen port (0 picks a free one)")
    serve.add_argument("--workers", type=int, default=2,
                       help="scoring threads (batches overlap across them)")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="most unique queries in one batch")
    serve.set_defaults(func=_cmd_serve)

    audit = sub.add_parser("audit", help="audit one model")
    audit.add_argument("--dir", required=True)
    audit.add_argument("--model", required=True)
    audit.set_defaults(func=_cmd_audit)

    cite = sub.add_parser("cite", help="cite one model")
    cite.add_argument("--dir", required=True)
    cite.add_argument("--model", required=True)
    cite.set_defaults(func=_cmd_cite)

    card = sub.add_parser("card", help="print a model card")
    card.add_argument("--dir", required=True)
    card.add_argument("--model", required=True)
    card.set_defaults(func=_cmd_card)

    metrics = sub.add_parser(
        "metrics", help="metrics snapshot of the last run against a lake"
    )
    metrics.add_argument("--dir", required=True)
    metrics.add_argument("--json", action="store_true",
                         help="emit machine-readable JSON")
    metrics.add_argument("--top", type=int, default=None, metavar="N",
                         help="show only the N slowest operations by p99")
    metrics.set_defaults(func=_cmd_metrics)

    trace_cmd = sub.add_parser(
        "trace", help="analyze an exported trace file"
    )
    trace_sub = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_report = trace_sub.add_parser(
        "report",
        help="critical path, hotspots, and per-operation aggregates",
    )
    trace_report.add_argument("file", help="JSONL trace (from --trace FILE)")
    trace_report.add_argument("--top", type=int, default=10, metavar="N",
                              help="hotspot rows to show (default 10)")
    trace_report.add_argument("--flame", default=None, metavar="FILE",
                              help="also write folded stacks for "
                                   "flamegraph renderers to FILE")
    trace_report.add_argument("--json", action="store_true",
                              help="emit machine-readable JSON")
    trace_report.set_defaults(func=_cmd_trace_report)

    bench = sub.add_parser(
        "bench", help="run the operational perf suite and record the trajectory"
    )
    bench.add_argument("--smoke", action="store_true",
                       help="small fast variants suitable for CI")
    bench.add_argument("--select", default=None, metavar="NAME[,NAME...]",
                       help="run only these benchmarks")
    bench.add_argument("--check", action="store_true",
                       help="fail (exit 1) if any metric regresses beyond "
                            "its tolerance vs the recorded trajectory")
    bench.add_argument("--results", default=os.path.join("benchmarks", "results"),
                       metavar="DIR",
                       help="trajectory location (default benchmarks/results)")
    bench.add_argument("--no-record", action="store_true",
                       help="measure and check without appending to the "
                            "trajectory")
    bench.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
    bench.set_defaults(func=_cmd_bench)

    lint = sub.add_parser(
        "lint", help="static analysis of the repo's invariants"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src", "tests", "benchmarks"],
        help="files or directories to lint (default: src tests benchmarks)",
    )
    lint.add_argument(
        "--root", default=".",
        help="project root: paths, baseline, and cache resolve against it",
    )
    lint.add_argument(
        "--strict", action="store_true",
        help="fail on warnings and stale baseline entries, not just errors",
    )
    lint.add_argument("--json", action="store_true",
                      help="emit the stable machine-readable report")
    lint.add_argument("--verbose", action="store_true",
                      help="also list baseline-suppressed findings")
    lint.add_argument("--baseline", default=None, metavar="FILE",
                      help="suppression ledger (default ROOT/.repro-lint.json)")
    lint.add_argument("--cache", default=None, metavar="FILE",
                      help="lint cache (default ROOT/.repro-lint-cache.json)")
    lint.add_argument("--no-cache", action="store_true",
                      help="ignore and do not write the lint cache")
    lint.add_argument("--graph", action="store_true",
                      help="also run whole-program graph rules "
                           "(implied by --strict)")
    lint.add_argument("--no-graph", action="store_true",
                      help="skip graph rules even under --strict")
    lint.add_argument("--dataflow", action="store_true",
                      help="also run CFG/taint dataflow rules "
                           "(implied by --strict)")
    lint.add_argument("--no-dataflow", action="store_true",
                      help="skip dataflow rules even under --strict")
    lint.add_argument("--explain", nargs="?", const="", default=None,
                      metavar="RULE",
                      help="print what RULE checks, with a minimal "
                           "positive/negative example, then exit; with "
                           "no RULE, list every rule grouped by pack")
    lint.add_argument("--baseline-update", action="store_true",
                      help="rewrite the baseline ledger in place: drop "
                           "stale entries, add new findings with a TODO "
                           "reason that --strict still rejects")
    lint.add_argument("--arch", default=None, metavar="FILE",
                      help="layer contract (default ROOT/.repro-arch.toml)")
    lint.add_argument("--select", default=None, metavar="RULE[,RULE...]",
                      help="run only these rules")
    lint.add_argument("--ignore", default=None, metavar="RULE[,RULE...]",
                      help="drop findings of these rules")
    lint.set_defaults(func=_cmd_lint)

    graph = sub.add_parser(
        "graph", help="export the project import graph"
    )
    graph.add_argument(
        "paths", nargs="*", default=["src", "tests", "benchmarks"],
        help="files or directories to include (default: src tests benchmarks)",
    )
    graph.add_argument(
        "--root", default=".",
        help="project root: paths and the contract resolve against it",
    )
    graph.add_argument("--dot", action="store_true",
                       help="emit Graphviz source instead of JSON")
    graph.add_argument("--json", action="store_true",
                       help="emit the stable JSON document (default)")
    graph.add_argument("--closures", action="store_true",
                       help="include each module's reverse-import closure "
                            "in the JSON document")
    graph.add_argument("--arch", default=None, metavar="FILE",
                       help="layer contract (default ROOT/.repro-arch.toml)")
    graph.add_argument("--cfg", default=None, metavar="FUNC",
                       help="render the control-flow graph of one function "
                            "(fully-qualified, bare name, or the exact "
                            "path/to/file.py:qualname form) instead of the "
                            "import graph; combine with --dot for Graphviz")
    graph.add_argument("--out", default=None, metavar="FILE",
                       help="write to FILE instead of stdout")
    graph.set_defaults(func=_cmd_graph)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # One CLI invocation == one metrics run: the snapshot persisted next
    # to the lake describes exactly this command.
    get_registry().reset()
    obs_logging.configure(args.log_level)
    exporter = None
    if args.trace:
        try:
            exporter = tracing.add_exporter(JSONLExporter(args.trace))
        except OSError as error:
            print(f"error: cannot open trace file: {error}", file=sys.stderr)
            return 2
    if args.profile:
        tracing.set_profiling(True)
    try:
        with trace(f"cli.{args.command}"):
            code = args.func(args)
        # metrics is a read-only reporter, and fsck must not write into
        # the very directory whose integrity it is judging.
        if args.command not in ("metrics", "fsck"):
            _persist_metrics(getattr(args, "dir", None), args.command)
        return code
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        if args.profile:
            tracing.set_profiling(False)
        if exporter is not None:
            tracing.remove_exporter(exporter)
            exporter.close()


if __name__ == "__main__":
    raise SystemExit(main())
