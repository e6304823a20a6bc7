"""lakebench runner: lakes, servers, interleaved load, checks, one JSON line.

A run prepares the lakes its workloads need, starts each workload's
server in its own process, warms every server up, then measures
``SEGMENTS`` rounds in which each server gets one segment of closed-loop
load in turn — so machine drift lands on every workload alike.  After
the load it replays a seeded sample of the traffic, stops the servers,
checks every replay against an in-process snapshot of the same lake and
scores that snapshot's rankings of the fixed precision set.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
workload against an untraced and a traced server side by side and
reports the per-layer ledger (see :mod:`benchmarks.lakebench.ledger`).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import random
import statistics
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.serve import LakeSnapshot

from benchmarks.lakebench import correctness, ledger
from benchmarks.lakebench.lake import LakeInfo, prepare_lake, time_cold_open
from benchmarks.lakebench.loadgen import Target
from benchmarks.lakebench.servers import ServerProcess, serve_argv, server_env
from benchmarks.lakebench.traffic import BY_NAME, WORKLOADS, Request, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

#: The lakes are fixed; ``--seed`` varies the traffic.
LAKE_SEED = 0
SEGMENTS = 3
WARMUP_S = 2.0
#: Server starts per workload whose median is ``setup_s``.
SETUP_STARTS = 3
PARITY_SAMPLE = 256

#: Unit of every end-to-end metric (``--trace 0``).  Throughput and
#: latency are per-layer diagnostics (``loadgen.*``): on the reference
#: box they do not repeat within a 10% bound (see README.md).
END_TO_END = {
    "setup_s": "s",
    "rss_mb": "MiB",
    "parity": "ratio",
    "precision_at_10": "ratio",
}

#: Unit of every per-layer metric (``--trace 1``).
PER_LAYER = {
    "serve.server.residual_ms": "ms",
    "serve.server.share": "ratio",
    "serve.batching.wait_ms": "ms",
    "serve.batching.wake_ms": "ms",
    "serve.batching.batch_size": "count",
    "serve.batching.dedup_ratio": "ratio",
    "serve.batching.share": "ratio",
    "core.search.engine.batch_ms": "ms",
    "core.search.engine.self_ms": "ms",
    "core.search.engine.share": "ratio",
    "core.search.keyword.query_ms": "ms",
    "core.search.keyword.postings_per_query": "count",
    "core.search.keyword.share": "ratio",
    "core.search.keyword.build_s": "s",
    "core.search.behavioral.extract_us": "us",
    "core.search.behavioral.search_ms": "ms",
    "core.search.behavioral.profile_reuse": "ratio",
    "core.search.behavioral.share": "ratio",
    "core.search.behavioral.build_s": "s",
    "index.flat.query_batch_ms": "ms",
    "index.flat.rows_scored": "count",
    "index.flat.share": "ratio",
    "index.cache.hit_ratio": "ratio",
    "lake.load_s": "s",
    "serve.snapshot.open_s": "s",
    "serve.snapshot.cold_open_s": "s",
    "loadgen.qps": "1/s",
    "loadgen.p50_ms": "ms",
    "loadgen.p90_ms": "ms",
    "loadgen.p99_ms": "ms",
    "loadgen.trace_overhead": "ratio",
    "repeat_share": "ratio",
}


def _log(message: str) -> None:
    print(f"lakebench: {message}", file=sys.stderr, flush=True)


@dataclass
class Arm:
    """One server under load."""

    workload: Workload
    server: ServerProcess
    target: Target
    spans_path: Optional[str]
    setup_s: List[float]
    rss_mb: float = 0.0


@dataclass
class Verdict:
    """The correctness gate of one workload."""

    problems: List[str]
    parity: float
    precision: float


def _start_arms(
    stack: contextlib.ExitStack, workload: Workload, lake: LakeInfo,
    seed: int, trace: bool, work_dir: str,
) -> List[Arm]:
    """The workload's servers: [untraced] or [untraced, traced].

    Untraced servers start :data:`SETUP_STARTS` times and keep the last;
    ``setup_s`` is the median start.
    """
    env = server_env(os.path.join(ROOT, "src"))
    spans = [None]
    if trace:
        spans.append(os.path.join(work_dir, f"{workload.name}.spans.json"))
    arms = []
    for spans_path in spans:
        suffix = ".traced" if spans_path else ""
        log = os.path.join(work_dir, f"{workload.name}{suffix}.log")
        argv = serve_argv(lake.directory, traced_spans=spans_path)
        setups = []
        starts = 1 if trace else SETUP_STARTS
        for attempt in range(starts):
            server = stack.enter_context(ServerProcess(argv, env, log))
            setups.append(server.setup_s)
            if attempt < starts - 1:
                server.stop()
        _log(f"{workload.name}{suffix}: up in {setups[-1]:.2f}s")
        arms.append(Arm(
            workload, server,
            Target(server.host, server.port, workload.stream(seed, lake.model_ids)),
            spans_path, setups,
        ))
    return arms


async def _drive(
    arms: List[Arm], checked: List[Arm], seconds: float, seed: int
) -> List[List[Tuple[Request, int, bytes]]]:
    """Warm up, measure interleaved segments, replay the parity samples."""
    for arm in arms:
        await arm.target.load(WARMUP_S, measure=False)
    for _ in range(SEGMENTS):
        for arm in arms:
            await arm.target.load(seconds / SEGMENTS)
    for arm in arms:
        arm.rss_mb = arm.server.peak_rss_mb()
    replies = []
    for arm in checked:
        rng = random.Random(f"parity:{seed}:{arm.workload.name}")
        sent = arm.target.sent
        replies.append(await arm.target.replay(
            rng.sample(sent, min(PARITY_SAMPLE, len(sent)))
        ))
    for arm in arms:
        await arm.target.close()
    return replies


def _verify(workload: Workload, replies, snapshot: LakeSnapshot,
            lake: LakeInfo) -> Verdict:
    problems = []
    for request, status, body in replies:
        problem = correctness.mismatch(
            status, body, correctness.expected_reply(snapshot, request)
        )
        if problem is not None:
            problems.append(f"{workload.name}: {request.path}: {problem}")
    precision = statistics.fmean(
        correctness.precision_at_10(
            [hit.model_id for hit in snapshot.engine.search(*request.key[1:])],
            request.domains, lake.domains,
        )
        for request in workload.eval_requests()
    )
    parity = 1.0 - len(problems) / len(replies)
    return Verdict(problems, parity, precision)


def _quantile(values: List[float], percent: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[percent - 1]


def _median_qps(arm: Arm) -> float:
    return statistics.median(s.qps for s in arm.target.segments)


def _p50_ms(arm: Arm) -> float:
    return 1e3 * statistics.median(arm.target.latencies)


def _end_to_end(arm: Arm, verdict: Verdict) -> Dict[str, float]:
    _log(f"{arm.workload.name}: {_median_qps(arm):.1f} qps, "
         f"p50 {_p50_ms(arm):.2f} ms (gated nowhere; --trace 1 reports them)")
    return {
        "setup_s": statistics.median(arm.setup_s),
        "rss_mb": arm.rss_mb,
        "parity": verdict.parity,
        "precision_at_10": verdict.precision,
    }


def _per_layer(untraced: Arm, traced: Arm, cold_open_s: float,
               postings: Callable[[str], int]) -> Dict[str, float]:
    with open(traced.spans_path) as handle:
        rows = json.load(handle)["spans"]
    os.remove(traced.spans_path)
    metrics = ledger.layer_metrics(
        rows, traced.target.windows, traced.target.latencies, postings
    )
    metrics.update({
        "serve.snapshot.cold_open_s": cold_open_s,
        "loadgen.qps": _median_qps(untraced),
        "loadgen.p50_ms": _p50_ms(untraced),
        "loadgen.p90_ms": 1e3 * _quantile(untraced.target.latencies, 90),
        "loadgen.p99_ms": 1e3 * _quantile(untraced.target.latencies, 99),
        "loadgen.trace_overhead": _median_qps(traced) / _median_qps(untraced),
        "repeat_share": untraced.target.repeat_share(),
    })
    return metrics


def run(names: Sequence[str], seed: int, seconds: float, trace: bool,
        work_dir: str) -> Tuple[Dict, List[str]]:
    """One benchmark run; returns (result line, problems found)."""
    os.makedirs(work_dir, exist_ok=True)
    workloads = [BY_NAME[name] for name in names]
    lakes = {}
    for models in sorted({w.models for w in workloads}):
        _log(f"preparing the {models}-model lake")
        lakes[models] = prepare_lake(work_dir, models, LAKE_SEED)
    problems: List[str] = []
    with contextlib.ExitStack() as stack:
        arms = {
            w.name: _start_arms(stack, w, lakes[w.models], seed, trace, work_dir)
            for w in workloads
        }
        every_arm = [arm for w in workloads for arm in arms[w.name]]
        _log(f"measuring {len(workloads)} workload(s) for {seconds:g}s each")
        replies = asyncio.run(_drive(
            every_arm, [arms[w.name][-1] for w in workloads], seconds, seed
        ))
        for arm in every_arm:
            code = arm.server.stop()
            if code != 0:
                problems.append(f"{arm.workload.name}: server exited with {code}")
    metrics: Dict[str, Dict] = {}
    for models, lake in lakes.items():
        cold_open_s = 0.0
        if trace:
            _log(f"timing an empty-cache open of the {models}-model lake")
            cold_open_s = time_cold_open(lake.directory,
                                         os.path.join(work_dir, "cold"))
        with LakeSnapshot.open(lake.directory) as snapshot:
            postings = ledger.postings_counter(
                [record.card.text() for record in snapshot.lake]
            ) if trace else None
            for workload, workload_replies in zip(workloads, replies):
                if workload.models != models:
                    continue
                verdict = _verify(workload, workload_replies, snapshot, lake)
                problems.extend(verdict.problems)
                untraced = arms[workload.name][0]
                values, units = (
                    (_per_layer(untraced, arms[workload.name][1], cold_open_s,
                                postings), PER_LAYER)
                    if trace else (_end_to_end(untraced, verdict), END_TO_END)
                )
                prefix = "" if len(workloads) == 1 else f"{workload.name}."
                for name, value in values.items():
                    metrics[prefix + name] = {"value": value, "unit": units[name]}
    replayed = [status for batch in replies for _, status, _ in batch]
    failed = sum(a.target.failed for a in every_arm) + sum(
        1 for status in replayed if status != 200
    )
    result = {
        "correct": not problems and failed == 0,
        "attempted": sum(a.target.attempted for a in every_arm) + len(replayed),
        "failed": failed,
        "metrics": dict(sorted(metrics.items())),
    }
    return result, problems


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="lakebench", description="repro serve under four traffic mixes"
    )
    parser.add_argument("--workload", default="all",
                        choices=["all"] + [w.name for w in WORKLOADS])
    parser.add_argument("--seed", type=int, default=0,
                        help="traffic seed (the lakes are fixed)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help=f"measured seconds per workload, in {SEGMENTS} segments")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer ledger instead of end-to-end metrics")
    parser.add_argument("--work-dir", default=os.path.join(ROOT, ".lakebench"),
                        help="lake cache, server logs and spans")
    args = parser.parse_args(argv)
    names = [w.name for w in WORKLOADS] if args.workload == "all" else [args.workload]
    result, problems = run(names, args.seed, args.seconds, bool(args.trace),
                           args.work_dir)
    for problem in problems:
        _log(f"FAIL {problem}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1
