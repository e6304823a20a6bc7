"""The operational benchmark suite: generation, search, index hot paths.

Every benchmark here is small enough to run on a 1-core CI container in
seconds (``smoke`` mode) while still exercising the real code paths —
actual training, actual engine builds, actual graph walks — so a
regression in any of them is a regression users of the library would
feel.  ``full`` mode scales the same measurements up for workstation
runs.

Wall-clock metrics get generous tolerances (shared CI hardware jitters
by tens of percent); the regression gate is meant to catch the 2x
"someone quadratic-ed the hot loop" class of slip, not 10% noise.
"""

from __future__ import annotations

import tempfile
import time
from typing import Callable, Dict

import numpy as np

from repro.perf import register_bench

#: Allowed worse-direction drift for wall-clock metrics: CI-noise-proof
#: but far below the 2x slips the gate exists to catch.
WALL_CLOCK_TOLERANCE = 1.75

# Sized so every gated wall-clock metric lands well above the
# regression gate's absolute noise floors (~0.05s / 100us): a tinier
# lake measures scheduler jitter, not the code.
_SMOKE_SPEC = dict(
    num_foundations=2, chains_per_foundation=3, max_chain_depth=1,
    docs_per_domain=12, eval_docs_per_domain=5,
    foundation_epochs=6, specialize_epochs=4,
    num_merges=1, num_stitches=0, seed=7,
)

_FULL_SPEC = dict(
    num_foundations=2, chains_per_foundation=4, max_chain_depth=1,
    docs_per_domain=16, eval_docs_per_domain=6,
    foundation_epochs=4, specialize_epochs=3,
    num_merges=1, num_stitches=1, seed=7,
)


def _build_lake(mode: str):
    from repro.lake import LakeSpec, generate_lake

    spec_kwargs = _SMOKE_SPEC if mode == "smoke" else _FULL_SPEC
    return generate_lake(LakeSpec(**spec_kwargs))


def _best_of(rounds: int, sweep: Callable[[], None]) -> float:
    """Minimum wall time over ``rounds`` sweeps — the standard defense
    against scheduler noise when timing sub-second query loops."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        sweep()
        best = min(best, time.perf_counter() - start)
    return best


@register_bench(
    "generate",
    description="lake generation wall time (sequential, tiny spec)",
    tolerances={"generate_seconds": WALL_CLOCK_TOLERANCE,
                "models_per_second": WALL_CLOCK_TOLERANCE},
)
def bench_generate(mode: str) -> Dict[str, float]:
    start = time.perf_counter()
    bundle = _build_lake(mode)
    elapsed = time.perf_counter() - start
    models = len(list(bundle.lake))
    return {
        "generate_seconds": round(elapsed, 3),
        "models": float(models),
        "models_per_second": round(models / elapsed, 3),
    }


@register_bench(
    "search",
    description="search-engine cold/warm builds and query latency",
    tolerances={"cold_build_seconds": WALL_CLOCK_TOLERANCE,
                "warm_build_seconds": WALL_CLOCK_TOLERANCE,
                "query_latency_us": WALL_CLOCK_TOLERANCE,
                "warm_speedup": 2.5},
)
def bench_search(mode: str) -> Dict[str, float]:
    from repro.core.search import SearchEngine
    from repro.data.probes import make_text_probes

    bundle = _build_lake(mode)
    probes = make_text_probes(probes_per_domain=4, seq_len=24)
    queries = ["legal specialist", "medical fine-tuned", "code model"]
    repeats = 3 if mode == "smoke" else 10
    with tempfile.TemporaryDirectory() as cache_dir:
        start = time.perf_counter()
        SearchEngine(bundle.lake, probes, cache_dir=cache_dir)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        engine = SearchEngine(bundle.lake, probes, cache_dir=cache_dir)
        warm = time.perf_counter() - start

        def sweep():
            for query in queries:
                engine.search(query, k=3)

        sweep()  # warm the engine's caches before measuring
        query_seconds = _best_of(repeats, sweep)
    return {
        "cold_build_seconds": round(cold, 3),
        "warm_build_seconds": round(warm, 3),
        "warm_speedup": round(cold / warm, 2) if warm > 0 else float("inf"),
        "query_latency_us": round(query_seconds / len(queries) * 1e6, 1),
    }


@register_bench(
    "shard",
    description="sharded save/lazy-load/fsck vs flat layout, digest parity",
    tolerances={"sharded_save_seconds": WALL_CLOCK_TOLERANCE,
                "lazy_load_seconds": WALL_CLOCK_TOLERANCE,
                "fsck_seconds": WALL_CLOCK_TOLERANCE},
)
def bench_shard(mode: str) -> Dict[str, float]:
    import json
    import os

    from repro.lake import load_lake, save_lake
    from repro.reliability.fsck import fsck_lake

    bundle = _build_lake(mode)
    workers = 1 if mode == "smoke" else 2
    with tempfile.TemporaryDirectory() as root:
        flat_dir = os.path.join(root, "flat")
        shard_dir = os.path.join(root, "sharded")
        save_lake(bundle.lake, flat_dir, sharded=False)
        start = time.perf_counter()
        save_lake(bundle.lake, shard_dir, sharded=True)
        sharded_save = time.perf_counter() - start

        # The layout is pure physics: both saves must describe the same
        # lake, digest for digest.
        digests = []
        for directory in (flat_dir, shard_dir):
            with open(os.path.join(directory, "manifest.json")) as fh:
                digests.append(json.load(fh)["integrity"]["manifest_digest"])
        if digests[0] != digests[1]:
            raise AssertionError(
                f"sharded manifest digest {digests[1]} != flat {digests[0]}"
            )

        start = time.perf_counter()
        lake = load_lake(shard_dir)  # lazy: weights stay on disk, mmapped
        lazy_load = time.perf_counter() - start
        models = len(list(lake))
        # Touch one model end-to-end so the lazy path is actually read.
        first = sorted(record.model_id for record in lake)[0]
        lake.get_model(first, force=True)

        start = time.perf_counter()
        report = fsck_lake(shard_dir, workers=workers)
        fsck = time.perf_counter() - start
        if not report.clean:
            raise AssertionError(
                f"fsck found problems in a freshly saved sharded lake: "
                f"{[f.kind for f in report.findings]}"
            )
    return {
        "models": float(models),
        "sharded_save_seconds": round(sharded_save, 3),
        "lazy_load_seconds": round(lazy_load, 3),
        "fsck_seconds": round(fsck, 3),
        "manifest_digest_identical": 1.0,
    }


@register_bench(
    "hnsw",
    description="vectorized HNSW build and query latency",
    tolerances={"build_seconds": WALL_CLOCK_TOLERANCE,
                "query_us": WALL_CLOCK_TOLERANCE},
)
def bench_hnsw(mode: str) -> Dict[str, float]:
    from repro.index import HNSWIndex

    n = 300 if mode == "smoke" else 1500
    num_queries = 20 if mode == "smoke" else 50
    dim = 32
    rng = np.random.default_rng(21)
    centers = rng.normal(size=(12, dim)) * 3
    vectors = centers[rng.integers(12, size=n)] + rng.normal(
        scale=0.4, size=(n, dim)
    )
    ids = [f"v{i}" for i in range(n)]
    queries = vectors[rng.choice(n, num_queries, replace=False)] + rng.normal(
        scale=0.2, size=(num_queries, dim)
    )
    index = HNSWIndex(
        m=8, ef_construction=64, ef_search=48, seed=0, vectorized=True
    )
    start = time.perf_counter()
    index.build(ids, vectors)
    build = time.perf_counter() - start

    def sweep():
        for query in queries:
            index.query(query, k=10)

    query_seconds = _best_of(3, sweep)
    return {
        "indexed_vectors": float(n),
        "build_seconds": round(build, 3),
        "query_us": round(query_seconds / num_queries * 1e6, 1),
    }
