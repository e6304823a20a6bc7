"""Registered performance benchmarks behind ``repro bench``.

The heavyweight experiment benchmarks under ``benchmarks/`` answer the
paper's quality questions; this package is the *operational* suite — a
handful of fast, deterministic measurements of the hot paths (lake
generation, search engine builds, index queries, the sharded store, the
dataflow lint) that run on every CI push.  It is the only writer of the
perf trajectory (``benchmarks/results/trajectory/<bench>.json``, via
:mod:`repro.obs.timeseries`), so "did this change make the lake
slower?" has a recorded, regression-gated answer.

Benchmarks register through :func:`register_bench`; each is a callable
``fn(mode) -> {metric: value}`` where ``mode`` is ``"full"`` or
``"smoke"``.  A benchmark returns only numbers; when a guarantee its
fast path must keep breaks (a parallel lake differs from the sequential
one, say), it raises instead of reporting a flag, so ``repro bench``
fails whether or not ``--check`` is given.  Registration carries
per-metric tolerances — wall-clock metrics on shared CI hardware need
looser gates than counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

__all__ = ["BenchSpec", "register_bench", "registered_benches"]


@dataclass
class BenchSpec:
    """One registered benchmark and its regression-gate tolerances."""

    name: str
    fn: Callable[[str], Dict[str, float]]
    description: str = ""
    tolerances: Dict[str, float] = field(default_factory=dict)


_REGISTRY: Dict[str, BenchSpec] = {}


def register_bench(
    name: str,
    description: str = "",
    tolerances: Dict[str, float] | None = None,
) -> Callable[[Callable[[str], Dict[str, float]]], Callable[[str], Dict[str, float]]]:
    """Decorator: register ``fn(mode) -> metrics`` under ``name``."""

    def decorate(fn: Callable[[str], Dict[str, float]]):
        _REGISTRY[name] = BenchSpec(
            name=name, fn=fn, description=description,
            tolerances=dict(tolerances or {}),
        )
        return fn

    return decorate


def registered_benches() -> List[BenchSpec]:
    """All registered benchmarks, importing the suite on first use."""
    from repro.perf import suite  # noqa: F401 - registration side effect

    return [_REGISTRY[name] for name in sorted(_REGISTRY)]
