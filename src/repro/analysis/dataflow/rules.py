"""The dataflow rule pack: findings that need control or data flow.

Two rules, each impossible to state per-file or per-module:

* ``blocking-call-in-async`` — a blocking call reachable from an
  ``async def`` without an executor hop;
* ``impure-digest-flow`` — a nondeterministic value flowing into a
  digest, reported with its full def-use chain.

Every finding anchors where a ``# repro: noqa[rule]`` pragma can
suppress it: the sink line for taint, the first call hop (or the
blocking call itself) for async functions.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Set, Tuple, Type

from repro.analysis.core import Finding
from repro.analysis.dataflow.model import FunctionModel, ModuleModel
from repro.analysis.dataflow.summaries import SummaryIndex
from repro.analysis.dataflow.taint import describe_chain
from repro.utils.hashing import stable_hash

__all__ = [
    "DataflowContext",
    "DataflowRule",
    "register_dataflow_rule",
    "all_dataflow_rules",
    "dataflow_rule_names",
    "dataflow_rules_fingerprint",
]


@dataclass
class DataflowContext:
    """Everything a dataflow rule may inspect for one module."""

    summaries: SummaryIndex
    rel_path: str
    module_model: ModuleModel

    def functions(self) -> Iterable[FunctionModel]:
        for qualname in sorted(self.module_model.functions):
            yield self.module_model.functions[qualname]


class DataflowRule:
    """Base class; subclasses register via :func:`register_dataflow_rule`."""

    name: str = ""
    description: str = ""
    version: int = 1
    #: Minimal sources for ``repro lint --explain``: one that fires, one
    #: that stays silent.
    example_positive: str = ""
    example_negative: str = ""

    def check_module(self, ctx: DataflowContext) -> Iterable[Finding]:
        raise NotImplementedError

    def finding(
        self, ctx: DataflowContext, line: int, message: str, col: int = 0
    ) -> Finding:
        return Finding(
            path=ctx.rel_path,
            line=line,
            col=col,
            rule=self.name,
            message=message,
        )


_REGISTRY: Dict[str, DataflowRule] = {}


def register_dataflow_rule(cls: Type[DataflowRule]) -> Type[DataflowRule]:
    rule = cls()
    if not rule.name:
        raise ValueError(f"{cls.__name__} has no rule name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate dataflow rule {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return cls


def all_dataflow_rules() -> List[DataflowRule]:
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def dataflow_rule_names() -> List[str]:
    return sorted(_REGISTRY)


def dataflow_rules_fingerprint() -> str:
    return stable_hash(
        [(rule.name, rule.version) for rule in all_dataflow_rules()]
    )


# -- blocking-call-in-async ----------------------------------------------


@register_dataflow_rule
class BlockingCallInAsync(DataflowRule):
    name = "blocking-call-in-async"
    description = (
        "A blocking call (file/socket I/O, time.sleep, subprocess) is "
        "reachable from an async function without an executor hop; it "
        "stalls the event loop. Route it through asyncio.to_thread or "
        "run_in_executor."
    )
    example_positive = (
        "import time\n"
        "async def poll():\n"
        "    time.sleep(1)  # stalls the whole event loop\n"
    )
    example_negative = (
        "import asyncio, time\n"
        "async def poll():\n"
        "    await asyncio.to_thread(time.sleep, 1)\n"
    )

    def check_module(self, ctx: DataflowContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fn in ctx.functions():
            if not fn.is_async:
                continue
            hit = ctx.summaries.blocking_reachable(fn.fq)
            if hit is None:
                continue
            chain, (blocking_name, blocking_line) = hit
            if not chain:
                findings.append(
                    self.finding(
                        ctx,
                        blocking_line,
                        f"blocking call {blocking_name} inside async "
                        f"function '{fn.qualname}'; use asyncio.to_thread "
                        "or an executor",
                    )
                )
                continue
            line = self._first_hop_line(ctx, fn, chain[0])
            via = " -> ".join(chain)
            findings.append(
                self.finding(
                    ctx,
                    line,
                    f"async function '{fn.qualname}' reaches blocking call "
                    f"{blocking_name} via {via}; hop through "
                    "asyncio.to_thread or an executor",
                )
            )
        return findings

    def _first_hop_line(
        self, ctx: DataflowContext, fn: FunctionModel, first_hop: str
    ) -> int:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                resolved = ctx.summaries.resolve_call(fn, node)
                if resolved == first_hop:
                    return node.lineno
        return fn.lineno


# -- impure-digest-flow --------------------------------------------------


@register_dataflow_rule
class ImpureDigestFlow(DataflowRule):
    name = "impure-digest-flow"
    description = (
        "A nondeterministic value (wall clock, unseeded RNG, environment) "
        "flows into a digest computation; the digest changes across "
        "otherwise-identical runs. The finding carries the def-use chain "
        "from source to sink."
    )
    example_positive = (
        "import time\n"
        "from repro.utils.hashing import stable_hash\n"
        "def make_id(payload):\n"
        "    stamp = time.time()\n"
        "    return stable_hash({'payload': payload, 'at': stamp})\n"
    )
    example_negative = (
        "from repro.utils.hashing import stable_hash\n"
        "def make_id(payload):\n"
        "    return stable_hash({'payload': payload})\n"
    )

    def check_module(self, ctx: DataflowContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fn in ctx.functions():
            run = ctx.summaries.taint_run(fn)
            # A tainted `return stable_hash(...)` hits both the call sink
            # and the digest-named-return sink; keep the call sink.
            seen: Set[Tuple[int, str, int]] = set()
            ordered = sorted(
                run.sink_hits,
                key=lambda h: (h.sink.startswith("return of "), h),
            )
            for hit in ordered:
                if hit.taint.from_param is not None:
                    continue
                key = (hit.line, hit.taint.source, hit.taint.source_line)
                if hit.sink.startswith("return of ") and key in seen:
                    continue
                seen.add(key)
                findings.append(
                    self.finding(
                        ctx,
                        hit.line,
                        f"nondeterministic value reaches digest sink "
                        f"{hit.sink} in '{fn.qualname}': "
                        f"{describe_chain(hit.taint)}",
                    )
                )
        return sorted(set(findings))
