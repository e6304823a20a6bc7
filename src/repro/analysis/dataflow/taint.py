"""Taint propagation: nondeterminism sources flowing to digest sinks.

Runs intraprocedurally over one function's CFG as a fixpoint (facts are
``name -> taints`` maps), with two hooks that make it interprocedural
when driven by :class:`~repro.analysis.dataflow.summaries.SummaryIndex`:

* a call to a function whose summary says *returns taint* introduces
  that taint at the call site;
* a call passing a tainted argument to a parameter the callee's summary
  marks as *sink-reaching* reports a sink hit at the call site.

Each :class:`Taint` carries its def-use chain — every intermediate
assignment between source and sink — so a finding can say exactly how a
clock value reached a digest.  Chains are capped and deduplicated
per ``(name, source)`` keeping the shortest, which bounds the lattice
and guarantees the fixpoint terminates.

Sink hits anchor at the *sink* line (the hash call, the tainted
``return``), never the source line — that is where a ``# repro: noqa``
pragma must sit to suppress the finding.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.dataflow.cfg import (
    CFG,
    Element,
    KIND_FOR,
    KIND_WITH,
)
from repro.analysis.dataflow.model import FunctionModel
from repro.analysis.dataflow.solver import Analysis, solve
from repro.analysis.rules.determinism import _NONDETERMINISTIC_CALLS

__all__ = [
    "Taint",
    "SinkHit",
    "TaintSummary",
    "TaintRun",
    "run_taint",
    "is_taint_source",
    "describe_chain",
]

#: Longest def-use chain a taint records; longer flows keep the first hops.
MAX_CHAIN = 6

_SAFE_RANDOM_ATTRS = {
    "seed", "Random", "default_rng", "SeedSequence", "RandomState",
    "Generator", "getstate", "setstate",
    # Bit-generator constructors take an explicit seed; nondeterminism
    # would come from the module-level convenience functions instead.
    "PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64", "BitGenerator",
}
_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Environment reads: host- or process-dependent values.
_ENV_SOURCES = {
    "os.getenv",
    "os.environ.get",
    "os.getpid",
    "os.getcwd",
    "os.urandom",
    "socket.gethostname",
    "platform.node",
    "getpass.getuser",
}

_EXTRA_TIME_SOURCES = {
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
}

_DIGEST_NAME_RE = re.compile(
    r"digest|fingerprint|checksum|stable_hash|content_hash|make_id|model_id",
    re.IGNORECASE,
)


def is_taint_source(qualified: Optional[str]) -> Optional[str]:
    """Category of a nondeterminism source call, or None."""
    if qualified is None:
        return None
    if qualified in _NONDETERMINISTIC_CALLS or qualified in _EXTRA_TIME_SOURCES:
        return "time"
    if qualified in _ENV_SOURCES:
        return "env"
    for prefix in _RANDOM_PREFIXES:
        if qualified.startswith(prefix):
            attr = qualified[len(prefix):].split(".")[0]
            if attr not in _SAFE_RANDOM_ATTRS:
                return "rng"
    if qualified.startswith("secrets."):
        return "rng"
    return None


def is_digest_sink_name(callable_name: str) -> bool:
    """Does the (last component of a) call target name a digest computation?"""
    return bool(_DIGEST_NAME_RE.search(callable_name.rsplit(".", 1)[-1]))


@dataclass(frozen=True, order=True)
class Taint:
    """One tainted value: its source and the def-use hops it took."""

    source: str  # qualified source call, or "param:<name>"
    source_line: int
    chain: Tuple[Tuple[str, int], ...] = ()

    @property
    def from_param(self) -> Optional[str]:
        if self.source.startswith("param:"):
            return self.source[len("param:"):]
        return None

    def extend(self, name: str, line: int) -> "Taint":
        if len(self.chain) >= MAX_CHAIN or any(
            hop_name == name for hop_name, _ in self.chain
        ):
            return self
        return Taint(self.source, self.source_line, self.chain + ((name, line),))


def describe_chain(taint: Taint) -> str:
    """``time.time() at line 3 -> 'ts' (line 3) -> 'meta' (line 5)``."""
    parts = [f"{taint.source} at line {taint.source_line}"]
    parts.extend(
        f"{name!r} (line {line})" for name, line in taint.chain
    )
    return " -> ".join(parts)


@dataclass(frozen=True, order=True)
class SinkHit:
    """A taint reaching a digest sink."""

    line: int
    sink: str  # rendered sink, e.g. "stable_hash(...)" or "return"
    taint: Taint


@dataclass(frozen=True)
class TaintSummary:
    """What a callee does with taint, as seen from a call site."""

    returns_sources: Tuple[Taint, ...] = ()
    param_to_return: FrozenSet[str] = frozenset()
    sink_params: FrozenSet[str] = frozenset()


EMPTY_SUMMARY = TaintSummary()


@dataclass
class TaintRun:
    """The result of one intraprocedural taint evaluation."""

    sink_hits: List[SinkHit] = field(default_factory=list)
    return_taints: Set[Taint] = field(default_factory=set)


class _Resolver:
    """What the engine injects: call resolution and callee summaries."""

    def resolve_call(self, fn: FunctionModel, call: ast.Call) -> Optional[str]:
        raise NotImplementedError

    def summary(self, fq: str) -> TaintSummary:
        raise NotImplementedError


_Fact = FrozenSet[Tuple[str, Taint]]


def _normalize(pairs: Set[Tuple[str, Taint]]) -> _Fact:
    """Keep one (shortest-chain) taint per (name, source, source_line)."""
    best: Dict[Tuple[str, str, int], Taint] = {}
    for name, taint in pairs:
        key = (name, taint.source, taint.source_line)
        current = best.get(key)
        if current is None or (len(taint.chain), taint.chain) < (
            len(current.chain),
            current.chain,
        ):
            best[key] = taint
    return frozenset(
        (key[0], taint) for key, taint in best.items()
    )


class _TaintAnalysis(Analysis):
    def __init__(self, fn: FunctionModel, resolver: _Resolver, seed_params: bool):
        self.fn = fn
        self.resolver = resolver
        self.seed_params = seed_params

    def bottom(self, cfg: CFG) -> _Fact:
        return frozenset()

    def boundary(self, cfg: CFG) -> _Fact:
        if not self.seed_params:
            return frozenset()
        return frozenset(
            (name, Taint(source=f"param:{name}", source_line=self.fn.lineno))
            for name in self.fn.params()
        )

    def join(self, left: _Fact, right: _Fact) -> _Fact:
        return _normalize(set(left) | set(right))

    # -- expression evaluation ----------------------------------------
    def expr_taints(self, node: ast.AST, env: Dict[str, Set[Taint]]) -> Set[Taint]:
        if isinstance(node, ast.Name):
            return set(env.get(node.id, ()))
        if isinstance(node, ast.Call):
            return self._call_taints(node, env)
        if isinstance(node, ast.Subscript):
            qualified = self.fn.imports.qualified(node.value)
            if qualified == "os.environ":
                return {Taint("os.environ[...]", node.lineno)}
            return self.expr_taints(node.value, env) | self.expr_taints(
                node.slice, env
            )
        if isinstance(node, ast.Lambda):
            return set()  # not evaluated here
        taints: Set[Taint] = set()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.expr, ast.keyword, ast.comprehension)):
                taints |= self.expr_taints(child, env)
            elif isinstance(child, ast.arguments):
                continue
        return taints

    def _arg_taints(
        self, call: ast.Call, env: Dict[str, Set[Taint]]
    ) -> Set[Taint]:
        taints: Set[Taint] = set()
        for arg in call.args:
            taints |= self.expr_taints(arg, env)
        for keyword in call.keywords:
            taints |= self.expr_taints(keyword.value, env)
        return taints

    def _call_taints(
        self, call: ast.Call, env: Dict[str, Set[Taint]]
    ) -> Set[Taint]:
        qualified = self.fn.imports.qualified(call.func)
        category = is_taint_source(qualified)
        if category is not None:
            assert qualified is not None
            return {Taint(qualified, call.lineno)}
        resolved = self.resolver.resolve_call(self.fn, call)
        if resolved is not None:
            summary = self.resolver.summary(resolved)
            taints: Set[Taint] = set()
            for source in summary.returns_sources:
                # Re-anchor the callee's internal source at this call.
                taints.add(
                    Taint(source.source, call.lineno).extend(
                        f"{resolved}()", call.lineno
                    )
                )
            if summary.param_to_return:
                for position, name in self._argument_bindings(call, resolved):
                    if name in summary.param_to_return:
                        for taint in self._binding_taints(call, position, env):
                            taints.add(taint.extend(f"{resolved}()", call.lineno))
            if taints:
                return taints
        # Default: a transform of tainted data is tainted data.  For a
        # method call the receiver counts too: `env_value.encode()` is
        # as tainted as `env_value`.
        taints = self._arg_taints(call, env)
        if isinstance(call.func, ast.Attribute):
            taints |= self.expr_taints(call.func.value, env)
        return taints

    def _argument_bindings(
        self, call: ast.Call, resolved: str
    ) -> List[Tuple[int, str]]:
        """(argument position, callee parameter name) pairs for a call."""
        callee = self.resolver_model(resolved)
        if callee is None:
            return []
        params = callee.params()
        if callee.class_name is not None and params and params[0] in (
            "self",
            "cls",
        ):
            params = params[1:]
        bindings: List[Tuple[int, str]] = []
        for position in range(len(call.args)):
            if position < len(params):
                bindings.append((position, params[position]))
        offset = len(call.args)
        for index, keyword in enumerate(call.keywords):
            if keyword.arg is not None and keyword.arg in params:
                bindings.append((offset + index, keyword.arg))
        return bindings

    def resolver_model(self, fq: str) -> Optional[FunctionModel]:
        getter = getattr(self.resolver, "function_model", None)
        if getter is None:
            return None
        return getter(fq)

    def _binding_taints(
        self, call: ast.Call, position: int, env: Dict[str, Set[Taint]]
    ) -> Set[Taint]:
        if position < len(call.args):
            return self.expr_taints(call.args[position], env)
        keyword = call.keywords[position - len(call.args)]
        return self.expr_taints(keyword.value, env)

    # -- transfer ------------------------------------------------------
    def transfer(self, element: Element, fact: _Fact) -> _Fact:
        env: Dict[str, Set[Taint]] = {}
        for name, taint in fact:
            env.setdefault(name, set()).add(taint)
        node = element.node
        pairs = set(fact)
        if element.kind == KIND_FOR:
            iter_taints = self.expr_taints(node.iter, env)  # type: ignore[attr-defined]
            self._assign_targets(
                pairs, [node.target], iter_taints, node.lineno  # type: ignore[attr-defined]
            )
        elif element.kind == KIND_WITH:
            for item in node.items:  # type: ignore[attr-defined]
                if item.optional_vars is not None:
                    taints = self.expr_taints(item.context_expr, env)
                    self._assign_targets(
                        pairs, [item.optional_vars], taints, node.lineno
                    )
        elif isinstance(node, ast.Assign):
            taints = self.expr_taints(node.value, env)
            self._assign_targets(pairs, node.targets, taints, node.lineno)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            taints = self.expr_taints(node.value, env)
            self._assign_targets(pairs, [node.target], taints, node.lineno)
        elif isinstance(node, ast.AugAssign):
            # x += v reads x, so existing taints survive; v may add more.
            taints = self.expr_taints(node.value, env)
            if isinstance(node.target, ast.Name) and taints:
                name = node.target.id
                for taint in taints:
                    pairs.add((name, taint.extend(name, node.lineno)))
        return _normalize(pairs)

    def _assign_targets(
        self,
        pairs: Set[Tuple[str, Taint]],
        targets: List[ast.AST],
        taints: Set[Taint],
        lineno: int,
    ) -> None:
        names: List[str] = []
        for target in targets:
            names.extend(_plain_names(target))
        if not names:
            return
        for name in names:
            pairs.difference_update(
                {(n, t) for n, t in pairs if n == name}
            )
            for taint in taints:
                pairs.add((name, taint.extend(name, lineno)))


def _plain_names(target: ast.AST) -> List[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, (ast.Tuple, ast.List)):
        names: List[str] = []
        for elt in target.elts:
            names.extend(_plain_names(elt))
        return names
    if isinstance(target, ast.Starred):
        return _plain_names(target.value)
    return []


def _hashlib_handles(fn: FunctionModel) -> Set[str]:
    """Names assigned (anywhere in the function) from a hashlib call."""
    handles: Set[str] = set()
    for node in ast.walk(fn.node):
        if not isinstance(node, ast.Assign):
            continue
        if not isinstance(node.value, ast.Call):
            continue
        qualified = fn.imports.qualified(node.value.func)
        if qualified is not None and qualified.startswith("hashlib."):
            for target in node.targets:
                handles.update(_plain_names(target))
    return handles


def run_taint(
    fn: FunctionModel,
    resolver: _Resolver,
    seed_params: bool = False,
) -> TaintRun:
    """Solve taint for one function and collect sink hits.

    ``seed_params=True`` runs summary mode: parameters enter tainted, so
    the result reveals which params reach sinks / flow to the return.
    """
    analysis = _TaintAnalysis(fn, resolver, seed_params)
    facts = solve(fn.cfg, analysis)
    run = TaintRun()
    digest_handles = _hashlib_handles(fn)
    fn_is_digest = is_digest_sink_name(fn.qualname)
    for block, position, element in fn.cfg.elements():
        fact: _Fact = facts[block.index][0]  # type: ignore[assignment]
        for prior in block.elements[:position]:
            fact = analysis.transfer(prior, fact)
        env: Dict[str, Set[Taint]] = {}
        for name, taint in fact:
            env.setdefault(name, set()).add(taint)
        node = element.node
        for call in _calls_in(node):
            self_update = _is_update_on(call, digest_handles)
            qualified = fn.imports.qualified(call.func)
            resolved = resolver.resolve_call(fn, call)
            sink_label: Optional[str] = None
            tainted_args: Set[Taint] = set()
            if self_update or (
                qualified is not None and qualified.startswith("hashlib.")
            ):
                sink_label = ast.unparse(call.func)
                tainted_args = analysis._arg_taints(call, env)
            elif qualified is not None and is_digest_sink_name(qualified):
                sink_label = qualified.rsplit(".", 1)[-1]
                tainted_args = analysis._arg_taints(call, env)
            elif resolved is not None:
                summary = resolver.summary(resolved)
                if summary.sink_params:
                    for position_, name in analysis._argument_bindings(
                        call, resolved
                    ):
                        if name not in summary.sink_params:
                            continue
                        for taint in analysis._binding_taints(
                            call, position_, env
                        ):
                            run.sink_hits.append(
                                SinkHit(
                                    line=call.lineno,
                                    sink=f"{resolved}(param {name!r})",
                                    taint=taint,
                                )
                            )
            if sink_label is not None:
                for taint in sorted(tainted_args):
                    run.sink_hits.append(
                        SinkHit(line=call.lineno, sink=sink_label, taint=taint)
                    )
        if isinstance(node, ast.Return) and node.value is not None:
            taints = analysis.expr_taints(node.value, env)
            run.return_taints |= taints
            if fn_is_digest:
                for taint in sorted(taints):
                    run.sink_hits.append(
                        SinkHit(
                            line=node.lineno,
                            sink=f"return of {fn.qualname}()",
                            taint=taint,
                        )
                    )
    run.sink_hits = sorted(set(run.sink_hits))
    return run


def _calls_in(node: ast.AST) -> List[ast.Call]:
    calls = [
        child for child in ast.walk(node) if isinstance(child, ast.Call)
    ]
    return sorted(calls, key=lambda c: (c.lineno, c.col_offset))


def _is_update_on(call: ast.Call, handles: Set[str]) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "update"
        and isinstance(func.value, ast.Name)
        and func.value.id in handles
    )


#: The callable type the engine passes in (documented, not enforced).
ResolverLike = Callable
