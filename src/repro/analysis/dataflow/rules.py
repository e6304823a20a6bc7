"""The dataflow rule pack: concurrency and resource-safety findings.

Five rules, each impossible to state per-file or per-module:

* ``shared-state-race`` — a pool task or thread target whose call tree
  reads *and* writes module-level state, or read-modify-writes it;
* ``blocking-call-in-async`` — a blocking call reachable from an
  ``async def`` without an executor hop;
* ``memmap-escape`` — a memmap view escaping the scope that owns its
  backing file;
* ``impure-digest-flow`` — a nondeterministic value flowing into a
  digest, reported with its full def-use chain;
* ``resource-leak`` — a handle acquired outside ``with`` that some CFG
  path drops without closing.

Every finding anchors where a ``# repro: noqa[rule]`` pragma can
suppress it: the sink line for taint, the escape site for memmaps, the
submission site for races, the acquisition line for leaks.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple, Type

from repro.analysis.core import Finding
from repro.analysis.dataflow.cfg import CFG, Element, KIND_WITH
from repro.analysis.dataflow.model import (
    FunctionModel,
    ModelIndex,
    ModuleModel,
)
from repro.analysis.dataflow.solver import Analysis, solve
from repro.analysis.dataflow.summaries import MUTATING_METHODS, SummaryIndex
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

    project: object  # ProjectGraph
    models: ModelIndex
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
    severity: str = "error"
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
            severity=self.severity,
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
        [
            (rule.name, rule.version, rule.severity)
            for rule in all_dataflow_rules()
        ]
    )


# -- shared helpers ------------------------------------------------------


def _names_in(node: ast.AST) -> Set[str]:
    return {
        child.id
        for child in ast.walk(node)
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load)
    }


def _direct_names(node: ast.AST) -> Set[str]:
    """Names referenced directly: a bare name or a tuple/list of them."""
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, (ast.Tuple, ast.List)):
        names: Set[str] = set()
        for elt in node.elts:
            names |= _direct_names(elt)
        return names
    if isinstance(node, ast.Starred):
        return _direct_names(node.value)
    return set()


def _access_root(node: ast.AST) -> Optional[str]:
    """Root name of a pure access chain (``a``, ``a.b``, ``a[k].c``)."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _submission_sites(
    tree: ast.AST,
) -> List[Tuple[str, ast.Call, ast.AST]]:
    """``(kind, call, target_expr)`` for run_wave / Thread submissions."""
    sites: List[Tuple[str, ast.Call, ast.AST]] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr == "run_wave":
            if node.args:
                sites.append(("pool task", node, node.args[0]))
        name = (
            func.id
            if isinstance(func, ast.Name)
            else func.attr if isinstance(func, ast.Attribute) else None
        )
        if name == "Thread":
            for keyword in node.keywords:
                if keyword.arg == "target":
                    sites.append(("thread target", node, keyword.value))
    return sites


# -- shared-state-race ---------------------------------------------------


@register_dataflow_rule
class SharedStateRace(DataflowRule):
    name = "shared-state-race"
    description = (
        "A function submitted to a WaveExecutor pool or thread reads and "
        "writes module-level or closure state somewhere in its call tree; "
        "concurrent executions race on it."
    )
    severity = "error"
    example_positive = (
        "import threading\n"
        "COUNTS = {}\n"
        "def tally(key):\n"
        "    COUNTS[key] = COUNTS.get(key, 0) + 1\n"
        "def run(pool):\n"
        "    pool.run_wave(tally, ['a', 'b'])\n"
    )
    example_negative = (
        "def tally(key):\n"
        "    return (key, 1)  # pure: results merged by the caller\n"
        "def run(pool):\n"
        "    pool.run_wave(tally, ['a', 'b'])\n"
    )

    def check_module(self, ctx: DataflowContext) -> Iterable[Finding]:
        tree = ctx.module_model.tree
        if tree is None:
            return []
        findings: List[Finding] = []
        nested_by_fn = {
            fn.qualname: _nested_defs(fn.node) for fn in ctx.functions()
        }
        for fn in ctx.functions():
            nested = nested_by_fn[fn.qualname]
            for kind, call, target in _submission_sites(fn.node):
                findings.extend(
                    self._check_site(ctx, fn, kind, call, target, nested)
                )
        # Module-scope submissions (scripts): resolve globally only.
        for kind, call, target in _submission_sites(tree):
            if any(
                call.lineno >= fn.lineno
                and call.lineno <= _end_line(fn.node)
                for fn in ctx.functions()
            ):
                continue
            findings.extend(self._check_site(ctx, None, kind, call, target, {}))
        return findings

    def _check_site(
        self,
        ctx: DataflowContext,
        fn: Optional[FunctionModel],
        kind: str,
        call: ast.Call,
        target: ast.AST,
        nested: Dict[str, ast.AST],
    ) -> Iterable[Finding]:
        if not isinstance(target, ast.Name):
            return []
        name = target.id
        if fn is not None and name in nested:
            return self._check_closure(ctx, fn, kind, call, name, nested[name])
        resolved = ctx.summaries.calls.resolve_callable(
            ctx.module_model.module, name
        )
        if resolved is None:
            qualified = (
                ctx.module_model.imports.resolve(name)
                if ctx.module_model.imports is not None
                else None
            )
            if qualified is not None:
                resolved = ctx.summaries.calls.resolve_callable(
                    ctx.module_model.module, qualified
                )
        if resolved is None:
            return []
        reached = frozenset({resolved}) | ctx.summaries.calls.reachable(resolved)
        return self._check_reached(ctx, kind, call, name, reached)

    def _check_reached(
        self,
        ctx: DataflowContext,
        kind: str,
        call: ast.Call,
        name: str,
        reached: FrozenSet[str],
    ) -> Iterable[Finding]:
        reads: Dict[str, str] = {}
        writes: Dict[str, str] = {}
        rmw: Dict[str, str] = {}
        for fq in sorted(reached):
            effects = ctx.summaries.global_effects(fq)
            for shared in effects.reads:
                reads.setdefault(shared, fq)
            for shared in effects.writes:
                writes.setdefault(shared, fq)
            for shared in effects.rmw:
                rmw.setdefault(shared, fq)
        racy = sorted(set(rmw) | (set(reads) & set(writes)))
        findings = []
        for shared in racy:
            writer = rmw.get(shared) or writes[shared]
            findings.append(
                self.finding(
                    ctx,
                    call.lineno,
                    f"{kind} '{name}' reads and writes module state "
                    f"'{shared}' (written in {writer}); concurrent "
                    "executions race on it",
                    col=call.col_offset,
                )
            )
        return findings

    def _check_closure(
        self,
        ctx: DataflowContext,
        fn: FunctionModel,
        kind: str,
        call: ast.Call,
        name: str,
        inner: ast.AST,
    ) -> Iterable[Finding]:
        """A nested-def target that writes enclosing-scope state races."""
        inner_locals = _bound_names(inner)
        captured_writes = sorted(
            shared
            for shared in _rmw_names(inner)
            if shared not in inner_locals and shared in fn.local_names()
        )
        return [
            self.finding(
                ctx,
                call.lineno,
                f"{kind} '{name}' mutates captured variable '{shared}' "
                "of its enclosing scope; concurrent executions race on it",
                col=call.col_offset,
            )
            for shared in captured_writes
        ]


def _nested_defs(fn_node: ast.AST) -> Dict[str, ast.AST]:
    nested: Dict[str, ast.AST] = {}
    for node in ast.walk(fn_node):
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fn_node
        ):
            nested[node.name] = node
    return nested


def _bound_names(fn_node: ast.AST) -> Set[str]:
    bound: Set[str] = set()
    args = fn_node.args  # type: ignore[attr-defined]
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        bound.add(arg.arg)
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            # nonlocal-declared names bind the *enclosing* scope.
            bound.add(node.id)
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Nonlocal):
            bound.difference_update(node.names)
    return bound


def _rmw_names(fn_node: ast.AST) -> Set[str]:
    """Names a function read-modify-writes (augassign, mutation, store)."""
    names: Set[str] = set()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            names.add(node.target.id)
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATING_METHODS
                and isinstance(func.value, ast.Name)
            ):
                names.add(func.value.id)
        elif isinstance(node, ast.Subscript) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            if isinstance(node.value, ast.Name):
                names.add(node.value.id)
    return names


def _end_line(node: ast.AST) -> int:
    return getattr(node, "end_lineno", None) or node.lineno  # type: ignore[attr-defined]


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
    severity = "error"
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


# -- memmap-escape -------------------------------------------------------

_MEMMAP_CALLS = {"numpy.memmap"}
_MEMMAP_NAME_SUFFIXES = ("open_arrays_memmap",)


def _is_memmap_source(
    model: ModuleModel, call: ast.Call
) -> Optional[str]:
    if model.imports is None:
        return None
    qualified = model.imports.qualified(call.func)
    if qualified is None:
        return None
    if qualified in _MEMMAP_CALLS:
        return qualified
    last = qualified.rsplit(".", 1)[-1]
    if last in _MEMMAP_NAME_SUFFIXES:
        return qualified
    if last == "load_lake":
        for keyword in call.keywords:
            if (
                keyword.arg == "materialize"
                and isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            ):
                return f"{qualified}(materialize=False)"
    return None


@register_dataflow_rule
class MemmapEscape(DataflowRule):
    name = "memmap-escape"
    description = (
        "A memmap-backed array view escapes the scope that owns its "
        "backing file — returned or stored from inside the owning 'with', "
        "or captured by a pool task. Once the file is closed or replaced "
        "the view dereferences freed pages."
    )
    severity = "error"
    example_positive = (
        "def load(path):\n"
        "    with open_arrays_memmap(path) as views:\n"
        "        return views  # backing file closes on exit\n"
    )
    example_negative = (
        "def load(path):\n"
        "    with open_arrays_memmap(path) as views:\n"
        "        data = {k: v.copy() for k, v in views.items()}\n"
        "    return data  # materialized before the file closed\n"
    )

    def check_module(self, ctx: DataflowContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fn in ctx.functions():
            findings.extend(self._check_function(ctx, fn))
        return findings

    def _check_function(
        self, ctx: DataflowContext, fn: FunctionModel
    ) -> Iterable[Finding]:
        model = ctx.module_model
        scoped: Dict[str, str] = {}  # with-as views: name -> source
        plain: Dict[str, str] = {}  # assigned views: name -> source
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if not isinstance(item.context_expr, ast.Call):
                        continue
                    source = _is_memmap_source(model, item.context_expr)
                    if source is None or item.optional_vars is None:
                        continue
                    if isinstance(item.optional_vars, ast.Name):
                        scoped[item.optional_vars.id] = source
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                source = _is_memmap_source(model, node.value)
                if source is None:
                    continue
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        plain[target.id] = source
        if not scoped and not plain:
            return []
        # Propagate through pure access chains: `view = lake.weights[k]`
        # is still backed by the mapped file, while a call in between
        # (`.copy()`, `np.array(...)`) materializes and breaks the tie.
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Assign):
                    continue
                root = _access_root(node.value)
                if root is None:
                    continue
                for pool, sources in ((scoped, scoped), (plain, plain)):
                    if root not in sources:
                        continue
                    for target in node.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id not in pool
                        ):
                            pool[target.id] = sources[root]
                            changed = True
        findings: List[Finding] = []
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                for name in sorted(_names_in(node.value) & set(scoped)):
                    findings.append(
                        self.finding(
                            ctx,
                            node.lineno,
                            f"memmap view '{name}' from "
                            f"{scoped[name]} escapes via return; its "
                            "backing file closes when the 'with' exits",
                        )
                    )
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if not isinstance(target, (ast.Attribute, ast.Subscript)):
                        continue
                    stored = _names_in(node.value) & set(scoped)
                    for name in sorted(stored):
                        findings.append(
                            self.finding(
                                ctx,
                                node.lineno,
                                f"memmap view '{name}' from "
                                f"{scoped[name]} stored into an attribute "
                                "or container that outlives its owning "
                                "'with' scope; the backing file closes "
                                "before the stored view dies",
                            )
                        )
        nested = _nested_defs(fn.node)
        for kind, call, target in _submission_sites(fn.node):
            captured = set()
            for arg in call.args[1:]:
                captured |= _names_in(arg)
            for keyword in call.keywords:
                captured |= _names_in(keyword.value)
            if isinstance(target, ast.Name) and target.id in nested:
                # A nested task closes over views by reference.
                inner = nested[target.id]
                captured |= _names_in(inner) - _bound_names(inner)
            for name in sorted(captured & (set(scoped) | set(plain))):
                source = scoped.get(name) or plain[name]
                findings.append(
                    self.finding(
                        ctx,
                        call.lineno,
                        f"memmap view '{name}' from {source} captured by "
                        f"{kind}; worker lifetime can outlast the backing "
                        "file",
                    )
                )
        return findings


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
    severity = "error"
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


# -- resource-leak -------------------------------------------------------

_RESOURCE_CALLS = {
    "open": "file handle",
    "io.open": "file handle",
    "gzip.open": "file handle",
    "bz2.open": "file handle",
    "lzma.open": "file handle",
    "os.fdopen": "file handle",
    "tempfile.TemporaryFile": "temp file",
    "tempfile.NamedTemporaryFile": "temp file",
    "socket.socket": "socket",
    "numpy.memmap": "memmap",
}

_RELEASING_CALLS = {"contextlib.closing", "atexit.register"}
_RELEASING_ATTRS = {"close", "enter_context", "push", "callback"}


def _acquisition(model: ModuleModel, call: ast.Call) -> Optional[str]:
    if model.imports is None:
        return None
    qualified = model.imports.qualified(call.func)
    if qualified is None:
        return None
    if qualified in _RESOURCE_CALLS:
        return qualified
    if qualified.rsplit(".", 1)[-1] in _MEMMAP_NAME_SUFFIXES:
        return qualified
    return None


_Resource = Tuple[str, int, str]  # (name, acq_line, acquired_from)


class _ResourceAnalysis(Analysis):
    """Forward may-analysis: open resources live at each point."""

    def __init__(self, model: ModuleModel):
        self.model = model

    def bottom(self, cfg: CFG) -> FrozenSet[_Resource]:
        return frozenset()

    def join(
        self, left: FrozenSet[_Resource], right: FrozenSet[_Resource]
    ) -> FrozenSet[_Resource]:
        return left | right

    def transfer(
        self, element: Element, fact: FrozenSet[_Resource]
    ) -> FrozenSet[_Resource]:
        node = element.node
        open_now = set(fact)
        if element.kind == KIND_WITH:
            # `with f:` and `with open(...) as f:` both guarantee close.
            for item in node.items:  # type: ignore[attr-defined]
                for name in _names_in(item.context_expr):
                    open_now = {r for r in open_now if r[0] != name}
            return frozenset(open_now)
        if isinstance(node, ast.Raise):
            # Exception paths finalize via GC; stay focused on leaks
            # along normal completion.
            return frozenset()
        value = getattr(node, "value", None)
        transferred: Set[str] = set()
        if isinstance(node, ast.Return) and value is not None:
            # Only a handle returned *directly* (or in a tuple of names)
            # transfers ownership; `return json.load(handle)` returns
            # the parsed data and still leaks the handle.
            transferred = _direct_names(value)
        elif isinstance(node, ast.Expr) and isinstance(
            value, (ast.Yield, ast.YieldFrom, ast.Await)
        ):
            inner = value.value
            if inner is not None:
                transferred = _direct_names(inner)
        for name in transferred:
            open_now = {r for r in open_now if r[0] != name}
        for call in (
            child
            for child in ast.walk(node)
            if isinstance(child, ast.Call)
        ):
            released = self._released_by(call)
            if released:
                open_now = {r for r in open_now if r[0] not in released}
        if isinstance(node, ast.Assign):
            target_names: Set[str] = set()
            stores_away = False
            for target in node.targets:
                if isinstance(target, ast.Name):
                    target_names.add(target.id)
                elif isinstance(target, (ast.Attribute, ast.Subscript)):
                    stores_away = True
            if stores_away:
                # self.f = f / registry[k] = f: ownership moves to the
                # container; its lifecycle owns the close.
                for name in _names_in(node.value):
                    open_now = {r for r in open_now if r[0] != name}
            if target_names:
                open_now = {
                    r for r in open_now if r[0] not in target_names
                }
                if isinstance(node.value, ast.Call):
                    acquired = _acquisition(self.model, node.value)
                    if acquired is not None:
                        for name in sorted(target_names):
                            open_now.add((name, node.lineno, acquired))
        return frozenset(open_now)

    def _released_by(self, call: ast.Call) -> Set[str]:
        func = call.func
        released: Set[str] = set()
        if isinstance(func, ast.Attribute) and func.attr in _RELEASING_ATTRS:
            if func.attr == "close" and isinstance(func.value, ast.Name):
                released.add(func.value.id)
            elif func.attr != "close":
                for arg in call.args:
                    released |= _names_in(arg)
        qualified = (
            self.model.imports.qualified(func)
            if self.model.imports is not None
            else None
        )
        if qualified in _RELEASING_CALLS:
            for arg in call.args:
                released |= _names_in(arg)
        return released


@register_dataflow_rule
class ResourceLeak(DataflowRule):
    name = "resource-leak"
    description = (
        "A file handle, socket, or memmap acquired outside 'with' is not "
        "closed on every control-flow path to the function exit. Paths "
        "that return or store the handle transfer ownership and do not "
        "count as leaks."
    )
    severity = "error"
    example_positive = (
        "def head(path):\n"
        "    f = open(path)\n"
        "    if not path.endswith('.txt'):\n"
        "        return None  # f leaks on this path\n"
        "    data = f.readline()\n"
        "    f.close()\n"
        "    return data\n"
    )
    example_negative = (
        "def head(path):\n"
        "    with open(path) as f:\n"
        "        return f.readline()\n"
    )

    def check_module(self, ctx: DataflowContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        for fn in ctx.functions():
            if not any(
                isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)
                and _acquisition(ctx.module_model, node.value) is not None
                for node in ast.walk(fn.node)
            ):
                continue
            analysis = _ResourceAnalysis(ctx.module_model)
            facts = solve(fn.cfg, analysis)
            at_exit: FrozenSet[_Resource] = facts[fn.cfg.exit][0]  # type: ignore[assignment]
            for name, line, acquired in sorted(at_exit, key=lambda r: (r[1], r[0])):
                findings.append(
                    self.finding(
                        ctx,
                        line,
                        f"{_RESOURCE_CALLS.get(acquired, 'resource')} "
                        f"'{name}' from {acquired}() may never be closed "
                        f"on some path through '{fn.qualname}'; use 'with' "
                        "or close on every path",
                    )
                )
        return findings
