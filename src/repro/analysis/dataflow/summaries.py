"""Per-function summaries that make the dataflow rules interprocedural.

The intraprocedural machinery (CFG + solver + taint) sees one function at
a time.  :class:`SummaryIndex` lifts it across call edges by memoizing,
per call-graph node, the few facts callers need:

* **taint** — does the callee return nondeterminism, pass a parameter
  through to its return, or feed a parameter into a digest sink;
* **blocking** — which direct blocking calls (file/socket/sleep/
  subprocess) the callee makes, and whether any blocking call is
  transitively reachable from it.

Summaries key through the existing conservative
:class:`~repro.analysis.graph.callgraph.CallGraph`: call resolution never
leaves the caller's forward import closure, which is exactly the set the
dependency-digest cache fingerprints — a cached verdict can therefore
never be stale.  Recursion is cut with an in-progress guard that yields
the empty summary, the safe (under-approximating) fixpoint seed.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.dataflow.model import FunctionModel, ModelIndex
from repro.analysis.dataflow.taint import (
    EMPTY_SUMMARY,
    TaintRun,
    TaintSummary,
    run_taint,
)

__all__ = ["SummaryIndex", "BLOCKING_CALLS", "BLOCKING_ATTRS"]

#: Canonical dotted names that block the event loop when awaited around.
BLOCKING_CALLS = {
    "open",
    "io.open",
    "time.sleep",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "socket.create_connection",
    "socket.getaddrinfo",
    "urllib.request.urlopen",
    "shutil.copy",
    "shutil.copy2",
    "shutil.copyfile",
    "shutil.copytree",
    "shutil.rmtree",
    "shutil.move",
}

#: Attribute calls that are file I/O no matter the receiver type
#: (``Path.read_text`` and friends).
BLOCKING_ATTRS = {
    "read_text",
    "write_text",
    "read_bytes",
    "write_bytes",
}

class SummaryIndex:
    """Memoized per-function summaries over one lint sweep.

    Also the resolver the taint engine runs against: it implements
    ``resolve_call`` / ``summary`` / ``function_model``.
    """

    def __init__(self, project, models: ModelIndex):
        self.project = project
        self.calls = project.calls
        self.models = models
        self._taint: Dict[str, TaintSummary] = {}
        self._taint_in_progress: Set[str] = set()
        self._blocking: Dict[str, Tuple[Tuple[str, int], ...]] = {}

    # -- resolver protocol (consumed by taint) -------------------------
    def resolve_call(
        self, fn: FunctionModel, call: ast.Call
    ) -> Optional[str]:
        """Resolve a call expression in ``fn`` to a call-graph node."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and fn.class_name is not None
        ):
            candidate = f"{fn.module}.{fn.class_name}.{func.attr}"
            if candidate in self.calls.functions:
                return candidate
            return None
        qualified = fn.imports.qualified(func)
        if qualified is None:
            return None
        return self.calls.resolve_callable(fn.module, qualified)

    def function_model(self, fq: str) -> Optional[FunctionModel]:
        return self.models.function(fq)

    def summary(self, fq: str) -> TaintSummary:
        cached = self._taint.get(fq)
        if cached is not None:
            return cached
        if fq in self._taint_in_progress:
            # Recursive cycle: seed with the empty summary.  Under-
            # approximates recursive taint, never fabricates it.
            return EMPTY_SUMMARY
        model = self.models.function(fq)
        if model is None:
            return EMPTY_SUMMARY
        self._taint_in_progress.add(fq)
        try:
            run = run_taint(model, self, seed_params=True)
            summary = _summary_from_run(run)
        finally:
            self._taint_in_progress.discard(fq)
        self._taint[fq] = summary
        return summary

    def taint_run(self, fn: FunctionModel) -> TaintRun:
        """Caller-mode taint: real sources only, params untainted."""
        return run_taint(fn, self, seed_params=False)

    # -- blocking calls -------------------------------------------------
    def direct_blocking(self, fq: str) -> Tuple[Tuple[str, int], ...]:
        """Blocking calls made directly in ``fq``'s own body.

        Calls inside nested ``def``/``lambda`` are excluded: defining a
        closure blocks nothing, and handing it to an executor
        (``asyncio.to_thread(fn)``) is precisely the sanctioned fix.
        """
        cached = self._blocking.get(fq)
        if cached is not None:
            return cached
        model = self.models.function(fq)
        if model is None:
            self._blocking[fq] = ()
            return ()
        hits: List[Tuple[str, int]] = []
        for node in _walk_own_body(model.node):
            if not isinstance(node, ast.Call):
                continue
            qualified = model.imports.qualified(node.func)
            if qualified in BLOCKING_CALLS:
                hits.append((qualified, node.lineno))
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in BLOCKING_ATTRS
            ):
                hits.append((f"*.{node.func.attr}", node.lineno))
        result = tuple(sorted(set(hits), key=lambda hit: (hit[1], hit[0])))
        self._blocking[fq] = result
        return result

    def blocking_reachable(
        self, fq: str
    ) -> Optional[Tuple[List[str], Tuple[str, int]]]:
        """Shortest sync call chain from ``fq`` to a blocking call.

        Returns ``(chain, (blocking_name, line))`` with ``chain`` the fq
        names walked (``fq`` exclusive) — empty when ``fq`` itself
        blocks.  Async callees are skipped: an ``await`` of another
        coroutine yields; that coroutine gets its own finding.
        """
        direct = self.direct_blocking(fq)
        if direct:
            return [], direct[0]
        parents: Dict[str, str] = {}
        seen = {fq}
        frontier = [fq]
        while frontier:
            next_frontier: List[str] = []
            for node in frontier:
                for callee in self.calls.callees(node):
                    if callee in seen:
                        continue
                    seen.add(callee)
                    callee_model = self.models.function(callee)
                    if callee_model is not None and callee_model.is_async:
                        continue
                    parents[callee] = node
                    hit = self.direct_blocking(callee)
                    if hit:
                        chain = [callee]
                        while parents.get(chain[-1], fq) != fq:
                            chain.append(parents[chain[-1]])
                        return list(reversed(chain)), hit[0]
                    next_frontier.append(callee)
            frontier = next_frontier
        return None

def _summary_from_run(run: TaintRun) -> TaintSummary:
    sink_params: Set[str] = set()
    for hit in run.sink_hits:
        param = hit.taint.from_param
        if param is not None:
            sink_params.add(param)
    param_to_return: Set[str] = set()
    returns_sources = []
    for taint in sorted(run.return_taints):
        param = taint.from_param
        if param is not None:
            param_to_return.add(param)
        else:
            returns_sources.append(taint)
    return TaintSummary(
        returns_sources=tuple(returns_sources),
        param_to_return=frozenset(param_to_return),
        sink_params=frozenset(sink_params),
    )


def _walk_own_body(fn_node: ast.AST):
    """Walk a function's AST skipping nested function/lambda bodies."""
    pending: List[ast.AST] = list(ast.iter_child_nodes(fn_node))
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))

