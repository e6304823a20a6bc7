"""A conservative project call graph over extracted function facts.

Nodes are fully-qualified functions (``repro.lake.store.WeightStore.put``).
Resolution is deliberately modest — this feeds lint rules, where a false
edge produces a false finding — and layered:

1. a canonical dotted call target that names a known function resolves
   exactly (``repro.utils.hashing.stable_hash``), including targets
   spelled through an imported module or class
   (``hashing.stable_hash``, ``WeightStore.put``);
2. a bare name resolves within the caller's own module;
3. ``self.method()`` resolves to a method of the caller's own class;
4. an ``obj.attr()`` call resolves only when exactly one function in the
   caller's *import closure* (plus its own module) bears that method
   name — ambiguity yields no edge rather than a guessed one.

Restricting attribute-heuristic targets to the import closure keeps
every reachability query inside the caller's forward dependency cone,
which is exactly the set the dependency-aware cache fingerprints; the
cache can therefore never serve a stale interprocedural verdict.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.graph.extract import FunctionFacts
from repro.analysis.graph.imports import ImportGraph

__all__ = ["CallGraph"]


class CallGraph:
    def __init__(self, graph: ImportGraph):
        self.graph = graph
        #: "module.qualname" -> (module, FunctionFacts)
        self.functions: Dict[str, Tuple[str, FunctionFacts]] = {}
        #: method/function bare name -> fq names carrying it
        self._by_name: Dict[str, List[str]] = {}
        #: module -> {class -> {method -> fq}}
        self._methods: Dict[str, Dict[str, Dict[str, str]]] = {}
        for module, rel_path in sorted(graph.modules.items()):
            facts = graph.facts[rel_path]
            for fn in facts.functions:
                fq = f"{module}.{fn.qualname}"
                self.functions[fq] = (module, fn)
                bare = fn.qualname.rsplit(".", 1)[-1]
                self._by_name.setdefault(bare, []).append(fq)
                if "." in fn.qualname:
                    class_name, method = fn.qualname.rsplit(".", 1)
                    self._methods.setdefault(module, {}).setdefault(
                        class_name, {}
                    )[method] = fq
        self._edges: Dict[str, Tuple[str, ...]] = {}

    # -- resolution ----------------------------------------------------
    def _resolve_dotted(self, module: str, target: str) -> Optional[str]:
        """Resolve one canonical dotted call target from ``module``."""
        if target in self.functions:
            return target
        # Module-local bare name or Class.method chain.
        local = f"{module}.{target}"
        if local in self.functions:
            return local
        # Imported class method: resolve the deepest module prefix, then
        # treat the remainder as qualname within it.
        owner = self.graph.resolve(target)
        if owner is not None and owner != target:
            remainder = target[len(owner) + 1:]
            candidate = f"{owner}.{remainder}"
            if candidate in self.functions:
                return candidate
        return None

    def _resolve_attr(self, module: str, name: str) -> Optional[str]:
        """Unique-name heuristic, scoped to the caller's import closure."""
        candidates = self._by_name.get(name)
        if not candidates:
            return None
        closure = self.graph.forward_closure(module)
        scoped = [
            fq for fq in candidates if self.functions[fq][0] in closure
        ]
        if len(scoped) == 1:
            return scoped[0]
        return None

    def callees(self, fq: str) -> Tuple[str, ...]:
        cached = self._edges.get(fq)
        if cached is not None:
            return cached
        module, fn = self.functions[fq]
        resolved: Set[str] = set()
        for target in fn.calls:
            callee = self._resolve_dotted(module, target)
            if callee is not None:
                resolved.add(callee)
        if "." in fn.qualname:
            class_name = fn.qualname.rsplit(".", 1)[0]
            class_methods = self._methods.get(module, {}).get(class_name, {})
            for method in fn.self_calls:
                callee = class_methods.get(method)
                if callee is not None:
                    resolved.add(callee)
        for name in fn.attr_calls:
            callee = self._resolve_attr(module, name)
            if callee is not None:
                resolved.add(callee)
        edges = tuple(sorted(resolved - {fq}))
        self._edges[fq] = edges
        return edges

    # -- queries -------------------------------------------------------
    def resolve_callable(self, module: str, target: str) -> Optional[str]:
        """Public entry: resolve a dotted callable reference from a module."""
        return self._resolve_dotted(module, target)

    def reachable(self, fq: str) -> FrozenSet[str]:
        """Every function transitively callable from ``fq`` (exclusive)."""
        seen: Set[str] = set()
        pending = list(self.callees(fq))
        while pending:
            node = pending.pop()
            if node in seen or node == fq:
                continue
            seen.add(node)
            pending.extend(self.callees(node))
        return frozenset(seen)
