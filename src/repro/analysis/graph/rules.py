"""Interprocedural rules evaluated over the whole-program graphs.

Unlike per-file rules (:mod:`repro.analysis.rules`), these see the
assembled :class:`~repro.analysis.graph.project.ProjectGraph`.  They
come in two scopes:

* **module scope** — a module's findings depend only on its forward
  import closure (its own imports, the contract, and everything it can
  transitively reach).  These cache per file under a dependency digest.
* **project scope** — ``dead-symbol`` needs every file's references, so
  it caches under one global fingerprint instead.

Rule names share the namespace of the per-file rules: pragmas,
``--select``/``--ignore``, and the baseline ledger treat both kinds
uniformly.
"""

from __future__ import annotations

from typing import Dict, Iterator, List

from repro.analysis.core import Finding

__all__ = [
    "GraphRule",
    "register_graph_rule",
    "all_graph_rules",
    "graph_rule_names",
    "graph_rules_fingerprint",
]

#: Identifiers that are alive by convention even with zero references.
_IMPLICITLY_ALIVE = {"main"}


class GraphRule:
    """Base for one whole-program invariant."""

    name: str = ""
    description: str = ""
    version: int = 1
    scope: str = "module"  # "module" | "project"
    #: Minimal sources for ``repro lint --explain``.
    example_positive: str = ""
    example_negative: str = ""

    def check_module(self, project, module: str) -> Iterator[Finding]:
        """Module-scope findings; must only read the module's forward
        closure (that is what the dependency cache fingerprints)."""
        return iter(())

    def check_project(self, project) -> Iterator[Finding]:
        """Project-scope findings (``scope == "project"`` only)."""
        return iter(())

    def finding(
        self, rel_path: str, lineno: int, message: str
    ) -> Finding:
        return Finding(
            path=rel_path,
            line=lineno,
            col=0,
            rule=self.name,
            message=message,
        )


_GRAPH_REGISTRY: Dict[str, GraphRule] = {}


def register_graph_rule(cls: type) -> type:
    instance = cls()
    if not instance.name:
        raise ValueError(f"graph rule class {cls.__name__} has no name")
    if instance.name in _GRAPH_REGISTRY:
        raise ValueError(f"duplicate graph rule name: {instance.name}")
    _GRAPH_REGISTRY[instance.name] = instance
    return cls


def all_graph_rules() -> List[GraphRule]:
    return [_GRAPH_REGISTRY[name] for name in sorted(_GRAPH_REGISTRY)]


def graph_rule_names() -> List[str]:
    return sorted(_GRAPH_REGISTRY)


def graph_rules_fingerprint() -> str:
    from repro.utils.hashing import stable_hash

    payload = [
        (rule.name, rule.version, rule.scope)
        for rule in all_graph_rules()
    ]
    return stable_hash(payload)


@register_graph_rule
class ImportCycle(GraphRule):
    """A top-level import cycle is an ImportError held together by luck.

    Function-body imports are exempt: a lazy import is the sanctioned
    way to break a cycle (the rule-registry pattern depends on it).
    """

    name = "import-cycle"
    description = "module participates in a top-level import cycle"
    version = 1
    example_positive = (
        "# pkg/a.py\n"
        "from pkg.b import helper\n"
        "# pkg/b.py\n"
        "from pkg.a import other  # completes the cycle\n"
    )
    example_negative = (
        "# pkg/a.py\n"
        "def late():\n"
        "    from pkg.b import helper  # lazy import breaks the cycle\n"
        "    return helper()\n"
    )

    def check_module(self, project, module: str) -> Iterator[Finding]:
        graph = project.imports
        scc = graph.scc_of(module)
        members = sorted(scc)
        self_loop = len(members) == 1 and module in graph.edges[module]
        if len(members) == 1 and not self_loop:
            return
        rel_path = graph.modules[module]
        if self_loop:
            yield self.finding(
                rel_path,
                graph.edge_line(module, module),
                f"module {module} imports itself at top level",
            )
            return
        # Anchor the finding on this module's first edge into the cycle.
        peers = [m for m in members if m != module]
        target = next(
            (m for m in peers if m in graph.edges[module]), peers[0]
        )
        chain = " -> ".join(members + [members[0]])
        yield self.finding(
            rel_path,
            graph.edge_line(module, target),
            f"top-level import cycle: {chain}; break it with a "
            "function-body import or an extracted module",
        )


@register_graph_rule
class LayeringViolation(GraphRule):
    """Imports must respect the declared layer contract (lazy ones too)."""

    name = "layering-violation"
    description = "import edge breaks the .repro-arch.toml layer contract"
    version = 1
    example_positive = (
        "# src/repro/utils/paths.py — utils is the bottom layer\n"
        "from repro.lake.store import WeightStore  # imports upward\n"
    )
    example_negative = (
        "# src/repro/lake/store.py — lake may reach down into utils\n"
        "from repro.utils.hashing import stable_hash\n"
    )

    def check_module(self, project, module: str) -> Iterator[Finding]:
        contract = project.contract
        if contract is None:
            return
        graph = project.imports
        rel_path = graph.modules[module]
        for imported, lineno, _top_level in graph.iter_import_edges(module):
            reason = contract.violation(module, imported)
            if reason is not None:
                yield self.finding(
                    rel_path,
                    lineno,
                    f"{module} imports {imported}: {reason}",
                )


@register_graph_rule
class PoolTaskClosure(GraphRule):
    """Pool-submitted callables must be clean across module boundaries.

    The per-file ``pool-task`` rule sees lambdas and nested defs at the
    submission site; this rule follows the reference into its defining
    module — a task imported from elsewhere must resolve to a genuine
    module-level function (not a module-level lambda), and nothing the
    task transitively calls may mutate module state via ``global``
    (workers would each mutate their own copy and the writes are lost).
    Initializers are exempt from the global check: installing worker
    state is their documented job.
    """

    name = "pool-task-closure"
    description = (
        "WaveExecutor task resolves to unpicklable or worker-unsafe code"
    )
    version = 1
    example_positive = (
        "# tasks.py\n"
        "SEEN = set()\n"
        "def train(spec):\n"
        "    global SEEN\n"
        "    SEEN = SEEN | {spec.name}  # lost in pooled workers\n"
        "# driver.py\n"
        "from tasks import train\n"
        "def run(pool, specs):\n"
        "    pool.run_wave(train, specs)\n"
    )
    example_negative = (
        "# tasks.py\n"
        "def train(spec):\n"
        "    return spec.name  # results flow back via the wave\n"
        "# driver.py\n"
        "from tasks import train\n"
        "def run(pool, specs):\n"
        "    pool.run_wave(train, specs)\n"
    )

    def check_module(self, project, module: str) -> Iterator[Finding]:
        calls = project.calls
        graph = project.imports
        rel_path = graph.modules[module]
        facts = graph.facts[rel_path]
        for kind, target, lineno in facts.pool_tasks:
            owner = graph.resolve(target)
            if owner is not None and owner != target:
                owner_facts = graph.facts[graph.modules[owner]]
                symbol = target[len(owner) + 1:]
                kinds = {
                    name: sym_kind
                    for name, sym_kind, _line, _dec in owner_facts.symbols
                }
                if kinds.get(symbol) == "lambda":
                    yield self.finding(
                        rel_path,
                        lineno,
                        f"pool {kind} {target} resolves to a module-level "
                        f"lambda in {owner}; lambdas cannot be pickled",
                    )
                    continue
            if kind != "run_wave":
                continue
            resolved = calls.resolve_callable(module, target)
            if resolved is None:
                continue  # unresolvable: stay conservative
            for reached in sorted(calls.reachable(resolved) | {resolved}):
                _mod, reached_fn = calls.functions[reached]
                if reached_fn.uses_global:
                    yield self.finding(
                        rel_path,
                        lineno,
                        f"pool task {target} transitively reaches {reached}, "
                        "which mutates module state via 'global'; pooled "
                        "workers lose these writes relative to inline mode",
                    )


@register_graph_rule
class DeadSymbol(GraphRule):
    """Public API nobody references is documentation that lies.

    A top-level public function or class defined under a source root is
    dead when no file references its name (as a load, an attribute, or
    an import) and no *other* module exports it.  A module's own
    ``__all__`` does not keep a symbol alive — exported-but-unused is
    exactly the rot this rule exists to catch.  Decorated definitions
    are exempt: a decorator like ``@register`` is a reference with
    side effects.
    """

    name = "dead-symbol"
    description = "public top-level symbol is never referenced"
    version = 1
    scope = "project"
    example_positive = (
        "# src/repro/util_extras.py\n"
        "def forgotten_helper():  # nothing imports or calls it\n"
        "    return 42\n"
    )
    example_negative = (
        "# src/repro/util_extras.py\n"
        "def used_helper():\n"
        "    return 42\n"
        "# src/repro/consumer.py\n"
        "from repro.util_extras import used_helper\n"
    )

    def check_project(self, project) -> Iterator[Finding]:
        graph = project.imports
        referenced: Dict[str, int] = {}
        exported_by: Dict[str, List[str]] = {}
        for module, rel_path in graph.modules.items():
            facts = graph.facts[rel_path]
            for name in facts.refs:
                referenced[name] = referenced.get(name, 0) + 1
            for name in facts.exports:
                exported_by.setdefault(name, []).append(module)
        for module in sorted(graph.modules):
            rel_path = graph.modules[module]
            if not any(
                rel_path.startswith(root.rstrip("/") + "/")
                for root in project.source_roots
            ):
                continue
            facts = graph.facts[rel_path]
            for name, kind, lineno, decorated in facts.symbols:
                if kind == "lambda" or decorated:
                    continue
                if name.startswith("_") or name in _IMPLICITLY_ALIVE:
                    continue
                if referenced.get(name, 0) > 0:
                    continue
                if any(m != module for m in exported_by.get(name, [])):
                    continue
                yield self.finding(
                    rel_path,
                    lineno,
                    f"public {kind} {name!r} is never referenced and no "
                    "other module exports it; delete it or add it to a "
                    "consumer",
                )
