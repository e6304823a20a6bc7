"""Core types of the static-analysis framework.

A *rule* inspects one parsed file (a :class:`FileContext`) and yields
:class:`Finding` objects.  Rules register themselves into a process-wide
registry via the :func:`register` decorator, which is what makes the
framework pluggable: dropping a new module under
``repro.analysis.rules`` and decorating its class is all it takes for
``repro lint`` to pick the rule up.

The registry also exposes a :func:`rules_fingerprint` — a stable digest
of every registered rule's name and version — which keys the on-disk
result cache, so editing or adding a rule invalidates cached findings
without any manual cache flush.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.utils.hashing import stable_hash

__all__ = [
    "Finding",
    "FileContext",
    "ImportMap",
    "Rule",
    "register",
    "all_rules",
    "get_rule",
    "rule_names",
    "rules_fingerprint",
]

@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violated at a position in a file."""

    path: str  # lint-root-relative, posix separators
    line: int
    col: int
    rule: str
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            col=int(payload["col"]),  # type: ignore[arg-type]
            rule=str(payload["rule"]),
            message=str(payload["message"]),
        )

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"


class ImportMap:
    """Resolution of local names to canonical dotted module paths.

    Built once per file from its import statements::

        import numpy as np            ->  np        => numpy
        import logging as _logging    ->  _logging  => logging
        from repro.obs import tracing ->  tracing   => repro.obs.tracing
        from repro.obs.tracing import trace
                                      ->  trace     => repro.obs.tracing.trace

    :meth:`qualified` then rewrites a ``Name``/``Attribute`` call target
    into its canonical dotted form (``np.random.default_rng`` becomes
    ``numpy.random.default_rng``), which is what lets rules match on
    module identity rather than on whatever alias a file happens to use.
    """

    def __init__(self, tree: ast.AST):
        self._names: Dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else local
                    self._names[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self._names[local] = f"{node.module}.{alias.name}"

    def resolve(self, name: str) -> Optional[str]:
        return self._names.get(name)

    def qualified(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a call target, or ``None``.

        ``None`` means the chain is rooted in something that is not a
        plain name (``self.x.y``, a call result, a subscript), where no
        static resolution is possible.
        """
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        root = self._names.get(current.id, current.id)
        parts.append(root)
        return ".".join(reversed(parts))


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    rel_path: str  # posix, relative to the lint root
    source: str
    tree: ast.Module
    imports: ImportMap = field(init=False)

    def __post_init__(self) -> None:
        self.imports = ImportMap(self.tree)


class Rule:
    """Base class for one invariant check.

    Subclasses set ``name`` (kebab-case, the id used in pragmas and the
    baseline) and ``description``, and bump ``version``
    whenever their behavior changes so cached findings invalidate.
    ``baseline_exempt`` rules cannot be suppressed by the baseline
    ledger — their findings always surface (reserved for invariants
    where grandfathering a violation would defeat the rule, e.g. crash
    safety of artifact writes).
    """

    name: str = ""
    description: str = ""
    version: int = 1
    baseline_exempt: bool = False
    #: Minimal sources for ``repro lint --explain``: one that fires the
    #: rule, one nearby shape that stays silent.
    example_positive: str = ""
    example_negative: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule inspects ``ctx`` at all (path scoping)."""
        return True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=self.name,
            message=message,
        )


_REGISTRY: Dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator adding one instance of ``cls`` to the registry."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if instance.name in _REGISTRY:
        raise ValueError(f"duplicate rule name: {instance.name}")
    _REGISTRY[instance.name] = instance
    return cls


def _ensure_loaded() -> None:
    # Importing the rules package runs every @register decorator.
    from repro.analysis import rules  # noqa: F401


def all_rules() -> List[Rule]:
    _ensure_loaded()
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_rule(name: str) -> Rule:
    _ensure_loaded()
    return _REGISTRY[name]


def rule_names() -> List[str]:
    _ensure_loaded()
    return sorted(_REGISTRY)


def rules_fingerprint() -> str:
    """Digest of the active rule set; keys the findings cache."""
    _ensure_loaded()
    payload = [
        (rule.name, rule.version, rule.baseline_exempt)
        for rule in all_rules()
    ]
    return stable_hash(payload)
