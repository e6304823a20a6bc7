"""AST-level models the dataflow engine analyzes.

The graph layer's :class:`~repro.analysis.graph.extract.ModuleFacts` are
deliberately lossy — JSON-serializable summaries good for topology, far
too coarse for flow.  This module keeps the *full* AST of each function,
lazily: a :class:`ModelIndex` parses a file only when some rule or
summary actually needs it, which is what keeps warm incremental runs
cheap (a cached module's AST is never touched).

Function naming mirrors :class:`~repro.analysis.graph.callgraph.CallGraph`
exactly — ``module.qualname`` with ``qualname`` either ``func`` or
``Class.method`` — so summaries keyed by call-graph node resolve
straight into models.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.core import ImportMap
from repro.analysis.dataflow.cfg import CFG, build_cfg
from repro.analysis.graph.extract import module_name_for

__all__ = ["FunctionModel", "ModuleModel", "ModelIndex"]


@dataclass
class FunctionModel:
    """One analyzable function: its AST, scope info, and a lazy CFG."""

    module: str
    rel_path: str
    qualname: str  # "func" or "Class.method"
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    imports: ImportMap
    is_async: bool
    class_name: Optional[str] = None
    _cfg: Optional[CFG] = field(default=None, repr=False)
    _locals: Optional[Set[str]] = field(default=None, repr=False)

    @property
    def fq(self) -> str:
        return f"{self.module}.{self.qualname}"

    @property
    def lineno(self) -> int:
        return self.node.lineno  # type: ignore[attr-defined]

    @property
    def cfg(self) -> CFG:
        if self._cfg is None:
            self._cfg = build_cfg(self.node, name=self.fq)
        return self._cfg

    def params(self) -> List[str]:
        args = self.node.args  # type: ignore[attr-defined]
        names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        if args.vararg:
            names.append(args.vararg.arg)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names

    def local_names(self) -> Set[str]:
        """Every name bound inside the function (params included).

        Used to tell locals apart from module globals and closure
        captures.  ``global``-declared names are *excluded* — binding
        one writes the module, not the local scope.
        """
        if self._locals is not None:
            return self._locals
        bound: Set[str] = set(self.params())
        global_names: Set[str] = set()
        for child in ast.walk(self.node):
            if isinstance(child, ast.Global):
                global_names.update(child.names)
            elif isinstance(child, (ast.Name,)) and isinstance(
                child.ctx, (ast.Store, ast.Del)
            ):
                bound.add(child.id)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if child is not self.node:
                    bound.add(child.name)
            elif isinstance(child, (ast.Import, ast.ImportFrom)):
                for alias in child.names:
                    if alias.name != "*":
                        bound.add(alias.asname or alias.name.split(".")[0])
            elif isinstance(child, ast.ExceptHandler) and child.name:
                bound.add(child.name)
        self._locals = (bound - global_names) | set(self.params())
        return self._locals

    def global_declared(self) -> Set[str]:
        names: Set[str] = set()
        for child in ast.walk(self.node):
            if isinstance(child, ast.Global):
                names.update(child.names)
        return names


class ModuleModel:
    """One parsed file: its functions, imports, and module-level names."""

    def __init__(
        self,
        rel_path: str,
        source: str,
        source_roots: Tuple[str, ...] = ("src",),
    ):
        self.rel_path = rel_path
        self.module = module_name_for(rel_path, source_roots)
        self.parse_error = False
        self.functions: Dict[str, FunctionModel] = {}
        #: names assigned at module scope (shared state candidates)
        self.module_assigns: Dict[str, int] = {}
        try:
            self.tree: Optional[ast.Module] = ast.parse(source, filename=rel_path)
        except SyntaxError:
            self.tree = None
            self.parse_error = True
            self.imports = None  # type: ignore[assignment]
            return
        self.imports = ImportMap(self.tree)
        self._collect()

    def _collect(self) -> None:
        assert self.tree is not None
        for stmt in self.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._add_function(stmt, class_name=None)
            elif isinstance(stmt, ast.ClassDef):
                for member in stmt.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        self._add_function(member, class_name=stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    stmt.targets
                    if isinstance(stmt, ast.Assign)
                    else [stmt.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.module_assigns.setdefault(target.id, stmt.lineno)

    def _add_function(self, node, class_name: Optional[str]) -> None:
        qualname = f"{class_name}.{node.name}" if class_name else node.name
        self.functions[qualname] = FunctionModel(
            module=self.module,
            rel_path=self.rel_path,
            qualname=qualname,
            node=node,
            imports=self.imports,
            is_async=isinstance(node, ast.AsyncFunctionDef),
            class_name=class_name,
        )


class ModelIndex:
    """Lazy rel_path -> :class:`ModuleModel` map over the lint sweep."""

    def __init__(
        self,
        files: Dict[str, Tuple[str, str]],
        source_roots: Tuple[str, ...] = ("src",),
    ):
        self._files = files
        self._source_roots = source_roots
        self._models: Dict[str, ModuleModel] = {}
        self._by_module: Dict[str, str] = {}
        for rel_path in files:
            module = module_name_for(rel_path, source_roots)
            self._by_module.setdefault(module, rel_path)

    def model(self, rel_path: str) -> Optional[ModuleModel]:
        if rel_path not in self._files:
            return None
        cached = self._models.get(rel_path)
        if cached is None:
            source, _digest = self._files[rel_path]
            cached = ModuleModel(rel_path, source, self._source_roots)
            self._models[rel_path] = cached
        return cached

    def model_for_module(self, module: str) -> Optional[ModuleModel]:
        rel_path = self._by_module.get(module)
        if rel_path is None:
            return None
        return self.model(rel_path)

    def function(self, fq: str) -> Optional[FunctionModel]:
        """Resolve a call-graph node name into its AST model."""
        parts = fq.split(".")
        # qualname is 1 ("func") or 2 ("Class.method") trailing parts.
        for split in (len(parts) - 1, len(parts) - 2):
            if split <= 0:
                continue
            module = ".".join(parts[:split])
            qualname = ".".join(parts[split:])
            model = self.model_for_module(module)
            if model is not None and qualname in model.functions:
                return model.functions[qualname]
        return None
