"""Per-function control-flow graphs at statement granularity.

A :class:`CFG` is a list of :class:`Block`\\ s, each holding a sequence
of :class:`Element`\\ s — simple statements plus synthesized headers for
compound ones (an ``if`` test, a ``for`` target/iterable, a ``with``
item list, an ``except`` binding).  Splitting headers out this way lets
transfer functions see exactly what each program point defines and uses
without double-walking compound bodies.

Construction covers the constructs the rules care about:

* branches (``if``/``elif``/``else``, ``match``) fork and join;
* loops (``for``/``while``) get a header block with a back edge from
  the body end, ``break``/``continue`` resolve through a loop stack,
  and ``else`` clauses hang off the header's false edge;
* ``try`` bodies edge into every handler from each block the body
  creates (an exception can surface anywhere), ``finally`` interposes
  on both the normal and the abrupt continuations, and ``return`` /
  ``raise`` route through the enclosing ``finally`` chain to the exit;
* ``with`` contributes a header element (context exprs used, ``as``
  targets defined) and an inline body — the *scope* of the context
  manager is an AST property the rules read directly;
* a statement containing a comprehension gets a self edge, modeling the
  implicit loop so loop-carried facts reach a fixpoint.

Edges are conservative: every path the interpreter can take is in the
graph, plus a few it cannot — analyses built on top must tolerate the
extra paths (all the shipped ones use union joins, where a spurious
path can only widen facts, never hide them).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "Element",
    "Block",
    "CFG",
    "build_cfg",
    "render_cfg_text",
    "render_cfg_dot",
]

#: Element kinds: how the node should be read by transfer functions.
KIND_STMT = "stmt"  # a simple statement, node is ast.stmt
KIND_TEST = "test"  # a branch/loop condition, node is ast.expr (uses only)
KIND_FOR = "for"  # a for header, node is ast.For / ast.AsyncFor
KIND_WITH = "with"  # a with header, node is ast.With / ast.AsyncWith
KIND_EXCEPT = "except"  # a handler binding, node is ast.ExceptHandler
KIND_MATCH = "match"  # one match case, node is ast.match_case


@dataclass
class Element:
    """One program point inside a block."""

    kind: str
    node: ast.AST

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class Block:
    """A straight-line run of elements with one entry and one exit set."""

    index: int
    label: str
    elements: List[Element] = field(default_factory=list)
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    def add(self, element: Element) -> None:
        self.elements.append(element)


class CFG:
    """The control-flow graph of one function."""

    def __init__(self, name: str, node: ast.AST):
        self.name = name
        self.node = node
        self.blocks: List[Block] = []
        self.entry = 0
        self.exit = 0

    def new_block(self, label: str) -> Block:
        block = Block(index=len(self.blocks), label=label)
        self.blocks.append(block)
        return block

    def add_edge(self, src: int, dst: int) -> None:
        if dst not in self.blocks[src].succs:
            self.blocks[src].succs.append(dst)
            self.blocks[dst].preds.append(src)

    def elements(self) -> Iterator[Tuple[Block, int, Element]]:
        """Every (block, position, element) in block order."""
        for block in self.blocks:
            for position, element in enumerate(block.elements):
                yield block, position, element


def _contains_comprehension(node: ast.AST) -> bool:
    return any(
        isinstance(child, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp))
        for child in ast.walk(node)
    )


# -- construction ------------------------------------------------------


class _Builder:
    def __init__(self, cfg: CFG):
        self.cfg = cfg
        #: (continue_target, break_targets) per active loop
        self.loops: List[Tuple[int, List[int]]] = []
        #: entry blocks of active ``finally`` bodies, innermost last
        self.finallies: List[int] = []

    # Abrupt completions (return/raise) route through the innermost
    # finally; the finally's own exit fans out to both continuations.
    def _abrupt_target(self) -> int:
        if self.finallies:
            return self.finallies[-1]
        return self.cfg.exit

    def _append(self, block: Block, element: Element) -> None:
        block.add(element)
        if _contains_comprehension(element.node):
            # The implicit loop: facts computed in one iteration must be
            # able to flow back into the next.
            self.cfg.add_edge(block.index, block.index)

    def body(self, stmts: Sequence[ast.stmt], current: Block) -> Optional[Block]:
        """Thread ``stmts`` from ``current``; None means flow terminated."""
        cursor: Optional[Block] = current
        for stmt in stmts:
            if cursor is None:
                # Unreachable code still gets blocks (so rules can see
                # it), just no incoming edges.
                cursor = self.cfg.new_block("unreachable")
            cursor = self.statement(stmt, cursor)
        return cursor

    def statement(self, stmt: ast.stmt, current: Block) -> Optional[Block]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, current)
        if isinstance(stmt, (ast.While,)):
            return self._while(stmt, current)
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._for(stmt, current)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, current)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, current)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, current)
        if isinstance(stmt, (ast.Return, ast.Raise)):
            self._append(current, Element(KIND_STMT, stmt))
            self.cfg.add_edge(current.index, self._abrupt_target())
            return None
        if isinstance(stmt, ast.Break):
            self._append(current, Element(KIND_STMT, stmt))
            if self.loops:
                self.loops[-1][1].append(current.index)
            return None
        if isinstance(stmt, ast.Continue):
            self._append(current, Element(KIND_STMT, stmt))
            if self.loops:
                self.cfg.add_edge(current.index, self.loops[-1][0])
            return None
        self._append(current, Element(KIND_STMT, stmt))
        return current

    def _if(self, stmt: ast.If, current: Block) -> Optional[Block]:
        self._append(current, Element(KIND_TEST, stmt.test))
        join = self.cfg.new_block("join")
        then_block = self.cfg.new_block("then")
        self.cfg.add_edge(current.index, then_block.index)
        then_end = self.body(stmt.body, then_block)
        if then_end is not None:
            self.cfg.add_edge(then_end.index, join.index)
        if stmt.orelse:
            else_block = self.cfg.new_block("else")
            self.cfg.add_edge(current.index, else_block.index)
            else_end = self.body(stmt.orelse, else_block)
            if else_end is not None:
                self.cfg.add_edge(else_end.index, join.index)
        else:
            self.cfg.add_edge(current.index, join.index)
        if not join.preds:
            return None
        return join

    def _loop(
        self,
        header_element: Element,
        body: Sequence[ast.stmt],
        orelse: Sequence[ast.stmt],
        current: Block,
        label: str,
    ) -> Optional[Block]:
        header = self.cfg.new_block(label)
        self.cfg.add_edge(current.index, header.index)
        self._append(header, header_element)
        body_block = self.cfg.new_block("loop-body")
        self.cfg.add_edge(header.index, body_block.index)
        breaks: List[int] = []
        self.loops.append((header.index, breaks))
        body_end = self.body(body, body_block)
        self.loops.pop()
        if body_end is not None:
            self.cfg.add_edge(body_end.index, header.index)
        after = self.cfg.new_block("after-loop")
        if orelse:
            else_block = self.cfg.new_block("loop-else")
            self.cfg.add_edge(header.index, else_block.index)
            else_end = self.body(orelse, else_block)
            if else_end is not None:
                self.cfg.add_edge(else_end.index, after.index)
        else:
            self.cfg.add_edge(header.index, after.index)
        for break_block in breaks:
            self.cfg.add_edge(break_block, after.index)
        if not after.preds:
            return None
        return after

    def _while(self, stmt: ast.While, current: Block) -> Optional[Block]:
        return self._loop(
            Element(KIND_TEST, stmt.test), stmt.body, stmt.orelse, current, "while"
        )

    def _for(self, stmt, current: Block) -> Optional[Block]:
        return self._loop(
            Element(KIND_FOR, stmt), stmt.body, stmt.orelse, current, "for"
        )

    def _with(self, stmt, current: Block) -> Optional[Block]:
        self._append(current, Element(KIND_WITH, stmt))
        return self.body(stmt.body, current)

    def _try(self, stmt: ast.Try, current: Block) -> Optional[Block]:
        after = self.cfg.new_block("after-try")
        fin_entry: Optional[Block] = None
        if stmt.finalbody:
            fin_entry = self.cfg.new_block("finally")
            self.finallies.append(fin_entry.index)
        body_block = self.cfg.new_block("try")
        self.cfg.add_edge(current.index, body_block.index)
        first_body_index = body_block.index
        body_end = self.body(stmt.body, body_block)
        last_body_index = len(self.cfg.blocks) - 1
        if stmt.orelse and body_end is not None:
            else_block = self.cfg.new_block("try-else")
            self.cfg.add_edge(body_end.index, else_block.index)
            body_end = self.body(stmt.orelse, else_block)
        normal_target = fin_entry if fin_entry is not None else after
        if body_end is not None:
            self.cfg.add_edge(body_end.index, normal_target.index)
        for handler in stmt.handlers:
            handler_block = self.cfg.new_block("except")
            self._append(handler_block, Element(KIND_EXCEPT, handler))
            # An exception can surface at any point of the body: edge
            # from the pre-try state and every body block.
            self.cfg.add_edge(current.index, handler_block.index)
            for index in range(first_body_index, last_body_index + 1):
                self.cfg.add_edge(index, handler_block.index)
            handler_end = self.body(handler.body, handler_block)
            if handler_end is not None:
                self.cfg.add_edge(handler_end.index, normal_target.index)
        if fin_entry is not None:
            self.finallies.pop()
            # An unhandled exception also reaches finally directly.
            self.cfg.add_edge(current.index, fin_entry.index)
            for index in range(first_body_index, last_body_index + 1):
                if index != fin_entry.index:
                    self.cfg.add_edge(index, fin_entry.index)
            fin_end = self.body(stmt.finalbody, fin_entry)
            if fin_end is None:
                return None
            # The finally's exit continues both normally and abruptly
            # (re-raising / propagating a pending return).
            self.cfg.add_edge(fin_end.index, after.index)
            abrupt = (
                self.finallies[-1] if self.finallies else self.cfg.exit
            )
            self.cfg.add_edge(fin_end.index, abrupt)
        if not after.preds:
            return None
        return after

    def _match(self, stmt: ast.Match, current: Block) -> Optional[Block]:
        self._append(current, Element(KIND_TEST, stmt.subject))
        join = self.cfg.new_block("after-match")
        for case in stmt.cases:
            case_block = self.cfg.new_block("case")
            self._append(case_block, Element(KIND_MATCH, case))
            self.cfg.add_edge(current.index, case_block.index)
            case_end = self.body(case.body, case_block)
            if case_end is not None:
                self.cfg.add_edge(case_end.index, join.index)
        # No case may match.
        self.cfg.add_edge(current.index, join.index)
        return join


def build_cfg(node: ast.AST, name: str = "") -> CFG:
    """Build the CFG of one function (or lambda) definition."""
    cfg = CFG(name or getattr(node, "name", "<lambda>"), node)
    entry = cfg.new_block("entry")
    exit_block = cfg.new_block("exit")
    cfg.entry = entry.index
    cfg.exit = exit_block.index
    builder = _Builder(cfg)
    if isinstance(node, ast.Lambda):
        first = cfg.new_block("body")
        cfg.add_edge(entry.index, first.index)
        first.add(Element(KIND_TEST, node.body))
        cfg.add_edge(first.index, exit_block.index)
        return cfg
    first = cfg.new_block("body")
    cfg.add_edge(entry.index, first.index)
    end = builder.body(node.body, first)  # type: ignore[attr-defined]
    if end is not None:
        cfg.add_edge(end.index, exit_block.index)
    return cfg


# -- rendering ---------------------------------------------------------


def _element_summary(element: Element, width: int = 48) -> str:
    node = element.node
    if element.kind == KIND_FOR:
        text = f"for {ast.unparse(node.target)} in {ast.unparse(node.iter)}"  # type: ignore[attr-defined]
    elif element.kind == KIND_WITH:
        items = ", ".join(
            ast.unparse(item.context_expr) for item in node.items  # type: ignore[attr-defined]
        )
        text = f"with {items}"
    elif element.kind == KIND_EXCEPT:
        kind = ast.unparse(node.type) if node.type else ""  # type: ignore[attr-defined]
        text = f"except {kind}".rstrip()
    elif element.kind == KIND_MATCH:
        text = f"case {ast.unparse(node.pattern)}"  # type: ignore[attr-defined]
    else:
        try:
            text = ast.unparse(node)
        except ValueError:
            text = type(node).__name__
    text = " ".join(text.split())
    if len(text) > width:
        text = text[: width - 3] + "..."
    return f"{element.lineno}: {text}"


def render_cfg_text(cfg: CFG) -> str:
    """Readable block listing with edges, for terminals and tests."""
    lines = [f"cfg {cfg.name} ({len(cfg.blocks)} blocks)"]
    for block in cfg.blocks:
        succs = ", ".join(str(s) for s in block.succs) or "-"
        lines.append(f"  B{block.index} [{block.label}] -> {succs}")
        for element in block.elements:
            lines.append(f"    {_element_summary(element)}")
    return "\n".join(lines)


def render_cfg_dot(cfg: CFG) -> str:
    """Graphviz dot rendering of one function's CFG."""
    lines = [
        "digraph cfg {",
        "  rankdir=TB;",
        '  node [shape=box, fontname="monospace", fontsize=10];',
        f'  label="{cfg.name}";',
    ]
    for block in cfg.blocks:
        rows = [f"B{block.index} [{block.label}]"] + [
            _element_summary(element) for element in block.elements
        ]
        text = "\\l".join(row.replace('"', "'") for row in rows) + "\\l"
        lines.append(f'  b{block.index} [label="{text}"];')
    for block in cfg.blocks:
        for succ in block.succs:
            lines.append(f"  b{block.index} -> b{succ};")
    lines.append("}")
    return "\n".join(lines)
