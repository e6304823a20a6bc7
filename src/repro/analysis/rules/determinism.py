"""Determinism rules.

The lake's provenance story rests on bit-reproducible generation
(``generate --workers N`` == ``workers=1``), which in turn rests on
three source-level invariants:

* no global randomness drawn at import time (``unseeded-random``);
* no wall clocks or uuids feeding digest/id computations
  (``time-in-digest``);
* nothing order-unstable — unsorted sets, unsorted ``json.dumps`` —
  iterated into a hash (``unordered-digest-iteration``).
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Set

from repro.analysis.core import FileContext, Finding, Rule, register

__all__ = ["UnseededRandom", "TimeInDigest", "UnorderedDigestIteration"]

#: ``random`` / ``numpy.random`` attributes that are safe at module level
#: because they configure rather than draw randomness.
_SAFE_RANDOM_ATTRS = {"seed", "Random", "default_rng", "SeedSequence", "RandomState", "Generator", "getstate", "setstate"}

_RANDOM_PREFIXES = ("random.", "numpy.random.")

#: Function names that mark a digest/id computation path.
_DIGEST_NAME_RE = re.compile(
    r"digest|fingerprint|checksum|stable_hash|content_hash|make_id|model_id",
    re.IGNORECASE,
)

#: Canonical call targets that read wall clocks or mint unique ids.
_NONDETERMINISTIC_CALLS = {
    "time.time",
    "time.time_ns",
    "time.strftime",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
    "uuid.uuid1",
    "uuid.uuid4",
}


def _function_scopes(tree: ast.Module) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield node


@register
class UnseededRandom(Rule):
    """Import-time randomness makes two processes disagree by construction."""

    name = "unseeded-random"
    description = (
        "module-level call draws from random/numpy.random; seed an explicit "
        "generator inside a function instead"
    )
    version = 1
    example_positive = (
        "import random\n"
        "JITTER = random.random()  # differs per process\n"
    )
    example_negative = (
        "import random\n"
        "def jitter(seed):\n"
        "    return random.Random(seed).random()\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        function_nodes = set()
        for scope in _function_scopes(ctx.tree):
            function_nodes.update(ast.walk(scope))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or node in function_nodes:
                continue
            qualified = ctx.imports.qualified(node.func)
            if qualified is None:
                continue
            for prefix in _RANDOM_PREFIXES:
                if qualified.startswith(prefix):
                    attr = qualified[len(prefix):].split(".")[0]
                    if attr not in _SAFE_RANDOM_ATTRS:
                        yield self.finding(
                            ctx,
                            node,
                            f"module-level call to {qualified} draws global "
                            "randomness at import time",
                        )
                    break


class _DigestVisitor(ast.NodeVisitor):
    """Collects function defs that compute digests / content ids."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.digest_functions: List[ast.AST] = []

    def _is_digest_function(self, node: ast.AST) -> bool:
        if _DIGEST_NAME_RE.search(getattr(node, "name", "")):
            return True
        for child in ast.walk(node):
            if isinstance(child, ast.Call):
                qualified = self.ctx.imports.qualified(child.func)
                if qualified is not None and qualified.startswith("hashlib."):
                    return True
        return False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if self._is_digest_function(node):
            self.digest_functions.append(node)
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]


def _digest_functions(ctx: FileContext) -> List[ast.AST]:
    visitor = _DigestVisitor(ctx)
    visitor.visit(ctx.tree)
    return visitor.digest_functions


@register
class TimeInDigest(Rule):
    """Clocks and uuids in digest paths break digest stability."""

    name = "time-in-digest"
    description = (
        "wall-clock / uuid call inside a digest or id computation; digests "
        "must be pure functions of content"
    )
    version = 1
    example_positive = (
        "import time\n"
        "def make_id(payload):\n"
        "    return f\"{payload}-{time.time()}\"\n"
    )
    example_negative = (
        "def make_id(payload):\n"
        "    return f\"id-{payload}\"\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for function in _digest_functions(ctx):
            for node in ast.walk(function):
                if not isinstance(node, ast.Call):
                    continue
                qualified = ctx.imports.qualified(node.func)
                if qualified in _NONDETERMINISTIC_CALLS:
                    yield self.finding(
                        ctx,
                        node,
                        f"{qualified} inside digest path "
                        f"{getattr(function, 'name', '<lambda>')}(); digests "
                        "must depend only on content",
                    )


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in {"set", "frozenset"}
    )


@register
class UnorderedDigestIteration(Rule):
    """Order-unstable data feeding a hash yields run-dependent digests."""

    name = "unordered-digest-iteration"
    description = (
        "unsorted set iteration or json.dumps without sort_keys inside a "
        "digest path"
    )
    version = 1
    example_positive = (
        "def checksum(items):\n"
        "    total = 0\n"
        "    for item in set(items):\n"
        "        total = total * 31 + hash(item)\n"
        "    return total\n"
    )
    example_negative = (
        "def checksum(items):\n"
        "    total = 0\n"
        "    for item in sorted(set(items)):\n"
        "        total = total * 31 + hash(item)\n"
        "    return total\n"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for function in _digest_functions(ctx):
            for node in ast.walk(function):
                if isinstance(node, ast.For) and _is_set_expr(node.iter):
                    yield self.finding(
                        ctx,
                        node.iter,
                        "iteration over a set inside digest path "
                        f"{getattr(function, 'name', '<lambda>')}(); wrap in "
                        "sorted() for a stable order",
                    )
                elif isinstance(node, (ast.GeneratorExp, ast.ListComp)):
                    for comp in node.generators:
                        if _is_set_expr(comp.iter):
                            yield self.finding(
                                ctx,
                                comp.iter,
                                "comprehension over a set inside digest path "
                                f"{getattr(function, 'name', '<lambda>')}(); "
                                "wrap in sorted() for a stable order",
                            )
                elif isinstance(node, ast.Call):
                    qualified = ctx.imports.qualified(node.func)
                    if qualified == "json.dumps" and not _has_sort_keys(node):
                        yield self.finding(
                            ctx,
                            node,
                            "json.dumps without sort_keys=True inside digest "
                            f"path {getattr(function, 'name', '<lambda>')}(); "
                            "key order would leak into the digest",
                        )


def _has_sort_keys(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "sort_keys":
            value: Optional[ast.expr] = keyword.value
            return not (
                isinstance(value, ast.Constant) and value.value is False
            )
    return False
