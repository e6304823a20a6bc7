"""The forward worklist solver, driven by a small in-test analysis."""

import ast

import pytest

from repro.analysis.dataflow import Analysis, build_cfg, solve


def cfg_of(source):
    tree = ast.parse(source)
    fn = next(
        node for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    )
    return build_cfg(fn)


class _Reaching(Analysis):
    """Which assignment lines of each name may reach a program point.

    Facts are frozensets of ``(name, line)``; an assignment kills every
    earlier pair for the names it binds.  Parameters reach from the
    ``def`` line through the boundary fact.
    """

    def bottom(self, cfg):
        return frozenset()

    def boundary(self, cfg):
        line = cfg.node.lineno
        return frozenset((arg.arg, line) for arg in cfg.node.args.args)

    def join(self, left, right):
        return left | right

    def transfer(self, element, fact):
        if not isinstance(element.node, (ast.Assign, ast.AugAssign)):
            return fact
        bound = {
            node.id
            for node in ast.walk(element.node)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        survivors = {(name, line) for name, line in fact if name not in bound}
        return frozenset(
            survivors | {(name, element.lineno) for name in bound}
        )


def reaching_before_return(cfg):
    """Assignment lines reaching the return statement, per name."""
    analysis = _Reaching()
    facts = solve(cfg, analysis)
    for block in cfg.blocks:
        for position, element in enumerate(block.elements):
            if isinstance(element.node, ast.Return):
                fact = facts[block.index][0]
                for earlier in block.elements[:position]:
                    fact = analysis.transfer(earlier, fact)
                out = {}
                for name, line in fact:
                    out.setdefault(name, set()).add(line)
                return out
    raise AssertionError("no return statement")


def test_reaching_straight_line_keeps_last_definition():
    cfg = cfg_of("def fn():\n    a = 1\n    a = 2\n    return a\n")
    assert reaching_before_return(cfg)["a"] == {3}


def test_reaching_joins_both_branch_arms():
    cfg = cfg_of(
        "def fn(flag):\n"
        "    if flag:\n"
        "        x = 1\n"
        "    else:\n"
        "        x = 2\n"
        "    return x\n"
    )
    assert reaching_before_return(cfg)["x"] == {3, 5}


def test_reaching_loop_carried_definition_survives_the_back_edge():
    cfg = cfg_of(
        "def fn(n):\n"
        "    total = 0\n"
        "    while n:\n"
        "        total = total + n\n"
        "        n = n - 1\n"
        "    return total\n"
    )
    # Both the init and the loop-body rebinding reach the return; the
    # body's pair can only arrive over the back edge.
    facts = reaching_before_return(cfg)
    assert facts["total"] == {2, 4}
    assert facts["n"] == {1, 5}


def test_parameters_reach_as_boundary_definitions():
    cfg = cfg_of("def fn(seed):\n    return seed\n")
    assert reaching_before_return(cfg)["seed"] == {1}


class _NonMonotone(Analysis):
    """Oscillates forever; the solver must abort, not hang."""

    def bottom(self, cfg):
        return 0

    def join(self, left, right):
        return max(left, right)

    def transfer(self, element, fact):
        return fact + 1  # grows without bound


def test_solver_aborts_on_non_convergence():
    cfg = cfg_of("def fn(n):\n    while n:\n        n = n - 1\n    return n\n")
    with pytest.raises(RuntimeError, match="did not converge"):
        solve(cfg, _NonMonotone())
