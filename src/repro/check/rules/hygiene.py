"""Hygiene rules (RC3xx): shared-state and float-time hazards.

These patterns do not fail loudly — they skew results silently.  A
mutable default argument aliases state across calls (and across
simulated tenants); ``==`` on *computed* simulated time flips with
floating-point association order; iterating a set of strings feeds
``PYTHONHASHSEED``-dependent order into whatever consumes it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.cfg import dotted
from repro.check.rules import LintContext, Rule, register

__all__ = ["FloatTimeEqualityRule", "MutableDefaultRule", "SetIterationRule"]

_MUTABLE_CALLS = ("list", "dict", "set", "deque", "defaultdict",
                  "collections.deque", "collections.defaultdict")


@register
class MutableDefaultRule(Rule):
    """RC301 — mutable default argument."""

    id = "RC301"
    title = "mutable default argument"
    hint = "default to None and create the list/dict/set inside the body"
    scope = "repo"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if isinstance(default, (ast.List, ast.Dict, ast.Set)) or (
                    isinstance(default, ast.Call)
                    and dotted(default.func) in _MUTABLE_CALLS
                ):
                    yield (default.lineno, default.col_offset,
                           "mutable default is shared across every call "
                           "(and every simulated tenant)")


#: Names that denote simulated time wherever they appear.
_TIME_NAMES = {
    "now", "_now", "deadline", "until", "makespan", "walltime",
    "elapsed", "t_io", "t_comp",
}
_TIME_PREFIXES = ("t_",)
_TIME_SUFFIXES = ("_time", "_deadline", "_at")


def _terminal_name(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_time_name(name: str) -> bool:
    return bool(name) and (
        name in _TIME_NAMES
        or name.startswith(_TIME_PREFIXES)
        or name.endswith(_TIME_SUFFIXES)
    )


def _mentions_time(node: ast.AST) -> bool:
    return any(
        _is_time_name(_terminal_name(sub)) for sub in ast.walk(node)
    )


#: Comparator calls that already apply a tolerance — the sanctioned fix.
_TOLERANT_CALLS = {
    "pytest.approx", "approx", "math.isclose", "isclose",
    "np.isclose", "numpy.isclose",
}


def _is_tolerant(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call)
            and dotted(node.func) in _TOLERANT_CALLS)


@register
class FloatTimeEqualityRule(Rule):
    """RC302 — ``==`` / ``!=`` on computed simulated time.

    Exact equality of two *stored* timestamps is deterministic (the
    engine's ready-queue fast path relies on it); equality against an
    *arithmetic* expression is not — ``t0 + dt == t1`` flips with
    floating-point association order.  The rule therefore fires only
    when a time-like comparison has an arithmetic side.
    """

    id = "RC302"
    title = "float equality on computed simulated time"
    hint = (
        "compare stored timestamps directly, or use an explicit "
        "tolerance (math.isclose / abs(a - b) < eps)"
    )
    scope = "repo"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            sides = [node.left, *node.comparators]
            if any(_is_tolerant(side) for side in sides):
                continue
            if not any(_mentions_time(side) for side in sides):
                continue
            if any(isinstance(side, ast.BinOp) for side in sides):
                yield (node.lineno, node.col_offset,
                       "== on an arithmetic simulated-time expression "
                       "depends on float association order")


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (isinstance(node, ast.Call)
            and dotted(node.func) in ("set", "frozenset"))


@register
class SetIterationRule(Rule):
    """RC303 — iterating a set where order reaches the output."""

    id = "RC303"
    title = "iteration over an unordered set"
    hint = "wrap the set in sorted(...) to pin the order"
    scope = "repo"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        message = ("set iteration order varies with PYTHONHASHSEED for "
                   "str elements")
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_set_expr(node.iter):
                yield (node.iter.lineno, node.iter.col_offset, message)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for comp in node.generators:
                    if _is_set_expr(comp.iter):
                        yield (comp.iter.lineno, comp.iter.col_offset,
                               message)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "join"
                  and node.args and _is_set_expr(node.args[0])):
                yield (node.args[0].lineno, node.args[0].col_offset,
                       message)
