"""Robustness rules (RC2xx band): disciplined fault recovery.

The fault taxonomy (:mod:`repro.faults.errors`) makes every injected
failure catchable by type — which also makes it easy to write a retry
loop that spins forever on a persistent fault, or that hammers a
recovering resource with zero delay between attempts.  Both bugs are
invisible in fault-free runs and ruinous in chaos sweeps: an unbounded
retry turns one dead OST into a hung fleet, and a delay-free retry
turns a 1-second brownout into a retry storm.  RC205 statically
requires every retry loop around a fault-taxonomy catch to carry an
attempt bound *and* a backoff delay.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.cfg import dotted
from repro.check.rules import LintContext, Rule, register

__all__ = ["RetryDisciplineRule"]

#: Exception names from the fault taxonomy whose catch inside a loop
#: marks that loop as a *retry loop* (recovery from injected faults).
_TAXONOMY = {
    "FaultError",
    "TransientIOError",
    "PFSUnavailableError",
    "FlakyWriteError",
    "FlakyReadError",
    "SSDFaultError",
    "WorkerCrashError",
    "StagingTimeoutError",
    "NodeFailureError",
    "RetryExhaustedError",
}

#: Identifier fragments that signal a bounded attempt count.
_BOUND_HINTS = ("attempt", "retr", "tries", "budget")

#: Call-name / identifier fragments that signal an inter-attempt delay.
_DELAY_CALL_HINTS = ("timeout", "sleep", "backoff", "delay", "pause")
_DELAY_NAME_HINTS = ("backoff", "jitter", "delay")

_STOP = (ast.While, ast.For, ast.AsyncFor,
         ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _shallow_walk(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s subtree without descending into nested loops or
    function definitions — a retry loop's bound and delay must live in
    *that* loop, not in some inner one."""
    stack: list[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(child, _STOP):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _handler_names(handler: ast.ExceptHandler) -> list[str]:
    """Last path components of the handler's exception type(s)."""
    if handler.type is None:
        return []
    types = (handler.type.elts if isinstance(handler.type, ast.Tuple)
             else [handler.type])
    names = []
    for node in types:
        name = dotted(node)
        if name is not None:
            names.append(name.rsplit(".", 1)[-1])
    return names


def _handler_retries(handler: ast.ExceptHandler) -> bool:
    """Whether the handler lets the loop spin again.

    A handler whose last statement unconditionally leaves the loop
    (``raise``, ``break``, ``return``) is propagation or bail-out, not
    a retry — the loop body will not run the operation again.
    """
    last = handler.body[-1]
    return not isinstance(last, (ast.Raise, ast.Break, ast.Return))


def _ident_fragments(node: ast.AST) -> Iterator[str]:
    for child in _shallow_walk(node):
        if isinstance(child, ast.Name):
            yield child.id.lower()
        elif isinstance(child, ast.Attribute):
            yield child.attr.lower()


def _has_attempt_bound(loop: ast.AST) -> bool:
    """A ``for`` over ``range(...)``/``enumerate(range(...))``, or any
    comparison against an attempt/retry/budget-named value in the loop
    (its own test included)."""
    if isinstance(loop, (ast.For, ast.AsyncFor)):
        call = loop.iter
        if isinstance(call, ast.Call):
            name = dotted(call.func)
            if name is not None and name.rsplit(".", 1)[-1] in (
                    "range", "enumerate"):
                return True
    for child in _shallow_walk(loop):
        if not isinstance(child, ast.Compare):
            continue
        for operand in (child.left, *child.comparators):
            for frag in _ident_fragments_one(operand):
                if any(h in frag for h in _BOUND_HINTS):
                    return True
    return False


def _ident_fragments_one(node: ast.AST) -> Iterator[str]:
    """Identifier fragments of one expression (full walk: operands are
    small and contain no nested loops worth skipping)."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id.lower()
        elif isinstance(child, ast.Attribute):
            yield child.attr.lower()


def _has_backoff(loop: ast.AST) -> bool:
    """A delay-ish call (``engine.timeout``, ``sleep``, ``*_backoff*``)
    or a backoff/jitter/delay-named value anywhere in the loop."""
    for child in _shallow_walk(loop):
        if isinstance(child, ast.Call):
            name = dotted(child.func)
            if name is not None:
                last = name.rsplit(".", 1)[-1]
                if any(h in last for h in _DELAY_CALL_HINTS):
                    return True
    return any(
        any(h in frag for h in _DELAY_NAME_HINTS)
        for frag in _ident_fragments(loop)
    )


@register
class RetryDisciplineRule(Rule):
    """RC205 — retry loop without attempt bound or backoff."""

    id = "RC205"
    title = "undisciplined retry loop around a fault-taxonomy catch"
    hint = (
        "bound the attempts (compare an attempt/retry counter, or "
        "iterate a range) and delay between them (engine.timeout with "
        "a growing, jittered backoff)"
    )
    scope = "sim"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for loop in ast.walk(ctx.tree):
            if not isinstance(loop, (ast.While, ast.For, ast.AsyncFor)):
                continue
            caught = self._retrying_taxonomy_catches(loop)
            if not caught:
                continue
            names = ", ".join(sorted(set(caught)))
            if not _has_attempt_bound(loop):
                yield (loop.lineno, loop.col_offset,
                       f"retry loop around {names} has no bounded "
                       f"attempt count; a persistent fault spins it "
                       f"forever")
            if not _has_backoff(loop):
                yield (loop.lineno, loop.col_offset,
                       f"retry loop around {names} has no backoff "
                       f"delay between attempts; it hammers the "
                       f"faulted resource")

    @staticmethod
    def _retrying_taxonomy_catches(loop: ast.AST) -> list[str]:
        """Taxonomy exception names caught-and-retried in this loop
        (innermost loop only)."""
        caught: list[str] = []
        for child in _shallow_walk(loop):
            if not isinstance(child, ast.Try):
                continue
            for handler in child.handlers:
                hits = [n for n in _handler_names(handler)
                        if n in _TAXONOMY]
                if hits and _handler_retries(handler):
                    caught.extend(hits)
        return caught
