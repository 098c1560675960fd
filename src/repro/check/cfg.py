"""Intraprocedural control-flow graphs over Python AST.

The flow tier of ``repro check`` (RC4xx/RC5xx) needs statement-level
control flow: which statements may execute before which, across
branches, loops (including ``break``/``continue``/``else``), ``with``
blocks and ``try``/``except``/``finally`` (including ``return`` inside
a ``try`` routing through the ``finally`` suite).  This module builds
that graph; :mod:`repro.check.dataflow` runs fixpoint analyses over it.

Design notes
------------

- One :class:`CFGNode` per *statement*.  Compound statements get a node
  for their header (the ``if``/``while`` test, the ``for`` iterable,
  the ``with`` items, the ``try`` keyword) and separate nodes for the
  statements in their suites.  ``except`` handlers get a header node
  carrying the :class:`ast.ExceptHandler` (its ``as`` name binding is
  visible to transfer functions).
- ``finally`` suites are *cloned* per continuation class (normal fall
  through, ``return``, ``break``, ``continue``, propagating ``raise``),
  so a ``return`` inside ``try`` correctly flows through the ``finally``
  statements and then to the function exit — never to the statement
  after the ``try``.  Clones mean one ``ast.stmt`` may back several
  nodes; analyses must not assume the mapping is injective.
- Exception edges are approximate: every statement inside a ``try``
  body may jump to every one of its handlers.  Implicit exceptions
  outside ``try`` are not modeled (only explicit ``raise`` routes to
  the function exit), which keeps the graph small and is conservative
  for the may-analyses built on top.
- Nested ``def``/``class``/``lambda`` bodies are *not* inlined; the
  nested definition is a single statement node and nested functions are
  analyzed with their own CFGs (see :func:`iter_functions`).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Union

__all__ = ["CFG", "CFGNode", "FuncDef", "build_cfg", "dotted",
           "iter_functions"]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@dataclass
class CFGNode:
    """One vertex: a statement (or synthetic entry/exit/handler marker)."""

    index: int
    ast_node: Optional[ast.AST]  # None for entry/exit
    kind: str  # "entry" | "exit" | "stmt" | "except"
    succs: List[int] = field(default_factory=list)
    preds: List[int] = field(default_factory=list)

    @property
    def line(self) -> int:
        """Source line (1 for the synthetic entry/exit nodes)."""
        return getattr(self.ast_node, "lineno", 1)

    @property
    def col(self) -> int:
        """Source column (0 for the synthetic entry/exit nodes)."""
        return getattr(self.ast_node, "col_offset", 0)


@dataclass
class CFG:
    """Control-flow graph of one function body."""

    func: FuncDef
    nodes: List[CFGNode]
    entry: int
    exit: int

    def stmt_nodes(self) -> Iterator[CFGNode]:
        """Real statement/handler nodes (skips entry/exit)."""
        for node in self.nodes:
            if node.kind in ("stmt", "except"):
                yield node


class _Frames:
    """Pending-jump collectors threaded through the recursive build.

    Each collector is a list of node indices whose control transfers to
    the channel's target once it is known.  ``try/finally`` intercepts
    the *top* of each stack (``break``/``continue`` target the innermost
    loop; ``raise`` propagates to the innermost handler group), routes
    the collected jumps through a clone of the ``finally`` suite, and
    re-emits them into the original collector.
    """

    def __init__(self) -> None:
        self.returns: List[int] = []
        self.break_stack: List[List[int]] = []
        self.continue_stack: List[List[int]] = []
        # Bottom entry collects uncaught raises (wired to the exit).
        self.raise_stack: List[List[int]] = [[]]


class _Builder:
    def __init__(self, func: FuncDef) -> None:
        self.func = func
        self.nodes: List[CFGNode] = []
        self.entry = self._new(None, "entry")
        self.exit = self._new(None, "exit")

    # -- graph primitives -------------------------------------------------
    def _new(self, ast_node: Optional[ast.AST], kind: str = "stmt") -> int:
        node = CFGNode(index=len(self.nodes), ast_node=ast_node, kind=kind)
        self.nodes.append(node)
        return node.index

    def _edge(self, src: int, dst: int) -> None:
        if dst not in self.nodes[src].succs:
            self.nodes[src].succs.append(dst)
            self.nodes[dst].preds.append(src)

    def _wire(self, preds: List[int], dst: int) -> None:
        for src in preds:
            self._edge(src, dst)

    # -- construction -----------------------------------------------------
    def build(self) -> CFG:
        frames = _Frames()
        out = self._block(self.func.body, [self.entry], frames)
        self._wire(out, self.exit)
        self._wire(frames.returns, self.exit)
        self._wire(frames.raise_stack[0], self.exit)
        return CFG(func=self.func, nodes=self.nodes, entry=self.entry,
                   exit=self.exit)

    def _block(self, stmts: List[ast.stmt], preds: List[int],
               frames: _Frames) -> List[int]:
        for stmt in stmts:
            preds = self._stmt(stmt, preds, frames)
        return preds

    def _stmt(self, stmt: ast.stmt, preds: List[int],
              frames: _Frames) -> List[int]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, preds, frames)
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, preds, frames)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return self._with(stmt, preds, frames)
        if isinstance(stmt, ast.Try):
            return self._try(stmt, preds, frames)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, preds, frames)
        node = self._new(stmt)
        self._wire(preds, node)
        if isinstance(stmt, ast.Return):
            frames.returns.append(node)
            return []
        if isinstance(stmt, ast.Raise):
            frames.raise_stack[-1].append(node)
            return []
        if isinstance(stmt, ast.Break):
            if frames.break_stack:
                frames.break_stack[-1].append(node)
            return []
        if isinstance(stmt, ast.Continue):
            if frames.continue_stack:
                frames.continue_stack[-1].append(node)
            return []
        return [node]

    def _if(self, stmt: ast.If, preds: List[int],
            frames: _Frames) -> List[int]:
        test = self._new(stmt)
        self._wire(preds, test)
        then_out = self._block(stmt.body, [test], frames)
        if stmt.orelse:
            else_out = self._block(stmt.orelse, [test], frames)
        else:
            else_out = [test]
        return then_out + else_out

    def _loop(self, stmt: Union[ast.While, ast.For, ast.AsyncFor],
              preds: List[int], frames: _Frames) -> List[int]:
        header = self._new(stmt)
        self._wire(preds, header)
        breaks: List[int] = []
        continues: List[int] = []
        frames.break_stack.append(breaks)
        frames.continue_stack.append(continues)
        body_out = self._block(stmt.body, [header], frames)
        frames.break_stack.pop()
        frames.continue_stack.pop()
        self._wire(body_out, header)
        self._wire(continues, header)
        # Normal termination (test false / iterator exhausted) runs the
        # loop ``else`` suite; ``break`` skips it.
        if stmt.orelse:
            else_out = self._block(stmt.orelse, [header], frames)
        else:
            else_out = [header]
        return else_out + breaks

    def _with(self, stmt: Union[ast.With, ast.AsyncWith],
              preds: List[int], frames: _Frames) -> List[int]:
        header = self._new(stmt)
        self._wire(preds, header)
        return self._block(stmt.body, [header], frames)

    def _match(self, stmt: ast.Match, preds: List[int],
               frames: _Frames) -> List[int]:
        header = self._new(stmt)
        self._wire(preds, header)
        outs: List[int] = [header]  # conservatively: no case may match
        for case in stmt.cases:
            outs.extend(self._block(case.body, [header], frames))
        return outs

    def _try(self, stmt: ast.Try, preds: List[int],
             frames: _Frames) -> List[int]:
        has_finally = bool(stmt.finalbody)
        # Intercept every abrupt channel that could cross the finally.
        intercepted = []  # (collected, original) collector pairs
        if has_finally:
            original_returns = frames.returns
            frames.returns = []
            intercepted.append((frames.returns, original_returns))
            original_raises = frames.raise_stack[-1]
            frames.raise_stack[-1] = []
            intercepted.append((frames.raise_stack[-1], original_raises))
            if frames.break_stack:
                original_breaks = frames.break_stack[-1]
                frames.break_stack[-1] = []
                intercepted.append((frames.break_stack[-1], original_breaks))
            if frames.continue_stack:
                original_continues = frames.continue_stack[-1]
                frames.continue_stack[-1] = []
                intercepted.append(
                    (frames.continue_stack[-1], original_continues))

        handler_outs: List[int] = []
        if stmt.handlers:
            frames.raise_stack.append([])
        start = len(self.nodes)
        body_out = self._block(stmt.body, preds, frames)
        end = len(self.nodes)
        if stmt.handlers:
            caught = frames.raise_stack.pop()
            handler_entries: List[int] = []
            for handler in stmt.handlers:
                h_node = self._new(handler, "except")
                handler_entries.append(h_node)
                handler_outs.extend(
                    self._block(handler.body, [h_node], frames))
            # Any statement in the try body may raise into any handler;
            # explicit raises collected above land there too.
            for index in range(start, end):
                if self.nodes[index].kind == "stmt":
                    for h_node in handler_entries:
                        self._edge(index, h_node)
            for index in caught:
                for h_node in handler_entries:
                    self._edge(index, h_node)
        if stmt.orelse:
            body_out = self._block(stmt.orelse, body_out, frames)
        normal_out = body_out + handler_outs

        if not has_finally:
            return normal_out
        # Restore the original channels *before* cloning the finally
        # suite, so abrupt jumps inside the finally target the outer
        # context, then route each intercepted class through its clone.
        pairs = []
        for collected, original in intercepted:
            pairs.append((list(collected), original))
        frames.returns = intercepted[0][1]
        frames.raise_stack[-1] = intercepted[1][1]
        rest = intercepted[2:]
        if frames.break_stack and rest:
            frames.break_stack[-1] = rest[0][1]
            rest = rest[1:]
        if frames.continue_stack and rest:
            frames.continue_stack[-1] = rest[0][1]
        out = self._block(stmt.finalbody, normal_out, frames)
        for collected, original in pairs:
            if collected:
                clone_out = self._block(stmt.finalbody, collected, frames)
                original.extend(clone_out)
        return out


def build_cfg(func: FuncDef) -> CFG:
    """Build the control-flow graph of one function definition."""
    return _Builder(func).build()


def iter_functions(tree: ast.AST) -> Iterator[FuncDef]:
    """Every ``def``/``async def`` in ``tree``, including nested ones."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def dotted(expr: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    node = expr
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
