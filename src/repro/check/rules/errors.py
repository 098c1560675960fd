"""Error-discipline rules (RC2xx): typed, catchable, propagating.

The fault-injection layer's recovery ladder (PR 2) works because every
injected fault is a :class:`repro.faults.FaultError` subclass and
recovery code catches exactly that.  Bare ``except:`` swallows
``Interrupted`` (breaking scheduler walltime kills) and engine
invariant violations; ``raise Exception`` gives callers nothing to
catch; an exception class based on bare ``Exception`` in a sim path
escapes the taxonomy that the retry/fallback logic dispatches on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.cfg import dotted
from repro.check.rules import LintContext, Rule, register

__all__ = ["BareExceptRule", "GenericRaiseRule", "TaxonomyRule"]


@register
class BareExceptRule(Rule):
    """RC201 — bare ``except:`` clause."""

    id = "RC201"
    title = "bare except clause"
    hint = (
        "catch the specific error type (FaultError subclass, "
        "SimulationError, ...); 'except Exception' at the broadest"
    )
    scope = "repo"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield (node.lineno, node.col_offset,
                       "bare 'except:' also swallows Interrupted, "
                       "DeadlineExceeded and engine invariant errors")


@register
class GenericRaiseRule(Rule):
    """RC202 — ``raise Exception(...)`` / ``raise BaseException(...)``."""

    id = "RC202"
    title = "raising a generic Exception"
    hint = (
        "raise a typed error (ValueError, RuntimeError, a FaultError "
        "subclass, ...) so callers can catch it precisely"
    )
    scope = "repo"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc
            if isinstance(exc, ast.Call):
                exc = exc.func
            name = dotted(exc)
            if name in ("Exception", "BaseException"):
                yield (node.lineno, node.col_offset,
                       f"raise {name} gives callers nothing specific "
                       f"to catch")


@register
class TaxonomyRule(Rule):
    """RC203 — exception class outside the typed taxonomy."""

    id = "RC203"
    title = "sim-path exception class derives from bare Exception"
    hint = (
        "derive from the FaultError / TransientIOError taxonomy "
        "(repro.faults.errors), SimulationError, or a specific builtin "
        "(ValueError, TimeoutError, ...)"
    )
    scope = "sim"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for base in node.bases:
                name = dotted(base)
                if name in ("Exception", "BaseException"):
                    yield (node.lineno, node.col_offset,
                           f"exception class {node.name} derives from "
                           f"bare {name}; recovery code dispatches on "
                           f"the typed taxonomy")
