"""Pluggable rule registry for the ``repro check`` static analyzer.

A rule is a small object with an ``id`` (``RCxyz``, stable forever), a
one-line ``title``, a ``hint`` telling the author how to fix the
violation, a ``scope`` and a ``check`` method yielding violations as
``(line, col, message)`` triples.

Scopes
------

``"repo"``
    The rule applies to every linted file (``src/`` and ``tests/``).
``"sim"``
    The rule applies only to the simulation-path packages whose
    determinism the figure gates depend on: ``repro/sim``,
    ``repro/sched``, ``repro/hdf5``, ``repro/faults``,
    ``repro/platform``.

Tiers
-----

``"flat"``
    Single-statement AST pattern rules (RC1xx-RC3xx); always run.
``"flow"``
    Flow-sensitive rules (RC4xx-RC5xx) built on the CFG + fixpoint
    machinery in :mod:`repro.check.cfg` / :mod:`repro.check.dataflow`;
    run only when the ``flow`` flag (CLI ``repro check --flow``) is on.
``"inter"``
    Interprocedural rules (RC405, RC110/RC111) that consult the
    call-graph + function-summary machinery in
    :mod:`repro.check.callgraph` / :mod:`repro.check.summaries`, and
    the whole-project concurrency rules (RC6xx) over the
    acquisition-order graph and wait/trigger matching in
    :mod:`repro.check.concurrency`; run only when the lint context
    carries an inter view (CLI ``repro check --inter``).  The flow
    rules also *sharpen* under this tier: handles passed to resolved
    project functions apply the callee's effect summary instead of the
    escape hedge.

Adding a rule
-------------

1. Subclass :class:`Rule` (flat tier) or :class:`FlowRule` (flow tier)
   in one of the modules here (or a new one), set
   ``id``/``title``/``hint``/``scope`` and implement ``check`` — for
   flow rules, ``check_function``, which receives one CFG at a time.
2. Decorate it with :func:`register`.  IDs must be unique; pick the
   next free number in the band (1xx determinism, 2xx error
   discipline, 3xx hygiene, 4xx async-API typestate, 5xx units).
3. Add a good/bad fixture pair for it in ``tests/test_check.py`` (flat)
   or ``tests/test_check_flow.py`` (flow) and a row to the rule table
   in ``docs/architecture.md``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Type

from repro.check.cfg import CFG, build_cfg, iter_functions

__all__ = ["FlowRule", "LintContext", "RULES", "Rule", "all_rules",
           "register"]

#: Packages (posix path fragments) whose determinism the repo's
#: byte-identical gates rest on; ``scope="sim"`` rules apply here only.
SIM_PATHS = (
    "repro/sim/",
    "repro/sched/",
    "repro/hdf5/",
    "repro/faults/",
    "repro/platform/",
)


@dataclass
class LintContext:
    """Everything a rule may look at for one file."""

    path: str  # normalized to posix separators
    tree: ast.Module
    source: str
    lines: list[str] = field(default_factory=list)
    #: Per-file interprocedural view (``FileInter`` from
    #: :mod:`repro.check.summaries`) when the inter tier is on; ``None``
    #: keeps the flow rules on their intraprocedural escape hedge.
    inter: Optional[object] = None
    #: Memoized CFGs, keyed by id() of the function node — flow rules
    #: analyzing the same file share one graph per function.
    _cfgs: Dict[int, CFG] = field(default_factory=dict, repr=False)

    @property
    def in_sim_path(self) -> bool:
        """Whether the file lives in a determinism-critical package."""
        return any(fragment in self.path for fragment in SIM_PATHS)

    def cfg(self, func: "ast.FunctionDef | ast.AsyncFunctionDef") -> CFG:
        """The (memoized) control-flow graph of ``func``."""
        key = id(func)
        if key not in self._cfgs:
            self._cfgs[key] = build_cfg(func)
        return self._cfgs[key]


class Rule:
    """Base class for lint rules; subclasses override the metadata and
    :meth:`check`."""

    id: str = ""
    title: str = ""
    hint: str = ""
    scope: str = "repo"  # "repo" | "sim"
    tier: str = "flat"  # "flat" | "flow" | "inter"

    def applies(self, ctx: LintContext) -> bool:
        """Whether this rule runs on ``ctx`` at all (scope gate)."""
        return self.scope == "repo" or ctx.in_sim_path

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        """Yield ``(line, col, message)`` per violation."""
        raise NotImplementedError
        yield  # pragma: no cover


class FlowRule(Rule):
    """Base class for flow-sensitive rules (RC4xx/RC5xx).

    Subclasses implement :meth:`check_function` over one CFG; the base
    ``check`` fans out across every function in the file (nested ones
    included) and deduplicates findings — ``finally`` clones can make
    two CFG nodes share one source statement.
    """

    tier = "flow"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        seen: set[tuple[int, int, str]] = set()
        for func in iter_functions(ctx.tree):
            for finding in self.check_function(ctx, ctx.cfg(func)):
                if finding not in seen:
                    seen.add(finding)
                    yield finding

    def check_function(self, ctx: LintContext,
                       cfg: CFG) -> Iterator[tuple[int, int, str]]:
        """Yield ``(line, col, message)`` per violation in one function."""
        raise NotImplementedError
        yield  # pragma: no cover


#: Registered rules, keyed by ID (insertion-ordered for stable output).
RULES: dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding one instance of ``rule_cls`` to the registry."""
    rule = rule_cls()
    if not rule.id or not rule.title or not rule.hint:
        raise ValueError(f"rule {rule_cls.__name__} lacks id/title/hint")
    if rule.scope not in ("repo", "sim"):
        raise ValueError(f"rule {rule.id}: unknown scope {rule.scope!r}")
    if rule.tier not in ("flat", "flow", "inter"):
        raise ValueError(f"rule {rule.id}: unknown tier {rule.tier!r}")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return rule_cls


def all_rules() -> list[Rule]:
    """Registered rules in ID order."""
    return [RULES[rule_id] for rule_id in sorted(RULES)]


# Importing the rule modules populates the registry.  ``interproc``
# must come last: it is the only module allowed to (lazily) reach back
# into the summary machinery.
from repro.check.rules import (  # noqa: E402,F401
    asyncstate,
    determinism,
    errors,
    hygiene,
    robustness,
    units,
    interproc,
    concurrency,
)
