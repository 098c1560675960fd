"""Determinism rules (RC1xx): no wall clock, no unseeded entropy.

The byte-identical figure gates (fig3a/fig4c/fig8) and the same-seed
replay gates of the fault and scheduler layers hold only if nothing in
a simulation path consults the host: simulated time comes from
``engine.now`` and every random draw from an explicitly seeded
generator (``random.Random(seed)`` / ``np.random.default_rng(seed)``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.check.cfg import dotted
from repro.check.rules import LintContext, Rule, register

__all__ = ["UnseededRandomRule", "WallClockRule"]


#: Host-clock and OS-entropy calls that must never appear in sim paths.
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Wall-clock calls matched by their trailing components, so both
#: ``datetime.now()`` and ``datetime.datetime.now()`` are caught.
_WALL_CLOCK_SUFFIXES = ("datetime.now", "datetime.utcnow", "date.today")


@register
class WallClockRule(Rule):
    """RC101 — wall clock / OS entropy in a simulation path."""

    id = "RC101"
    title = "wall clock or OS entropy in a simulation path"
    hint = (
        "derive time from engine.now and entropy from a seeded "
        "random.Random(seed) / np.random.default_rng(seed)"
    )
    scope = "sim"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name is None:
                continue
            if (
                name in _WALL_CLOCK_CALLS
                or name.startswith("secrets.")
                or name in _WALL_CLOCK_SUFFIXES
                or name.endswith(tuple("." + s for s in _WALL_CLOCK_SUFFIXES))
            ):
                yield (node.lineno, node.col_offset,
                       f"call to {name}() reads the host clock or OS "
                       f"entropy inside a simulation path")


#: Functions of the process-global ``random`` module RNG.
_GLOBAL_RANDOM_FNS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}

#: Legacy functions of the process-global numpy RNG.
_GLOBAL_NP_RANDOM_FNS = {
    "choice", "normal", "permutation", "rand", "randint", "randn",
    "random", "random_sample", "seed", "shuffle", "uniform",
}


@register
class UnseededRandomRule(Rule):
    """RC102 — process-global or unseeded RNG in a simulation path."""

    id = "RC102"
    title = "process-global or unseeded RNG in a simulation path"
    hint = (
        "draw from an explicitly seeded generator: random.Random(seed) "
        "or np.random.default_rng((seed, salt))"
    )
    scope = "sim"

    def check(self, ctx: LintContext) -> Iterator[tuple[int, int, str]]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted(node.func)
            if name is None:
                continue
            if name in {f"random.{fn}" for fn in _GLOBAL_RANDOM_FNS}:
                yield (node.lineno, node.col_offset,
                       f"{name}() draws from the process-global RNG "
                       f"(shared, unseedable per-run state)")
            elif name == "random.Random" and not node.args:
                yield (node.lineno, node.col_offset,
                       "random.Random() without a seed is OS-entropy "
                       "seeded")
            elif name in {f"np.random.{fn}" for fn in _GLOBAL_NP_RANDOM_FNS} \
                    or name in {f"numpy.random.{fn}"
                                for fn in _GLOBAL_NP_RANDOM_FNS}:
                yield (node.lineno, node.col_offset,
                       f"{name}() draws from numpy's process-global "
                       f"legacy RNG")
            elif name in ("np.random.default_rng",
                          "numpy.random.default_rng") and not node.args:
                yield (node.lineno, node.col_offset,
                       "np.random.default_rng() without a seed is "
                       "OS-entropy seeded")
