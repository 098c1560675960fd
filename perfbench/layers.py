"""Per-layer attribution of one traced pass, from the benchmark's own code.

Self time comes from stdlib :mod:`cProfile`, summed by the ``repro``
module that defines each function.  cProfile rather than wrappers: the
workloads, VOL connectors and hdf5 objects are generator coroutines the
engine resumes, and cProfile charges every resumption to the generator,
whereas a wrapper would time only the generator's creation.  Functions
outside the listed layers (numpy, builtins, the stdlib, other ``repro``
modules and this benchmark) are charged to ``other``.

Counts are call counts of named public functions.  cProfile's count is
exact for plain functions; for generator functions it counts every
resumption, so those are counted by a wrapper around creation instead.
``EngineStats`` is read by wrapping the public ``Engine.run`` and
snapshotting ``engine.stats`` when it returns.

One span is recorded per experiment (name, start, end, parent = the
pass) with the layer self times of that experiment attached.
"""

from __future__ import annotations

import cProfile
import functools
import pathlib
import pstats
import time
from collections import Counter
from contextlib import contextmanager

import repro
from repro.hdf5 import AsyncVOL, NativeVOL
from repro.hdf5.dataspace import Hyperslab
from repro.sim import Engine
from repro.sim.network import Network
from repro.trace import IOLog

#: Modules under ``src/repro`` that self time is summed by.  A module
#: belongs to the longest listed dotted prefix of its name.
LAYERS = (
    "sim.engine", "sim.network", "sim.primitives", "mpi", "platform",
    "hdf5.dataspace", "hdf5.objects", "hdf5.native_vol", "hdf5.async_vol",
    "hdf5.eventset", "trace.recorder", "workloads", "cache", "sched",
    "model", "faults", "harness",
)

#: Plain functions counted through cProfile's call count.
_PLAIN_COUNTS = {
    "sim.network.flows": Network.transfer,
    "hdf5.dataspace.hyperslabs": Hyperslab.__post_init__,
    "trace.recorder.records": IOLog.append,
    "trace.recorder.selects": IOLog.select,
}
_PLAIN_KEYS = {
    (f.__code__.co_filename, f.__code__.co_firstlineno, f.__code__.co_name): name
    for name, f in _PLAIN_COUNTS.items()
}

#: Generator functions, counted by a wrapper around their creation.
_GENERATOR_COUNTS = {
    "hdf5.async_vol.ops": (AsyncVOL, ("dataset_write", "dataset_read")),
    "hdf5.native_vol.ops": (NativeVOL, ("dataset_write", "dataset_read")),
}

_ENGINE_COUNTS = {
    "sim.engine.events": "events",
    "sim.engine.fastpath_events": "fastpath_events",
    "sim.network.rebalances": "rebalances",
    "sim.network.rebalances_skipped": "rebalances_skipped",
    "sim.network.allocator_rounds": "allocator_rounds",
}

COUNT_NAMES = (*_ENGINE_COUNTS, *_PLAIN_COUNTS, *_GENERATOR_COUNTS)

_SRC = str(pathlib.Path(repro.__file__).parent) + "/"


@functools.lru_cache(maxsize=None)
def layer_of(filename: str) -> str:
    """The layer a source file belongs to (``other`` outside them)."""
    if not filename.startswith(_SRC):
        return "other"
    module = filename[len(_SRC):].removesuffix(".py").replace("/", ".")
    module = module.removesuffix(".__init__")
    best = "other"
    for layer in LAYERS:
        if (module == layer or module.startswith(layer + ".")) and (
                best == "other" or len(layer) > len(best)):
            best = layer
    return best


class Tracer:
    """Collects spans and per-layer numbers for traced passes.

    Call :meth:`run_pass` inside :meth:`installed`.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._profile = None
        # Keyed by engine, not summed per call: stats are cumulative over
        # every run() of one engine.  The engine is held so ids stay unique.
        self._engines: dict = {}
        self._generator_calls: Counter = Counter()
        self._start = 0.0

    @contextmanager
    def installed(self):
        """Patch the counted public functions for the duration."""
        original_run = Engine.run
        saved = [(Engine, "run", original_run)]
        engines = self._engines

        def run(engine, *args, **kwargs):
            try:
                return original_run(engine, *args, **kwargs)
            finally:
                s = engine.stats
                engines[id(engine)] = (engine, {
                    attr: getattr(s, attr) for attr in _ENGINE_COUNTS.values()
                })

        Engine.run = run
        for metric, (cls, names) in _GENERATOR_COUNTS.items():
            for attr in names:
                fn = getattr(cls, attr)
                saved.append((cls, attr, fn))
                setattr(cls, attr, self._counting(metric, fn))
        try:
            yield self
        finally:
            for cls, attr, fn in saved:
                setattr(cls, attr, fn)

    def _counting(self, metric, fn):
        calls = self._generator_calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _begin(self) -> None:
        self._engines.clear()
        self._generator_calls.clear()
        self._profile = cProfile.Profile()
        self._start = time.perf_counter()
        self._profile.enable()

    def _end(self, name: str, parent: str) -> None:
        self._profile.disable()
        end = time.perf_counter()
        self_s = dict.fromkeys((*LAYERS, "other"), 0.0)
        counts = Counter(dict.fromkeys(COUNT_NAMES, 0))
        for key, (_, ncalls, tottime, _, _) in pstats.Stats(
                self._profile).stats.items():
            self_s[layer_of(key[0])] += tottime
            if key in _PLAIN_KEYS:
                counts[_PLAIN_KEYS[key]] += ncalls
        for _, snap in self._engines.values():
            for metric, attr in _ENGINE_COUNTS.items():
                counts[metric] += snap[attr]
        counts.update(self._generator_calls)
        self._profile = None
        self._engines.clear()
        self.spans.append({"name": name, "parent": parent, "start": self._start,
                           "end": end, "self_s": self_s, "counts": dict(counts)})

    def run_pass(self, workload, parent: str):
        """Run one traced pass; returns (wall, outcomes, per-layer row).

        The pass's own span is appended after its experiments' spans.
        Call inside :meth:`installed`.
        """
        first = len(self.spans)

        def close(name, more):
            self._end(name, parent)
            if more:
                self._begin()

        self._begin()
        wall, outcomes = workload.run_pass(close)
        spans = self.spans[first:]
        row: Counter = Counter()
        for span in spans:
            row.update({f"{layer}.self_s": seconds
                        for layer, seconds in span["self_s"].items()})
            row.update(span["counts"])
        self.spans.append({"name": parent, "parent": None,
                           "start": spans[0]["start"], "end": spans[-1]["end"]})
        return wall, outcomes, {**row, **output_metrics(outcomes)}


def output_metrics(outcomes) -> dict:
    """Per-layer numbers read from the simulated outputs of one pass."""
    hits = misses = on_time = done = 0
    fleet = {"sched.requeues": 0, "faults.node_kills": 0,
             "model.quarantined": 0}
    for out in outcomes:
        m = out.outputs or {}
        stats = m.get("cache_stats") or {}
        hits += stats.get("hits", 0)
        misses += stats.get("misses", 0)
        on_time += stats.get("prefetch_on_time", 0)
        done += sum(stats.get(k, 0) for k in (
            "prefetch_on_time", "prefetch_late", "prefetch_failed"))
        for name in fleet:
            fleet[name] += m.get(name.split(".")[1], 0)
    return {
        # Same conventions as repro.cache.CacheMetrics.
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.on_time_ratio": on_time / done if done else 1.0,
        **fleet,
        "harness.experiments": len(outcomes),
    }
