"""Single-experiment runner: one workload, one machine, one mode, one day."""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable, Optional

from repro.sim import Engine
from repro.mpi import MPIJob
from repro.platform import Cluster, ContentionModel
from repro.platform.spec import MachineSpec
from repro.hdf5 import AsyncVOL, H5Library, NativeVOL
from repro.hdf5.vol import VOLConnector
from repro.trace import IOLog
from repro.workloads import summarize_run

__all__ = ["CACHE_MODES", "ExperimentResult", "build_vol", "run_experiment"]

#: Staging-cache wiring levels for :func:`run_experiment`.  ``None``
#: (no subsystem at all) and ``"off"`` (inert subsystem: hooks wired,
#: every behavior flag down) must produce byte-identical event
#: schedules — the ``cache_off`` perf-budget gate enforces it.
CACHE_MODES = ("off", "write", "on")


@dataclass(frozen=True)
class ExperimentResult:
    """Outcome of one run, carrying the paper's metrics."""

    machine: str
    workload: str
    mode: str
    nranks: int
    nnodes: int
    day: int
    availability: float
    n_phases: int
    total_bytes: float
    peak_bandwidth: float
    mean_bandwidth: float
    app_time: float
    #: Slowest rank's summed read blocking time (the BD-CATS "read
    #: stall" the prefetch gate compares; 0.0 for write workloads).
    read_stall_seconds: float = 0.0
    #: Cache-metrics snapshot when a subsystem was wired (else None).
    cache_stats: Optional[dict] = None

    @property
    def peak_gbs(self) -> float:
        """Peak aggregate bandwidth in GB/s (the paper's plot unit)."""
        return self.peak_bandwidth / 1e9


def build_vol(mode: str, log: Optional[IOLog] = None, **kwargs) -> VOLConnector:
    """Instantiate the connector for ``mode`` ('sync' | 'async')."""
    if mode == "sync":
        return NativeVOL(log=log)
    if mode == "async":
        kwargs.setdefault("init_time", 0.05)
        return AsyncVOL(log=log, **kwargs)
    raise ValueError(f"mode must be 'sync' or 'async', got {mode!r}")


def _read_stall(log: IOLog) -> float:
    """Max-over-ranks summed read blocking time (§III-B2 convention:
    the slowest rank determines the stall the application observes)."""
    per_rank: dict[int, float] = {}
    for r in log.records:
        if r.op == "read":
            per_rank[r.rank] = per_rank.get(r.rank, 0.0) + r.blocking_time
    return max(per_rank.values()) if per_rank else 0.0


def run_experiment(
    machine: MachineSpec,
    workload_name: str,
    program_factory: Callable,
    config,
    mode: str,
    nranks: int,
    ranks_per_node: Optional[int] = None,
    day: int = 0,
    contention: Optional[ContentionModel] = None,
    prepopulate: Optional[Callable] = None,
    op: str = "write",
    vol_kwargs: Optional[dict] = None,
    cache_mode: Optional[str] = None,
    cache_tiers=None,
    faults=None,
) -> ExperimentResult:
    """Run ``program_factory(lib, vol, config)`` once and summarize.

    ``prepopulate(lib, nranks)``, when given, creates input files before
    the job starts (read workloads).  ``day`` selects the contention
    sample (paper: runs repeated "across multiple days").

    ``cache_mode`` wires a :class:`~repro.cache.CacheSubsystem` into the
    connector: ``"off"`` builds it inert (the byte-identity baseline),
    ``"write"`` enables the write-through drain, ``"on"`` additionally
    enables deadline prefetch (program factories accepting ``cache`` /
    ``prefetch`` keyword arguments get them passed through).
    """
    if nranks < 1:
        raise ValueError(f"nranks must be >= 1, got {nranks!r}")
    if ranks_per_node is not None and ranks_per_node < 1:
        raise ValueError(
            f"ranks_per_node must be >= 1 or None, got {ranks_per_node!r}")
    if cache_mode is not None and cache_mode not in CACHE_MODES:
        raise ValueError(
            f"cache_mode must be one of {CACHE_MODES} or None, "
            f"got {cache_mode!r}"
        )
    engine = Engine()
    rpn = ranks_per_node or machine.default_ranks_per_node
    nnodes = math.ceil(nranks / rpn)
    cluster = Cluster(engine, machine, nnodes)
    availability = 1.0
    if contention is not None:
        availability = contention.apply(cluster.pfs, day)
    lib = H5Library(cluster)
    cache = None
    kwargs = dict(vol_kwargs or {})
    if cache_mode is not None:
        from repro.cache import CacheSubsystem

        cache = CacheSubsystem(
            cluster, tiers=cache_tiers, faults=faults,
            write_through=cache_mode in ("write", "on"),
            prefetch=cache_mode == "on",
        )
        if mode == "async":
            kwargs.setdefault("cache", cache)
    vol = build_vol(mode, **kwargs)
    if prepopulate is not None:
        prepopulate(lib, nranks)
    factory_kwargs = {}
    if cache is not None:
        accepted = inspect.signature(program_factory).parameters
        if "cache" in accepted:
            factory_kwargs["cache"] = cache
        if "prefetch" in accepted:
            factory_kwargs["prefetch"] = cache.prefetch
    job = MPIJob(cluster, nranks, ranks_per_node=rpn)
    results = job.run(program_factory(lib, vol, config, **factory_kwargs))
    app_time = max(results)
    stats = summarize_run(vol.log, app_time, op=op, mode=mode)
    cache_stats = None
    if cache is not None:
        cache_stats = cache.snapshot()
        vol.log.note_cache(cache_stats)
    return ExperimentResult(
        machine=machine.name,
        workload=workload_name,
        mode=mode,
        nranks=nranks,
        nnodes=nnodes,
        day=day,
        availability=availability,
        n_phases=stats.n_phases,
        total_bytes=stats.total_bytes,
        peak_bandwidth=stats.peak_bandwidth,
        mean_bandwidth=stats.mean_bandwidth,
        app_time=app_time,
        read_stall_seconds=_read_stall(vol.log),
        cache_stats=cache_stats,
    )
