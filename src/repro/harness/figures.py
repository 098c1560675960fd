"""Regeneration of every figure in the paper's evaluation (§V).

Each ``fig*`` function runs the corresponding sweep on the simulated
machine, fits the Eq. 4 model for the dotted "estimated" series, and
returns a :class:`~repro.harness.report.FigureData`.  The best-of-days
grids (Figs. 3-6 and 8) are one
:class:`~repro.harness.sweepengine.SweepSpec` each.

Two scale profiles exist (``REPRO_PROFILE`` or the ``profile=``
argument):

- ``quick`` (default): truncated rank sweeps / fewer repetitions; every
  qualitative shape is preserved and the whole set runs in minutes.
- ``paper``: the published configurations (up to 12,288 ranks on
  Summit, 8,192 on Cori-Haswell, 5 repetitions).
"""

from __future__ import annotations

import os
from typing import Callable, Optional, Sequence

from repro.platform import cori_haswell, summit
from repro.analysis import fit_sweep_points, variability_stats
from repro.harness.experiment import run_experiment
from repro.harness.report import FigureData
from repro.harness.sweepengine import SweepSpec, merged_sweep_points, run_sweep
from repro.model import EpochCosts, app_time
from repro.model.microbench import gpu_transfer_microbench, memcpy_microbench
from repro.workloads import NyxConfig, nyx_program

__all__ = [
    "FIGURES", "all_figures",
    "fig3a", "fig3b", "fig3c", "fig3d",
    "fig4a", "fig4b", "fig4c", "fig4d",
    "fig5", "fig6", "fig7", "fig8",
    "fig_faults", "fig_sched",
    "microbench_memcpy", "microbench_gpu",
    "resolve_profile",
]

GB = 1e9
Mi = 1 << 20

#: Rank sweeps per (figure-machine, profile).
_SCALES = {
    ("summit", "quick"): [96, 192, 384, 768, 1536],
    ("summit", "paper"): [96, 192, 384, 768, 1536, 3072, 6144, 12288],
    ("cori", "quick"): [128, 256, 512, 1024, 2048],
    ("cori", "paper"): [128, 256, 512, 1024, 2048, 4096, 8192],
    ("summit-app", "quick"): [96, 192, 384, 768],
    ("summit-app", "paper"): [96, 192, 384, 768, 1536, 3072],
    ("cori-app", "quick"): [128, 256, 512, 1024],
    ("cori-app", "paper"): [128, 256, 512, 1024, 2048, 4096],
    # Strong-scaling sweeps whose paper plots start in the saturated
    # regime (Nyx large / EQSIM: huge fixed datasets).
    ("summit-sat", "quick"): [768, 1536, 3072],
    ("summit-sat", "paper"): [768, 1536, 3072, 6144, 12288],
}
_REPS = {"quick": 2, "paper": 5}
_STEPS = {"quick": 3, "paper": 5}
#: Fig. 7's (total steps, plotfile intervals, ranks) per profile.
_FIG7 = {
    "quick": (48, [1, 2, 4, 8, 16, 48], 128),
    "paper": (192, [1, 3, 6, 12, 24, 48, 96, 192], 512),
}
#: Fig. 8's (ranks, days) per profile: one scale observed across days.
_FIG8 = {"quick": (768, 6), "paper": (3072, 10)}
#: The scheduling table's jobs per stream, per profile.
_SCHED_JOBS = {"quick": 25, "paper": 60}


def resolve_profile(profile: Optional[str] = None) -> str:
    """Profile from argument or ``REPRO_PROFILE`` (default ``quick``)."""
    profile = profile or os.environ.get("REPRO_PROFILE", "quick")
    if profile not in ("quick", "paper"):
        raise ValueError(f"profile must be 'quick' or 'paper', got {profile!r}")
    return profile


def _run_grid(name: str, spec: SweepSpec) -> dict:
    """Run one figure's grid serially; any failed point fails the figure.

    A figure plots best-of-days peaks, so a crashed day would silently
    plot a best-of-fewer; raise instead, naming the point and its error.
    """
    merged = run_sweep(spec).merged
    for p in merged["points"]:
        if not p["ok"]:
            err = p["error"]
            raise RuntimeError(
                f"{name}: point {p['index']} ({p['machine']} {p['mode']} "
                f"scale {p['scale']:g} seed {p['seed']}) failed: "
                f"{err['kind']}: {err['message']}"
            )
    return merged


def _bandwidth_figure(
    name: str,
    title: str,
    machine: str,
    workload: str,
    config: dict,
    scales: Sequence[int],
    reps: int,
    seed: int,
) -> FigureData:
    """Shared sweep → fit → table pipeline for Figs. 3-6.

    ``machine`` and ``workload`` are registry names; ``config``
    overrides fields of the registered workload config.  Each
    repetition is a contention day under mild baseline load, so
    repetitions differ.
    """
    merged = _run_grid(name, SweepSpec(
        workload=workload, machines=(machine,), scales=tuple(scales),
        seeds=tuple(range(reps)), contention=(seed, 0.15, 0.5),
        config=tuple(config.items()),
    ))
    points = merged_sweep_points(merged)
    fits = {mode: fit_sweep_points(points, mode) for mode in ("sync", "async")}
    fig = FigureData(
        name=name,
        title=title,
        columns=["ranks", "nodes", "sync GB/s", "est sync GB/s",
                 "async GB/s", "est async GB/s"],
    )
    sync_points = {p.nranks: p for p in points if p.mode == "sync"}
    async_points = {p.nranks: p for p in points if p.mode == "async"}
    for nranks in scales:
        fig.add_row(
            nranks,
            sync_points[nranks].nnodes,
            sync_points[nranks].peak_gbs,
            fits["sync"].estimate_gbs(nranks),
            async_points[nranks].peak_gbs,
            fits["async"].estimate_gbs(nranks),
        )
    fig.meta["r2 sync"] = fits["sync"].r2
    fig.meta["r2 async"] = fits["async"].r2
    fig.meta["fit sync"] = fits["sync"].transform
    fig.meta["fit async"] = fits["async"].transform
    return fig


# ---------------------------------------------------------------------------
# Fig. 3 — I/O kernels, weak scaling
# ---------------------------------------------------------------------------


def fig3a(profile: Optional[str] = None) -> FigureData:
    """VPIC-IO write bandwidth on Summit (weak scaling, sync vs async)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig3a", "VPIC-IO write aggregate bandwidth, Summit (weak scaling)",
        "summit", "vpic", {"steps": _STEPS[p]},
        scales=_SCALES[("summit", p)], reps=_REPS[p], seed=31,
    )


def fig3b(profile: Optional[str] = None) -> FigureData:
    """VPIC-IO write bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig3b", "VPIC-IO write aggregate bandwidth, Cori-Haswell (weak scaling)",
        "cori", "vpic", {"steps": _STEPS[p]},
        scales=_SCALES[("cori", p)], reps=_REPS[p], seed=32,
    )


def fig3c(profile: Optional[str] = None) -> FigureData:
    """BD-CATS-IO read bandwidth on Summit."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig3c", "BD-CATS-IO read aggregate bandwidth, summit (weak scaling)",
        "summit", "bdcats", {"steps": _STEPS[p]},
        scales=_SCALES[("summit", p)], reps=_REPS[p], seed=33,
    )


def fig3d(profile: Optional[str] = None) -> FigureData:
    """BD-CATS-IO read bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig3d", "BD-CATS-IO read aggregate bandwidth, cori-haswell "
                 "(weak scaling)",
        "cori", "bdcats", {"steps": _STEPS[p]},
        scales=_SCALES[("cori", p)], reps=_REPS[p], seed=34,
    )


# ---------------------------------------------------------------------------
# Fig. 4 — Nyx and Castro, strong scaling
# ---------------------------------------------------------------------------


def fig4a(profile: Optional[str] = None) -> FigureData:
    """Nyx large (2048³) plotfile bandwidth on Summit (strong scaling)."""
    p = resolve_profile(profile)
    # Nyx runs GPU-accelerated on Summit (§V-A.3): writes include the
    # device→host transfer.
    return _bandwidth_figure(
        "fig4a", "Nyx large (2048^3, GPU) write aggregate bandwidth, Summit "
                 "(strong scaling)",
        "summit", "nyx-large", {"n_plotfiles": _STEPS[p], "use_gpu": True},
        scales=_SCALES[("summit-sat", p)], reps=_REPS[p], seed=41,
    )


def fig4b(profile: Optional[str] = None) -> FigureData:
    """Nyx small (256³) plotfile bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig4b", "Nyx small (256^3) write aggregate bandwidth, Cori-Haswell "
                 "(strong scaling)",
        "cori", "nyx-small", {"n_plotfiles": _STEPS[p]},
        scales=_SCALES[("cori", p)], reps=_REPS[p], seed=42,
    )


def fig4c(profile: Optional[str] = None) -> FigureData:
    """Castro plotfile bandwidth on Summit (strong scaling)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig4c", "Castro (128^3, 6 comps, 2 particles/cell) write aggregate "
                 "bandwidth, Summit (strong scaling)",
        "summit", "castro", {"n_plotfiles": _STEPS[p]},
        scales=_SCALES[("summit-app", p)], reps=_REPS[p], seed=43,
    )


def fig4d(profile: Optional[str] = None) -> FigureData:
    """Castro plotfile bandwidth on Cori-Haswell."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig4d", "Castro write aggregate bandwidth, Cori-Haswell "
                 "(strong scaling)",
        "cori", "castro", {"n_plotfiles": _STEPS[p]},
        scales=_SCALES[("cori-app", p)], reps=_REPS[p], seed=44,
    )


# ---------------------------------------------------------------------------
# Fig. 5 — Cosmoflow, Fig. 6 — EQSIM
# ---------------------------------------------------------------------------


def fig5(profile: Optional[str] = None) -> FigureData:
    """Cosmoflow batch-read bandwidth on Summit (4 training epochs)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig5", "Cosmoflow batch read aggregate bandwidth, Summit",
        "summit", "cosmoflow",
        {"epochs": 2 if p == "quick" else 4,
         "batches_per_rank": 4 if p == "quick" else 8},
        scales=_SCALES[("summit-app", p)], reps=_REPS[p], seed=50,
    )


def fig6(profile: Optional[str] = None) -> FigureData:
    """EQSIM/SW4 checkpoint bandwidth on Summit (strong scaling)."""
    p = resolve_profile(profile)
    return _bandwidth_figure(
        "fig6", "EQSIM (SW4, grid 50, 30000x30000x17000) checkpoint aggregate "
                "bandwidth, Summit (strong scaling)",
        "summit", "sw4", {"n_checkpoints": _STEPS[p]},
        scales=_SCALES[("summit-sat", p)], reps=_REPS[p], seed=60,
    )


# ---------------------------------------------------------------------------
# Fig. 7 — partial overlap: time steps per computation phase
# ---------------------------------------------------------------------------


def fig7(profile: Optional[str] = None) -> FigureData:
    """Nyx on Cori: application duration vs time steps per compute phase.

    Total simulation steps stay fixed; the plotfile interval varies, so
    small intervals mean many I/O phases.  The estimated durations come
    from the Eq. 1/2 model with costs measured on the *largest*
    interval's runs (the model's history-driven workflow).
    """
    total_steps, intervals, nranks = _FIG7[resolve_profile(profile)]
    machine = cori_haswell()
    # Short steps relative to the plotfile cost, so checkpoint frequency
    # visibly stretches the synchronous duration (the Fig. 7 regime).
    seconds_per_step = 0.1

    fig = FigureData(
        name="fig7",
        title=f"Nyx on Cori-Haswell: application duration vs time steps per "
              f"computation phase ({total_steps} total steps, {nranks} ranks)",
        columns=["steps/phase", "io phases", "sync s", "est sync s",
                 "async s", "est async s"],
    )

    measured: dict[tuple[str, int], float] = {}
    probe = {}
    for interval in intervals:
        cfg = NyxConfig.small(
            plot_int=interval,
            n_plotfiles=total_steps // interval,
            seconds_per_step=seconds_per_step,
        )
        for mode in ("sync", "async"):
            result = run_experiment(
                machine, "nyx-overlap", nyx_program, cfg, mode=mode,
                nranks=nranks, op="write",
            )
            measured[(mode, interval)] = result.app_time
            probe[(mode, interval)] = result

    # Model costs from the largest-interval runs (one I/O phase each).
    ref = max(intervals)
    ref_sync = probe[("sync", ref)]
    ref_async = probe[("async", ref)]
    phase_bytes = ref_sync.total_bytes / ref_sync.n_phases
    t_io = phase_bytes / ref_sync.peak_bandwidth
    t_transact = phase_bytes / ref_async.peak_bandwidth

    for interval in intervals:
        n_phases = total_steps // interval
        costs = EpochCosts(
            t_comp=interval * seconds_per_step,
            t_io=t_io,
            t_transact=t_transact,
        )
        est_sync = app_time([costs] * n_phases, "sync")
        est_async = app_time([costs] * n_phases, "async",
                             include_final_drain=True)
        fig.add_row(
            interval, n_phases,
            measured[("sync", interval)], est_sync,
            measured[("async", interval)], est_async,
        )
    fig.meta["t_io (s)"] = t_io
    fig.meta["t_transact (s)"] = t_transact
    return fig


# ---------------------------------------------------------------------------
# Fig. 8 — run-to-run variability under contention
# ---------------------------------------------------------------------------


def fig8(profile: Optional[str] = None) -> FigureData:
    """VPIC-IO on Summit across days: sync varies, async stays flat."""
    p = resolve_profile(profile)
    nranks, days = _FIG8[p]
    merged = _run_grid("fig8", SweepSpec(
        workload="vpic", machines=("summit",), scales=(nranks,),
        seeds=tuple(range(days)), contention=(80, 0.6, 0.8),
        config=(("steps", _STEPS[p]),),
    ))
    by_mode: dict[str, list[dict]] = {"sync": [], "async": []}
    for point in merged["points"]:  # (mode, day) order
        by_mode[point["mode"]].append(point["metrics"])

    fig = FigureData(
        name="fig8",
        title=f"VPIC-IO variability on Summit across {days} runs "
              f"({nranks} ranks)",
        columns=["day", "availability", "sync GB/s", "async GB/s"],
    )
    for day, (sm, am) in enumerate(zip(by_mode["sync"], by_mode["async"])):
        fig.add_row(day, sm["availability"], sm["peak_bandwidth"] / GB,
                    am["peak_bandwidth"] / GB)
    s = variability_stats([m["peak_bandwidth"] for m in by_mode["sync"]])
    a = variability_stats([m["peak_bandwidth"] for m in by_mode["async"]])
    fig.meta["sync CV"] = s.cv
    fig.meta["async CV"] = a.cv
    fig.meta["sync max/min"] = s.spread_ratio
    fig.meta["async max/min"] = a.spread_ratio
    return fig


# ---------------------------------------------------------------------------
# Robustness extension — checkpoint recovery under injected faults
# ---------------------------------------------------------------------------


def fig_faults(profile: Optional[str] = None) -> FigureData:
    """Checkpoint-restart goodput and data-loss window under faults.

    Not a paper figure: the evaluation covers only the happy path.  A
    checkpointing job is killed mid-epoch at each injected flaky-write
    rate; the table compares sync vs async on durable progress, the
    data-loss window, and goodput across kill + restart (see
    :mod:`repro.harness.recovery`).  The synchronous writer surfaces
    the first fault to the application and forfeits every later epoch;
    the async VOL's retry + sync-fallback ladder absorbs the same
    faults and keeps goodput flat.
    """
    from repro.harness.recovery import recovery_sweep
    from repro.workloads.restart import RestartConfig

    p = resolve_profile(profile)
    nranks = 12 if p == "quick" else 96
    rates = (0.0, 0.05, 0.2) if p == "quick" else (0.0, 0.02, 0.05, 0.1, 0.2)
    cfg = RestartConfig(elems_per_rank=Mi, checkpoints=4, compute_seconds=5.0)
    results = recovery_sweep(summit(), nranks, fault_rates=rates,
                             config=cfg, seed=90)
    fig = FigureData(
        name="fig-faults",
        title=f"checkpoint recovery under injected faults, Summit "
              f"({nranks} ranks, kill at 60%)",
        columns=["mode", "fault rate", "durable ckpts", "lost ckpts",
                 "loss window s", "goodput", "retries", "fallbacks"],
    )
    for r in results:
        fig.add_row(r.mode, r.fault_rate, r.durable_checkpoints,
                    r.lost_checkpoints, r.data_loss_window, r.goodput,
                    r.retries, r.fallbacks)
    return fig


def fig_sched(profile: Optional[str] = None) -> FigureData:
    """Fleet tail latency by scheduling policy at two cluster loads.

    Not a paper figure: an extension grounded in Fig. 8's variability
    result.  A seeded multi-tenant job stream (VPIC / BD-CATS / Nyx /
    Castro / SW4 / Cosmoflow mix) is co-run on one storage-starved
    testbed under FIFO, conservative backfill, and the I/O-aware
    policy that applies the paper's sync-vs-async model at admission
    time; the table reports per-policy goodput, p50/p95/p99 queue wait
    and completion time, makespan and PFS utilization at a high and a
    moderate arrival rate.
    """
    from repro.harness.sched import run_fleet, sched_testbed
    from repro.sched import StreamConfig

    n_jobs = _SCHED_JOBS[resolve_profile(profile)]
    loads = (2.0, 4.0)
    machine = sched_testbed()
    fig = FigureData(
        name="fig-sched",
        title=f"multi-tenant scheduling on {machine.name} "
              f"({n_jobs} jobs/stream, loads = mean interarrival s)",
        columns=["load", "policy", "done", "async", "jobs/h",
                 "wait p95", "compl p50", "compl p95", "compl p99",
                 "makespan", "PFS util"],
    )
    for mean_ia in loads:
        cfg = StreamConfig(
            n_jobs=n_jobs, seed=7, mean_interarrival=mean_ia,
            rank_choices=(8, 16, 32), size_scale=4.0,
        )
        for policy in ("fifo", "backfill", "io-aware"):
            m = run_fleet(machine, cfg, policy)
            fig.add_row(
                mean_ia, policy, m.completed, m.n_async,
                m.goodput_jobs_per_hour, m.wait_p95, m.completion_p50,
                m.completion_p95, m.completion_p99, m.makespan,
                m.pfs_utilization,
            )
    return fig


# ---------------------------------------------------------------------------
# §III-B1 micro-benchmarks
# ---------------------------------------------------------------------------


def microbench_memcpy(profile: Optional[str] = None) -> FigureData:
    """Host memcpy bandwidth vs size on both machines (§III-B1)."""
    resolve_profile(profile)
    fig = FigureData(
        name="mb-memcpy",
        title="memcpy bandwidth vs transfer size (constant above 32 MB)",
        columns=["size MiB", "summit GB/s", "cori GB/s"],
    )
    s_samples = memcpy_microbench(summit())
    c_samples = memcpy_microbench(cori_haswell())
    for s, c in zip(s_samples, c_samples):
        fig.add_row(s.nbytes / Mi, s.bandwidth / GB, c.bandwidth / GB)
    return fig


def microbench_gpu(profile: Optional[str] = None) -> FigureData:
    """GPU↔CPU copy bandwidth vs size, pinned vs pageable (§III-B1)."""
    resolve_profile(profile)
    fig = FigureData(
        name="mb-gpu",
        title="Summit NVLink device-host copy bandwidth (amortized above "
              "10 MB; pinned near the 50 GB/s theoretical peak)",
        columns=["size MiB", "pinned GB/s", "pageable GB/s"],
    )
    pinned = gpu_transfer_microbench(summit(), pinned=True)
    pageable = gpu_transfer_microbench(summit(), pinned=False)
    for p_, q in zip(pinned, pageable):
        fig.add_row(p_.nbytes / Mi, p_.bandwidth / GB, q.bandwidth / GB)
    return fig


#: Every figure maker by figure id, in listing order; the id is the
#: ``name`` of the table the maker returns.
FIGURES: dict[str, Callable[[Optional[str]], FigureData]] = {
    "fig3a": fig3a, "fig3b": fig3b, "fig3c": fig3c, "fig3d": fig3d,
    "fig4a": fig4a, "fig4b": fig4b, "fig4c": fig4c, "fig4d": fig4d,
    "fig5": fig5, "fig6": fig6, "fig7": fig7, "fig8": fig8,
    "fig-faults": fig_faults, "fig-sched": fig_sched,
    "mb-memcpy": microbench_memcpy, "mb-gpu": microbench_gpu,
}


def all_figures(profile: Optional[str] = None) -> dict[str, FigureData]:
    """Regenerate every evaluation figure; keyed by figure id."""
    return {fid: make(profile) for fid, make in FIGURES.items()}
