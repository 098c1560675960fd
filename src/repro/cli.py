"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``figures [IDS...]``
    Regenerate paper figures (all by default) and print their tables.
    ``--profile quick|paper`` selects the scale profile; ``--out DIR``
    also writes each table to ``DIR/<id>.txt``.

``list``
    List available figures, workloads and micro-benchmarks with
    one-line descriptions.

``microbench``
    Run the §III-B1 memcpy / GPU-copy micro-benchmarks.

``run``
    Run a single workload experiment and print its metrics, e.g.::

        python -m repro run --workload vpic --machine summit \\
            --mode async --ranks 768

``profile``
    Run a workload and print a Darshan-style I/O profile (per-rank
    blocked fractions, request-size histogram, per-phase table).
    ``--stats`` appends the simulator's opt-in EngineStats counters.

``sched``
    Run a seeded multi-tenant job stream through the scheduler under
    one or all policies and print the fleet metrics, e.g.::

        python -m repro sched --policy all --jobs 25 --load 2 4

``sweep``
    Fan a declarative (machine × mode × scale × cache × seed) grid
    across worker processes and write one merged JSON artifact — byte
    identical for every ``--workers`` value.  This is the only command
    that runs grids in parallel::

        python -m repro sweep --workload vpic --scales 8 16 \\
            --seeds 0 1 2 3 --workers 4 --out sweep.json

``cache``
    Run a read workload through the tiered staging cache (async VOL +
    :mod:`repro.cache`) and print hit/deadline/bytes-per-tier metrics::

        python -m repro cache --workload bdcats --ranks 8 --prefetch on

``check``
    Static analysis + optional runtime checking (the repo's own
    invariants: determinism, typed errors, hygiene)::

        python -m repro check                 # lint src/ and tests/
        python -m repro check --list-rules
        python -m repro check --runtime smoke # race/leak detector gate
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import sys
from typing import Optional, Sequence

from repro.harness import figures as figures_mod
from repro.harness.experiment import run_experiment
from repro.harness.registry import (
    MACHINES, WORKLOADS, machine_spec, workload_setup,
)

__all__ = ["main"]

#: Scheduler policies (``sched --policy all`` runs each).
_POLICIES = ["fifo", "backfill", "io-aware"]

#: Micro-benchmark ids (a subset of the figure makers, listed apart).
_MICROBENCH_IDS = ["mb-memcpy", "mb-gpu"]

_FIGURE_IDS = [
    "fig3a", "fig3b", "fig3c", "fig3d",
    "fig4a", "fig4b", "fig4c", "fig4d",
    "fig5", "fig6", "fig7", "fig8",
    "fig-faults", "fig-sched",
] + _MICROBENCH_IDS

_FIGURE_MAKERS = {
    "fig3a": figures_mod.fig3a,
    "fig3b": figures_mod.fig3b,
    "fig3c": figures_mod.fig3c,
    "fig3d": figures_mod.fig3d,
    "fig4a": figures_mod.fig4a,
    "fig4b": figures_mod.fig4b,
    "fig4c": figures_mod.fig4c,
    "fig4d": figures_mod.fig4d,
    "fig5": figures_mod.fig5,
    "fig6": figures_mod.fig6,
    "fig7": figures_mod.fig7,
    "fig8": figures_mod.fig8,
    "fig-faults": figures_mod.fig_faults,
    "fig-sched": figures_mod.fig_sched,
    "mb-memcpy": figures_mod.microbench_memcpy,
    "mb-gpu": figures_mod.microbench_gpu,
}


def _checked(cast, low, strict: bool):
    """An argparse ``type=`` that parses a finite number above ``low``."""
    bound = (f"{'an integer' if cast is int else 'a number'} "
             f"{'>' if strict else '>='} {low}")

    def parse(text: str):
        try:
            value = cast(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected {bound}, got {text!r}") from None
        if not math.isfinite(value) or value < low or (
                strict and value == low):
            raise argparse.ArgumentTypeError(
                f"expected {bound}, got {text!r}")
        return value

    return parse


_positive_int = _checked(int, 0, strict=True)
_non_negative_int = _checked(int, 0, strict=False)
_positive_float = _checked(float, 0, strict=True)
_non_negative_float = _checked(float, 0, strict=False)


def _cmd_list(_args) -> int:
    width = 11
    print("figures:")
    for fid in _FIGURE_IDS:
        if fid in _MICROBENCH_IDS:
            continue
        doc = (_FIGURE_MAKERS[fid].__doc__ or "").strip().splitlines()[0]
        print(f"  {fid:{width}s}  {doc}")
    print()
    print("workloads (for 'run', 'profile', 'cache' and 'sweep'):")
    for name, entry in sorted(WORKLOADS.items()):
        print(f"  {name:{width}s}  {entry.description} [{entry.op}]")
    print()
    print("micro-benchmarks:")
    for fid in _MICROBENCH_IDS:
        doc = (_FIGURE_MAKERS[fid].__doc__ or "").strip().splitlines()[0]
        print(f"  {fid:{width}s}  {doc}")
    print()
    print("sweepable grids (for 'sweep', the only parallel fan-out):")
    from repro.harness.sweepengine import sweepable_grids
    for name, desc in sweepable_grids():
        print(f"  {name:{width}s}  {desc}")
    print()
    print("tier presets (staging-cache stacks for 'cache' --tiers; "
          "'auto' derives from the run machine):")
    from repro.cache import tier_presets
    width_t = max(len(n) for n, _ in tier_presets())
    for name, desc in tier_presets():
        print(f"  {name:{width_t}s}  {desc}")
    print()
    print("fault scenarios (seeded chaos presets; 'sched'/'sweep' "
          "--fault-rate uses the same rate unit):")
    from repro.faults import SCENARIOS
    width_s = max(len(n) for n in SCENARIOS)
    for name in sorted(SCENARIOS):
        desc = SCENARIOS[name][0]
        print(f"  {name:{width_s}s}  {desc}")
    return 0


def _cmd_figures(args) -> int:
    ids = args.ids or _FIGURE_IDS
    unknown = [i for i in ids if i not in _FIGURE_MAKERS]
    if unknown:
        raise SystemExit(f"unknown figure ids: {unknown}; try 'list'")
    out_dir = pathlib.Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    for fid in ids:
        fig = _FIGURE_MAKERS[fid](args.profile)
        text = fig.to_text()
        if getattr(args, "plot", False):
            from repro.analysis import render_figure
            text = text + "\n\n" + render_figure(fig)
        print(text)
        print()
        if out_dir:
            (out_dir / f"{fid}.txt").write_text(text + "\n")
    return 0


def _cmd_microbench(args) -> int:
    return _cmd_figures(argparse.Namespace(
        ids=["mb-memcpy", "mb-gpu"], profile=args.profile, out=args.out,
        plot=getattr(args, "plot", False),
    ))


def _run_workload_raw(args):
    """Shared runner for ``run``/``profile``: (vol, app_time, op, engine)."""
    from repro.sim import Engine
    from repro.mpi import MPIJob
    from repro.platform import Cluster
    from repro.hdf5 import H5Library

    machine = machine_spec(args.machine)
    program_factory, config, prepopulate, op = workload_setup(args.workload)
    engine = Engine()
    rpn = machine.default_ranks_per_node
    cluster = Cluster(engine, machine, math.ceil(args.ranks / rpn))
    lib = H5Library(cluster)
    from repro.harness.experiment import build_vol
    vol = build_vol(args.mode)
    if prepopulate is not None:
        prepopulate(lib, args.ranks)
    job = MPIJob(cluster, args.ranks)
    results = job.run(program_factory(lib, vol, config))
    return vol, max(results), op, engine


def _cmd_profile(args) -> int:
    from repro.trace import profile_log

    vol, app_time, op, engine = _run_workload_raw(args)
    print(f"{args.workload} ({args.mode}) on {args.machine}, "
          f"{args.ranks} ranks")
    print(profile_log(vol.log, app_time).to_text())
    if getattr(args, "stats", False):
        print()
        print("engine stats:")
        for key, value in engine.stats.snapshot().items():
            print(f"  {key:20s} {value}")
    return 0


def _sweep_progress(done: int, total: int, point: dict) -> None:
    status = ("ok" if point["ok"]
              else f"FAILED[{point['error']['kind']}]")
    print(f"  [{done}/{total}] {point['machine']}/{point['mode']}/"
          f"{point['scale']:g} seed={point['seed']} {status}",
          file=sys.stderr)


def _cmd_sched(args) -> int:
    from repro.harness.report import FigureData
    from repro.harness.sched import run_fleet, stream_chaos
    from repro.sched import StreamConfig

    machine = machine_spec(args.machine)
    policies = _POLICIES if args.policy == "all" else [args.policy]
    chaos = args.fault_rate > 0.0
    title = (f"{args.jobs} jobs/stream on {machine.name}, "
             f"seeds {args.seeds} (loads = mean interarrival s)")
    columns = ["load", "policy", "seed", "done", "t/o", "async", "jobs/h",
               "wait p95", "compl p50", "compl p95", "compl p99",
               "makespan", "PFS util"]
    fields = ["completed", "timeouts", "n_async", "goodput_jobs_per_hour",
              "wait_p95", "completion_p50", "completion_p95",
              "completion_p99", "makespan", "pfs_utilization"]
    if chaos:
        title += (f"; chaos rate {args.fault_rate:g} crash/node/1000s, "
                  f"fault seed {args.fault_seed}, checkpoint-restart "
                  f"{'off' if args.no_checkpoint else 'on'}")
        columns += ["kills", "requeue", "lost s"]
        fields += ["node_kills", "requeues", "lost_work_seconds"]
    fig = FigureData(name="sched", title=title, columns=columns)
    for load in args.load:
        for policy in policies:
            for seed in args.seeds:
                cfg = StreamConfig(
                    n_jobs=args.jobs, seed=seed, mean_interarrival=load,
                    rank_choices=(8, 16, 32), size_scale=args.size_scale,
                )
                m = run_fleet(
                    machine, cfg, policy,
                    fault_config=stream_chaos(args.fault_rate,
                                              args.fault_seed, seed),
                    checkpoint_restart=not args.no_checkpoint,
                )
                fig.add_row(load, policy, seed,
                            *(getattr(m, f) for f in fields))
    print(fig.to_text())
    return 0


def _cmd_sweep(args) -> int:
    from repro.harness.sweepengine import (
        SweepSpec, expand_grid, merged_sweep_points, run_sweep,
    )

    if args.kind == "sched":
        modes = tuple(args.policies)
        scales = tuple(args.loads)
    else:
        modes = tuple(args.modes)
        scales = tuple(float(s) for s in args.scales)
    try:
        spec = SweepSpec(
            kind=args.kind, workload=args.workload,
            machines=tuple(args.machines), modes=modes, scales=scales,
            seeds=tuple(args.seeds), jobs=args.jobs,
            faults=tuple(args.faults), fault_seed=args.fault_seed,
            checkpoint=not args.no_checkpoint, cache=tuple(args.cache),
        )
    except ValueError as exc:
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: {spec.describe()} = {len(expand_grid(spec))}"
          f" points on {args.workers} worker(s)", file=sys.stderr)
    outcome = run_sweep(spec, workers=args.workers,
                        progress=_sweep_progress if not args.quiet else None)
    points = outcome.merged["points"]
    failed = [p for p in points if not p["ok"]]
    print(f"{len(points)} points in {outcome.elapsed:.2f}s "
          f"({outcome.points_per_sec:.2f} points/s, "
          f"{args.workers} worker(s)); {len(failed)} failed")
    for p in failed:
        print(f"  FAILED point {p['index']} "
              f"({p['machine']}/{p['mode']}/{p['scale']:g} seed={p['seed']}): "
              f"[{p['error']['family']}] {p['error']['kind']}: "
              f"{p['error']['message']}")
    if args.kind == "workload":
        for cache in spec.cache:
            label = "" if cache == "none" else f" cache={cache}"
            subset = {"points": [p for p in points if p["cache"] == cache]}
            for sp in merged_sweep_points(subset):
                print(f"  {sp.mode:6s} ranks={sp.nranks:<6d}{label} "
                      f"peak={sp.peak_gbs:.2f} GB/s over "
                      f"{len(sp.all_peaks)} seed(s)")
    if args.out:
        pathlib.Path(args.out).write_text(outcome.to_json())
        print(f"merged artifact -> {args.out}")
    return 1 if failed else 0


def _runtime_smoke_text() -> str:
    """A small async VPIC pipeline rendered as a full-resolution trace.

    Used by ``check --runtime smoke``: the gate runs this twice (bare,
    then under the installed checker) and requires byte-identical text —
    proving the checker is strictly observational — plus zero findings.
    """
    from repro.sim import Engine
    from repro.mpi import MPIJob
    from repro.platform import Cluster
    from repro.hdf5 import H5Library
    from repro.hdf5.async_vol import AsyncVOL
    from repro.workloads import VPICConfig, vpic_program

    machine = machine_spec("testbed")
    nranks = 4
    config = VPICConfig(particles_per_rank=1 << 14, steps=2,
                        compute_seconds=1.0)
    engine = Engine()
    rpn = machine.default_ranks_per_node
    cluster = Cluster(engine, machine, math.ceil(nranks / rpn))
    lib = H5Library(cluster)
    vol = AsyncVOL()
    job = MPIJob(cluster, nranks)
    results = job.run(vpic_program(lib, vol, config))
    lines = [f"app_time {max(results)!r}"]
    for r in vol.log.records:
        lines.append(
            f"{r.op} r{r.rank} ph{r.phase} {r.dataset} {r.nbytes!r} "
            f"submit={r.t_submit!r} unblocked={r.t_unblocked!r} "
            f"complete={r.t_complete!r}"
        )
    return "\n".join(lines)


def _cmd_check(args) -> int:
    from repro.check import (
        all_rules,
        findings_to_json,
        findings_to_sarif,
        lint_paths,
        render_findings,
    )

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id}  [{rule.scope:4s}|{rule.tier:4s}]  "
                  f"{rule.title}")
            print(f"       fix: {rule.hint}")
        return 0

    paths = args.paths or [p for p in ("src", "tests")
                           if pathlib.Path(p).exists()]
    if not paths:
        raise SystemExit("no paths to check (run from the repo root, or "
                         "pass files/directories explicitly)")
    if args.stats:
        from repro.check import suppression_stats

        stats = suppression_stats(paths)
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    if args.inter or args.concurrency:
        from repro.check import check_paths

        result = check_paths(paths, flow=True, inter=True,
                             workers=args.workers,
                             cache_dir=args.cache_dir,
                             concurrency=args.concurrency)
        findings = result.diff_findings() if args.diff else result.findings
        mode = "tree-hit" if result.tree_hit else (
            f"{result.stats.get('analyzed', 0)}/"
            f"{result.stats.get('files', 0)} files re-analyzed")
        if args.format == "text":
            tier = "conc tier" if args.concurrency else "inter tier"
            print(f"{tier}: {mode}", file=sys.stderr)
    else:
        if args.diff:
            raise SystemExit("--diff requires --inter (the incremental "
                             "cache records what changed)")
        findings = lint_paths(paths, flow=args.flow)

    if args.update_baseline:
        payload = {
            "tool": "repro check",
            "fingerprints": sorted({f.fingerprint for f in findings}),
        }
        pathlib.Path(args.update_baseline).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        print(f"baseline: {len(payload['fingerprints'])} fingerprint(s) "
              f"recorded in {args.update_baseline}", file=sys.stderr)
        return 0
    if args.baseline:
        try:
            known = set(json.loads(
                pathlib.Path(args.baseline).read_text(encoding="utf-8")
            ).get("fingerprints", []))
        except (OSError, ValueError) as err:
            raise SystemExit(f"--baseline: cannot read {args.baseline}: "
                             f"{err}")
        suppressed = sum(1 for f in findings if f.fingerprint in known)
        findings = [f for f in findings if f.fingerprint not in known]
        if args.format == "text":
            print(f"baseline: {suppressed} known finding(s) suppressed, "
                  f"{len(findings)} regression(s)", file=sys.stderr)

    if args.format == "json":
        print(findings_to_json(findings))
    elif args.format == "sarif":
        print(findings_to_sarif(findings))
    else:
        print(render_findings(findings))
    exit_code = 1 if findings else 0

    if args.runtime:
        from repro.check import RuntimeChecker

        if args.runtime == "fig3a":
            def make() -> str:
                return _FIGURE_MAKERS["fig3a"]("quick").to_text()
        else:
            make = _runtime_smoke_text
        print(f"runtime gate ({args.runtime}): baseline run ...")
        baseline = make()
        print(f"runtime gate ({args.runtime}): checked run ...")
        checker = RuntimeChecker()
        with checker.installed():
            checked = make()
        rt_findings = checker.report()
        identical = baseline == checked
        print(f"runtime gate: output byte-identical with checker "
              f"installed: {'yes' if identical else 'NO'}")
        if rt_findings:
            for f in rt_findings:
                print(f"  {f.format()}")
        print(f"runtime gate: {len(rt_findings)} finding"
              f"{'s' if len(rt_findings) != 1 else ''}")
        if rt_findings or not identical:
            exit_code = 1
    return exit_code


def _cmd_cache(args) -> int:
    from repro.cache import tier_preset

    tiers = None if args.tiers == "auto" else tier_preset(args.tiers)
    program_factory, config, prepopulate, op = workload_setup(args.workload)
    # The VOL's own heuristic prefetcher is disabled so the planner's
    # declared-read schedule is the only read-ahead in play.
    result = run_experiment(
        machine_spec(args.machine), args.workload, program_factory, config,
        mode="async", nranks=args.ranks, prepopulate=prepopulate, op=op,
        vol_kwargs={"prefetcher": None},
        cache_mode="on" if args.prefetch == "on" else "off",
        cache_tiers=tiers,
    )
    stats = result.cache_stats or {}
    print(f"workload        {result.workload} ({op})")
    print(f"machine         {result.machine}")
    print(f"tiers           {args.tiers}")
    print(f"prefetch        {args.prefetch}")
    print(f"ranks / nodes   {result.nranks} / {result.nnodes}")
    print(f"app time        {result.app_time:.2f} s (simulated)")
    print(f"read stall      {result.read_stall_seconds:.3f} s "
          f"(slowest rank)")
    print(f"hit ratio       {stats.get('hit_ratio', 0.0):.2f} "
          f"({stats.get('hits', 0)} hits / {stats.get('misses', 0)} misses)")
    print(f"on-time ratio   {stats.get('on_time_ratio', 1.0):.2f} "
          f"({stats.get('prefetch_late', 0)} late, "
          f"{stats.get('prefetch_rejected', 0)} rejected)")
    for tier, nbytes in sorted(stats.get("bytes_to_tier", {}).items()):
        print(f"bytes -> {tier:6s} {nbytes / 1e9:.3f} GB")
    return 0


def _cmd_run(args) -> int:
    program_factory, config, prepopulate, op = workload_setup(args.workload)
    result = run_experiment(
        machine_spec(args.machine), args.workload, program_factory, config,
        mode=args.mode, nranks=args.ranks, prepopulate=prepopulate, op=op,
    )
    print(f"workload        {result.workload} ({op})")
    print(f"machine         {result.machine}")
    print(f"mode            {result.mode}")
    print(f"ranks / nodes   {result.nranks} / {result.nnodes}")
    print(f"I/O phases      {result.n_phases}")
    print(f"total bytes     {result.total_bytes / 1e9:.2f} GB")
    print(f"peak bandwidth  {result.peak_gbs:.2f} GB/s")
    print(f"mean bandwidth  {result.mean_bandwidth / 1e9:.2f} GB/s")
    print(f"app time        {result.app_time:.2f} s (simulated)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    from repro.cache import tier_preset_names

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Evaluating Asynchronous Parallel I/O "
                    "on HPC Systems' (IPDPS 2023)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list", help="list figures, workloads and micro-benchmarks"
    )
    p_list.set_defaults(func=_cmd_list)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("ids", nargs="*", help="figure ids (default: all)")
    p_fig.add_argument("--profile", choices=["quick", "paper"], default=None)
    p_fig.add_argument("--out", help="directory to write tables into")
    p_fig.add_argument("--plot", action="store_true",
                       help="also render an ASCII chart per figure")
    p_fig.set_defaults(func=_cmd_figures)

    p_mb = sub.add_parser("microbench", help="run §III-B1 micro-benchmarks")
    p_mb.add_argument("--profile", choices=["quick", "paper"], default=None)
    p_mb.add_argument("--out", default=None)
    p_mb.set_defaults(func=_cmd_microbench)

    machines = sorted(MACHINES)
    workloads = sorted(WORKLOADS)
    p_run = sub.add_parser("run", help="run one workload experiment")
    p_run.add_argument("--workload", required=True, choices=workloads)
    p_run.add_argument("--machine", choices=machines, default="summit")
    p_run.add_argument("--mode", choices=["sync", "async"], default="sync")
    p_run.add_argument("--ranks", type=_positive_int, default=96)
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser("profile",
                            help="run a workload and print an I/O profile")
    p_prof.add_argument("--workload", required=True, choices=workloads)
    p_prof.add_argument("--machine", choices=machines, default="summit")
    p_prof.add_argument("--mode", choices=["sync", "async"], default="sync")
    p_prof.add_argument("--ranks", type=_positive_int, default=96)
    p_prof.add_argument("--stats", action="store_true",
                        help="also print the simulator's EngineStats counters")
    p_prof.set_defaults(func=_cmd_profile)

    p_sched = sub.add_parser(
        "sched", help="run a multi-tenant job stream through the scheduler"
    )
    p_sched.add_argument("--policy", choices=_POLICIES + ["all"],
                         default="all")
    p_sched.add_argument("--machine", choices=machines,
                         default="sched-testbed")
    p_sched.add_argument("--jobs", type=_positive_int, default=25,
                         help="jobs per stream")
    p_sched.add_argument("--seeds", type=_non_negative_int, nargs="+",
                         default=[7],
                         help="job-stream seeds; every (policy, load) runs "
                              "under each")
    p_sched.add_argument("--load", type=_positive_float, nargs="+",
                         default=[2.0, 4.0],
                         help="mean interarrival gap(s) in seconds")
    p_sched.add_argument("--size-scale", type=_positive_float, default=4.0,
                         help="job I/O size multiplier")
    p_sched.add_argument("--fault-rate", type=_non_negative_float,
                         default=0.0,
                         help="chaos axis: expected node crashes per node "
                              "per 1000 sim-seconds (0 = off)")
    p_sched.add_argument("--fault-seed", type=int, default=0,
                         help="base seed of the crash schedule")
    p_sched.add_argument("--no-checkpoint", action="store_true",
                         help="requeued crash victims restart from scratch "
                              "instead of their last durable checkpoint")
    p_sched.set_defaults(func=_cmd_sched)

    p_sweep = sub.add_parser(
        "sweep",
        help="fan a (machine x mode x scale x cache x seed) grid across "
             "worker processes; merged JSON is byte-identical for every "
             "--workers value",
    )
    p_sweep.add_argument("--kind", choices=["workload", "sched"],
                         default="workload")
    p_sweep.add_argument("--workload", default="vpic", choices=workloads,
                         help="workload name (kind=workload)")
    p_sweep.add_argument("--machines", nargs="+", default=["testbed"],
                         choices=machines, help="machine names")
    p_sweep.add_argument("--modes", nargs="+", default=["sync", "async"],
                         choices=["sync", "async"],
                         help="VOL modes (kind=workload)")
    p_sweep.add_argument("--policies", nargs="+", default=_POLICIES,
                         choices=_POLICIES,
                         help="scheduler policies (kind=sched)")
    p_sweep.add_argument("--scales", type=_positive_int, nargs="+",
                         default=[8], help="rank counts (kind=workload)")
    p_sweep.add_argument("--loads", type=_positive_float, nargs="+",
                         default=[2.0],
                         help="mean interarrival gaps (kind=sched)")
    p_sweep.add_argument("--cache", nargs="+", default=["none"],
                         choices=["none", "off", "write", "on"],
                         help="staging-cache axis (kind=workload): "
                              "run_experiment cache modes, none = no cache")
    p_sweep.add_argument("--seeds", type=_non_negative_int, nargs="+",
                         default=[0],
                         help="per-point seeds (contention day / job "
                              "stream)")
    p_sweep.add_argument("--jobs", type=_positive_int, default=12,
                         help="jobs per stream (kind=sched)")
    p_sweep.add_argument("--faults", type=_non_negative_float, nargs="+",
                         default=[0.0],
                         help="chaos axis (kind=sched): node-crash rates "
                              "per node per 1000 sim-seconds (0 = off)")
    p_sweep.add_argument("--fault-seed", type=int, default=0,
                         help="base seed of the crash schedules")
    p_sweep.add_argument("--no-checkpoint", action="store_true",
                         help="requeued crash victims restart from scratch")
    p_sweep.add_argument("--workers", type=_positive_int, default=1)
    p_sweep.add_argument("--out", default=None,
                         help="write the merged JSON artifact here")
    p_sweep.add_argument("--quiet", action="store_true",
                         help="suppress per-point progress on stderr")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cache = sub.add_parser(
        "cache",
        help="run a workload through the tiered staging cache and print "
             "hit/deadline metrics",
    )
    p_cache.add_argument("--workload", default="bdcats", choices=workloads,
                         help="workload name (read workloads benefit)")
    p_cache.add_argument("--machine", choices=machines, default="summit")
    p_cache.add_argument("--ranks", type=_positive_int, default=8)
    p_cache.add_argument("--tiers", default="auto",
                         choices=["auto"] + tier_preset_names(),
                         help="'auto' (derive from --machine) or a tier "
                              "preset name from 'list'")
    p_cache.add_argument("--prefetch", choices=["on", "off"], default="on",
                         help="deadline-declared read prefetch (off = "
                              "inert-cache baseline)")
    p_cache.set_defaults(func=_cmd_cache)

    p_check = sub.add_parser(
        "check",
        help="static analysis (determinism/error/hygiene rules) and the "
             "opt-in runtime race/leak detector",
    )
    p_check.add_argument("paths", nargs="*",
                         help="files or directories (default: src tests)")
    p_check.add_argument("--list-rules", action="store_true",
                         help="list registered rules and exit")
    p_check.add_argument("--flow", action="store_true",
                         help="also run the flow-sensitive tier (RC4xx "
                              "async-API typestate, RC5xx unit "
                              "consistency): CFG + fixpoint per function")
    p_check.add_argument("--inter", action="store_true",
                         help="also run the interprocedural tier (implies "
                              "--flow): call graph + function summaries "
                              "sharpen RC4xx/RC5xx and enable "
                              "RC405/RC110/RC111; incremental via "
                              ".repro-check-cache/")
    p_check.add_argument("--concurrency", action="store_true",
                         help="also run the static concurrency tier "
                              "(implies --inter): RC601 deadlock cycles, "
                              "RC602 lost wakeups, RC603 unsynchronized "
                              "region writes, RC604 claim/release "
                              "imbalance over the project-wide "
                              "acquisition graph")
    p_check.add_argument("--baseline", default=None, metavar="FILE",
                         help="suppress findings whose fingerprint is "
                              "recorded in FILE (JSON written by "
                              "--update-baseline); only regressions are "
                              "reported and gate the exit code")
    p_check.add_argument("--update-baseline", default=None, metavar="FILE",
                         help="write the current findings' fingerprints "
                              "to FILE and exit 0 (adopt-incrementally "
                              "mode for a new subsystem)")
    p_check.add_argument("--diff", action="store_true",
                         help="with --inter: report findings only for "
                              "files re-analyzed this run (changed files "
                              "plus everything the reverse call graph "
                              "invalidated)")
    p_check.add_argument("--workers", type=_positive_int, default=None,
                         help="with --inter: lint fan-out process count "
                              "(output is byte-identical for any value)")
    p_check.add_argument("--cache-dir", default=".repro-check-cache",
                         help="with --inter: incremental cache directory "
                              "(default: .repro-check-cache)")
    p_check.add_argument("--stats", action="store_true",
                         help="print the suppression audit (every "
                              "in-source suppression with its rules, "
                              "justification and validity) as JSON and "
                              "exit")
    p_check.add_argument("--format", choices=["text", "json", "sarif"],
                         default="text",
                         help="findings output format (json/sarif for CI "
                              "machine consumption)")
    p_check.add_argument("--runtime", choices=["smoke", "fig3a"],
                         default=None,
                         help="also run the runtime checker gate: the "
                              "pipeline must stay byte-identical under "
                              "instrumentation with zero race/leak findings")
    p_check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
