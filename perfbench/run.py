"""Run one benchmark workload and print its metrics.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload vpic_write --seed 1 --seconds 24 --trace 0

The workload's inputs are generated from ``--seed``.  After one
untimed warm-up pass the run repeats whole passes of the workload until
``--seconds`` have elapsed (at least one pass), collecting garbage
before each, and checks every pass's simulated outputs, the warm-up's
too (see :mod:`perfbench.suite`).

``--trace 0`` reports the end-to-end metrics: ``adj_wall_s`` (median
host-adjusted pass wall time), ``setup_s`` (median, over several fresh
processes, of the host-adjusted time from process start to the first
timed experiment) and ``peak_rss_mb``.  A time is host-adjusted by
timing a fixed reference loop, which uses nothing of the program,
around it and scaling it by ``REF_NOMINAL_S`` over the mean of the
loop times; a pass is adjusted experiment by experiment, with the loop
timed before the pass and after each experiment.  The shared host this
benchmark was written on changes speed by a quarter and more within a
minute; the adjustment takes about half of that out, while any change
in the program's own speed stays in full.  The raw times are printed
and kept in the record.

``--trace 1`` spends half the time on untraced passes and half on
passes traced under cProfile (see :mod:`perfbench.layers`)
and reports the per-layer metrics, each the (lower) median over traced
passes, plus ``trace_overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``failed``
counts experiments that raised, were recorded as not ok, or failed the
output check, so ``failed / attempted`` is the run's failed ratio.  A
record with provenance, pass times, digests and spans is written to
``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: How many fresh processes ``setup_s`` is the median of.
SETUP_PROBES = 5
#: What :func:`reference_seconds` takes on the reference host (2-core
#: Xeon VM, Python 3.11): the host speed adjusted times are scaled to.
REF_NOMINAL_S = 0.05


def parse_args(argv, workloads):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="exit once set up (used to time setup_s)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def reference_seconds() -> float:
    """Time a fixed pure-Python integer loop.

    Of the kernels tried on the reference host (this loop, a numpy /
    heap / dict mix, random lookups in a 300k-entry dict), this loop's
    time tracked the workloads' pass times most closely: the log of a
    pass time against the log of this loop's time around it has a slope
    of about 1.
    """
    t0 = time.perf_counter()
    x = 0
    for i in range(500_000):
        x += i * i % 7
    return time.perf_counter() - t0


def scaled(seconds: float, before: float, after: float) -> float:
    """Scale a time by the reference loop times taken around it."""
    return seconds * REF_NOMINAL_S / ((before + after) / 2)


def timed_pass(workload, refs: list) -> tuple:
    """Run one pass, timing the reference loop after every experiment.

    ``refs[-1]`` must be a loop time taken just ahead of the pass; the
    loop times taken during it are appended.  Returns (raw seconds,
    host-adjusted seconds, outcomes); neither time counts the loop.
    """
    raw = adj = 0.0
    t0 = time.perf_counter()

    def on_experiment(name, more):
        nonlocal raw, adj, t0
        spent = time.perf_counter() - t0
        refs.append(reference_seconds())
        raw += spent
        adj += scaled(spent, refs[-2], refs[-1])
        t0 = time.perf_counter()

    _, outcomes = workload.run_pass(on_experiment)
    tail = time.perf_counter() - t0
    return raw + tail, adj + scaled(tail, refs[-1], refs[-1]), outcomes


def setup_seconds(args, refs: list) -> list[float]:
    """Time fresh processes from start to the first timed experiment.

    The reference loop is timed before the first probe and after each;
    the loop times are appended to ``refs``.  Returns the raw times.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    samples = []
    refs.append(reference_seconds())
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise SystemExit(f"setup probe failed (exit {proc.returncode})")
        refs.append(reference_seconds())
    return samples


def provenance(args, params) -> dict:
    import numpy

    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_revision": revision,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "params": params,
    }


def unit_of(name: str) -> str:
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import suite

    args = parse_args(argv, suite.WORKLOADS)
    workload = suite.WORKLOADS[args.workload](args.seed)
    stored = suite.load_digests().get(args.workload, {}).get(str(args.seed))
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    warmup = workload.run_pass()
    start = time.perf_counter()
    untraced, traced, refs = [], [], [reference_seconds()]
    budget = args.seconds / 2 if args.trace else args.seconds
    while not untraced or time.perf_counter() - start < budget:
        gc.collect()
        untraced.append(timed_pass(workload, refs))
    spans: list = []
    layer_rows: list = []
    if args.trace:
        from perfbench import layers

        tracer = layers.Tracer()
        with tracer.installed():
            while not traced or time.perf_counter() - start < args.seconds:
                gc.collect()
                parent = f"pass-{1 + len(untraced) + len(traced)}"
                wall, outcomes, row = tracer.run_pass(workload, parent)
                traced.append((wall, outcomes))
                layer_rows.append(row)
        spans = tracer.spans

    checked = ([warmup[1]] + [out for *_, out in untraced]
               + [out for _, out in traced])
    attempted, failed, digests = suite.tally(workload, checked, stored)
    walls = [raw for raw, _, _ in untraced]
    adj_walls = [adj for _, adj, _ in untraced]
    if args.trace:
        # The lower median keeps counts whole when the passes are even.
        metrics = {
            name: statistics.median_low(row[name] for row in layer_rows)
            for name in layer_rows[0]
        }
        metrics["trace_overhead_ratio"] = (
            statistics.median(wall for wall, _ in traced)
            / statistics.median(walls))
        setup = setup_refs = None
    else:
        setup_refs: list = []
        setup = setup_seconds(args, setup_refs)
        metrics = {
            "adj_wall_s": statistics.median(adj_walls),
            "setup_s": statistics.median(
                scaled(t, before, after) for t, before, after
                in zip(setup, setup_refs, setup_refs[1:])),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }

    record = {
        "provenance": provenance(args, workload.params),
        "result": result,
        "failed_ratio": failed / attempted,
        "warmup_wall_s": warmup[0],
        "pass_walls_s": walls,
        "pass_adj_walls_s": adj_walls,
        "reference_loop_s": refs,
        "traced_pass_walls_s": [wall for wall, _ in traced],
        "setup_samples_s": setup,
        "setup_reference_loop_s": setup_refs,
        "digests": digests,
        "failures": [f"{out.name}: {out.error or '; '.join(out.failures)}"
                     for outcomes in checked for out in outcomes
                     if out.failed],
        "spans": spans,
    }
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for line in record["failures"][:10]:
        print(f"FAILED {line}")
    print(f"provenance: {json.dumps(record['provenance'], sort_keys=True)}")
    print(f"passes: 1 warm-up, {len(untraced)} untraced, {len(traced)} traced; "
          f"record: {out_path.relative_to(ROOT)}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"raw: wall_s = {statistics.median(walls):.6g} s, reference "
          f"loop = {statistics.median(refs):.6g} s"
          + (f", setup_s = {statistics.median(setup):.6g} s" if setup else ""))
    print(f"failed_ratio = {failed / attempted:.6g} fraction "
          f"({failed} of {attempted} experiments)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
