"""Tests of the benchmark itself, on workloads of a tiny shape.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import layers, suite  # noqa: E402
from repro.harness.sweepengine import SweepSpec  # noqa: E402
from repro.platform import ContentionModel, testbed as make_testbed  # noqa: E402
from repro.sim import Engine  # noqa: E402
from repro.workloads import (  # noqa: E402
    BDCATSConfig,
    VPICConfig,
    bdcats_program,
    prepopulate_vpic_file,
    vpic_program,
)


def tiny_vpic(seed=1, modes=("sync", "async")):
    cfg = VPICConfig(particles_per_rank=1 << 14, steps=2, compute_seconds=1.0)
    return tuple(
        suite.Experiment(
            f"vpic-{mode}",
            dict(machine=make_testbed(nodes=2, ranks_per_node=4),
                 workload_name="vpic-io", program_factory=vpic_program,
                 config=cfg, mode=mode, nranks=8, day=seed,
                 contention=ContentionModel(seed=3, median_load=0.15)),
            pair="vpic",
        )
        for mode in modes
    )


def tiny_cached_bdcats(seed=1):
    cfg = BDCATSConfig(particles_per_rank=1 << 14, steps=2,
                       compute_seconds=1.0)
    return suite.Experiment(
        "bdcats-cache",
        dict(machine=make_testbed(nodes=2, ranks_per_node=4),
             workload_name="bdcats-io", program_factory=bdcats_program,
             config=cfg, mode="async", nranks=8, day=seed,
             prepopulate=lambda lib, n: prepopulate_vpic_file(lib, cfg, n),
             op="read", vol_kwargs={"prefetcher": None}, cache_mode="on"),
    )


def tiny_fleet(seed=1, machine="sched-testbed"):
    spec = SweepSpec(kind="sched", machines=(machine,), modes=("fifo",),
                     scales=(2.0,), seeds=(seed,), jobs=6, faults=(10.0,),
                     fault_seed=seed)
    return suite.Workload("tiny_fleet", {}, sweep=spec)


def test_two_passes_with_one_seed_give_identical_digests():
    for workload in (
        suite.Workload("tiny", {}, (*tiny_vpic(), tiny_cached_bdcats())),
        tiny_fleet(),
    ):
        passes = [workload.run_pass()[1] for _ in range(2)]
        attempted, failed, digests = suite.tally(workload, passes)
        assert (attempted, failed) == (2 * len(digests), 0)
        assert [o.digest for o in passes[1]] == digests
        assert all(len(d) == 16 for d in digests)


def test_raising_experiment_is_counted_not_fatal():
    good_sync, good_async = tiny_vpic()
    broken = suite.Experiment(
        "vpic-broken", {**good_sync.kwargs, "mode": "bogus"})
    workload = suite.Workload("tiny", {}, (good_sync, broken, good_async))
    _, outcomes = workload.run_pass()
    assert [o.name for o in outcomes] == ["vpic-sync", "vpic-broken",
                                          "vpic-async"]
    assert outcomes[1].error.startswith("ValueError")
    assert suite.tally(workload, [outcomes])[:2] == (3, 1)


def test_sweep_point_recorded_not_ok_is_counted():
    workload = tiny_fleet(machine="no-such-machine")
    _, outcomes = workload.run_pass()
    assert suite.tally(workload, [outcomes])[:2] == (1, 1)
    assert "no-such-machine" in outcomes[0].error


def test_stored_digest_mismatch_fails():
    workload = suite.Workload("tiny", {}, tiny_vpic(modes=("sync",)))
    _, outcomes = workload.run_pass()
    assert suite.tally(workload, [outcomes], ["0" * 16])[:2] == (1, 1)
    assert "digest" in outcomes[0].failures[0]


def test_invariants_flag_disagreeing_legs_and_lost_jobs():
    workload = suite.Workload("tiny", {}, tiny_vpic())
    legs = [suite.Outcome("sync", {"total_bytes": 1.0, "n_phases": 2}),
            suite.Outcome("async", {"total_bytes": 2.0, "n_phases": 2})]
    suite.check(workload, legs)
    assert all(o.failed for o in legs)

    fleet = tiny_fleet()
    point = suite.Outcome("fifo@2", {"n_jobs": 6, "completed": 4, "failed": 1,
                                     "timeouts": 0, "rejected": 0})
    suite.check(fleet, [point])
    assert point.failures == ["5 jobs accounted for, 6 submitted"]


def test_pass_that_differs_from_the_first_fails():
    workload = suite.Workload("tiny", {}, tiny_vpic(modes=("sync",)))
    first = [suite.Outcome("a", {"total_bytes": 1.0, "n_phases": 1})]
    second = [suite.Outcome("a", {"total_bytes": 1.0, "n_phases": 2})]
    assert suite.tally(workload, [first, second])[:2] == (2, 1)


def test_experiment_times_are_scaled_by_the_reference_around_them():
    from perfbench import run

    nominal = run.REF_NOMINAL_S
    # A host twice as fast as the reference host doubles a time; one
    # straddling both speeds is scaled by their mean.
    assert run.scaled(3.0, nominal / 2, nominal / 2) == pytest.approx(6.0)
    assert run.scaled(2.0, nominal, nominal / 2) == pytest.approx(2.0 / 0.75)

    workload = suite.Workload("tiny", {}, tiny_vpic())
    refs = [run.reference_seconds()]
    raw, adj, outcomes = run.timed_pass(workload, refs)
    # One loop time ahead of the pass and one after each experiment.
    assert len(refs) == 1 + len(outcomes) == 3
    assert raw > 0 and adj > 0
    assert not any(o.failed for o in outcomes)


def test_traced_pass_reports_every_per_layer_metric():
    declared = {m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    original_run = Engine.run
    tracer = layers.Tracer()
    rows = {}
    for workload in (
        suite.Workload("tiny", {}, (*tiny_vpic(), tiny_cached_bdcats())),
        tiny_fleet(),
    ):
        with tracer.installed():
            _, outcomes, rows[workload.name] = tracer.run_pass(workload, "p")
        assert not any(o.failed for o in outcomes)
        assert set(rows[workload.name]) | {"trace_overhead_ratio"} == declared
    assert Engine.run is original_run

    io = rows["tiny"]
    for name in ("sim.engine.events", "sim.network.flows",
                 "sim.network.rebalances", "hdf5.dataspace.hyperslabs",
                 "hdf5.async_vol.ops", "hdf5.native_vol.ops",
                 "trace.recorder.records"):
        assert io[name] > 0, name
    assert io["harness.experiments"] == 3
    assert 0 < io["cache.hit_ratio"] <= 1
    assert io["cache.self_s"] > 0 and io["sched.self_s"] == 0
    assert rows["tiny_fleet"]["sched.self_s"] > 0
    # One span per experiment, then the pass span they belong to.
    assert [s["name"] for s in tracer.spans[:4]] == [
        "vpic-sync", "vpic-async", "bdcats-cache", "p"]
    assert all(s["parent"] == "p" for s in tracer.spans[:3])


def test_stored_digests_match_workload_shapes():
    stored = suite.load_digests()
    assert set(stored) == set(suite.WORKLOADS)
    for name, by_seed in stored.items():
        for seed, digests in by_seed.items():
            workload = suite.WORKLOADS[name](int(seed))
            n = (len(workload.experiments) if workload.sweep is None else
                 len(workload.sweep.modes) * len(workload.sweep.scales))
            assert len(digests) == n, (name, seed)


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vpic_write",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
