"""Sweep engine: determinism across worker counts, crash isolation, edges.

The merged artifact of :func:`repro.harness.sweepengine.run_sweep` must
be **byte-identical** for every worker count — that is the whole
contract that lets a 4-worker sweep be ``cmp``-ed against a 1-worker
run or yesterday's artifact.  These tests exercise that contract on a
real (small) grid, plus the failure paths: a point that dies is
recorded in place with the :mod:`repro.faults` taxonomy while its
siblings succeed, and degenerate grids (empty, single point) still
produce well-formed artifacts.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.faults import FlakyWriteError
from repro.harness import sweepengine
from repro.harness.sweepengine import (
    SweepSpec,
    SweepTask,
    expand_grid,
    merged_results,
    merged_sweep_points,
    run_point,
    run_sweep,
    sweepable_grids,
)


SMALL = SweepSpec(
    kind="workload", workload="vpic", machines=("testbed",),
    modes=("sync", "async"), scales=(4.0,), seeds=(0, 1),
)


# ---------------------------------------------------------------------------
# Grid expansion
# ---------------------------------------------------------------------------


def test_expand_grid_canonical_order_and_indices():
    tasks = expand_grid(SMALL)
    assert [t.index for t in tasks] == [0, 1, 2, 3]
    # Canonical nesting: machine, mode, scale, seed (seed innermost).
    assert [(t.mode, t.seed) for t in tasks] == [
        ("sync", 0), ("sync", 1), ("async", 0), ("async", 1),
    ]
    # Tasks carry everything a worker needs — no global state.
    assert all(t.workload == "vpic" and t.machine == "testbed"
               for t in tasks)


def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="kind"):
        SweepSpec(kind="nonsense")


def test_run_sweep_rejects_zero_workers():
    with pytest.raises(ValueError, match="workers"):
        run_sweep(SMALL, workers=0)


# ---------------------------------------------------------------------------
# Worker-count determinism (the headline contract)
# ---------------------------------------------------------------------------


def test_merged_json_byte_identical_1_vs_4_workers():
    serial = run_sweep(SMALL, workers=1)
    parallel = run_sweep(SMALL, workers=4)
    assert serial.to_json() == parallel.to_json()
    # And the artifact itself is sane.
    merged = serial.merged
    assert merged["schema"] == "repro-sweep/v1"
    assert [p["index"] for p in merged["points"]] == [0, 1, 2, 3]
    assert all(p["ok"] for p in merged["points"])
    # Telemetry stays out of the artifact.
    assert "elapsed" not in merged and "workers" not in merged
    assert serial.workers == 1 and parallel.workers == 4


def test_merged_json_round_trips_and_reduces():
    outcome = run_sweep(SMALL, workers=1)
    merged = json.loads(outcome.to_json())
    results = merged_results(merged)
    assert [r.index for r in results] == [0, 1, 2, 3]
    assert all(isinstance(r.task, SweepTask) for r in results)
    points = merged_sweep_points(merged)
    # One best-of point per (mode, nranks) config.
    assert {(p.mode, p.nranks) for p in points} == {
        ("sync", 4), ("async", 4),
    }
    for p in points:
        assert p.peak_bandwidth > 0


# ---------------------------------------------------------------------------
# Crash isolation
# ---------------------------------------------------------------------------


def test_crashed_point_is_isolated():
    # An unknown machine or workload makes its points raise inside the
    # worker; every other point must be unaffected, and the pool must
    # neither die nor hang.  This exercises the real cross-process path
    # (no monkeypatching survives a fork).
    cases = [
        ("vpic", ("testbed", "no-such"), (0,), "no-such"),
        ("doom", ("testbed",), (0, 1), "doom"),
    ]
    for workload, machines, seeds, bad in cases:
        spec = SweepSpec(
            kind="workload", workload=workload, machines=machines,
            modes=("sync",), scales=(4.0,), seeds=seeds,
        )
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.to_json() == parallel.to_json()
        points = serial.merged["points"]
        bad_points = [p for p in points
                      if bad in (p["machine"], p["workload"])]
        assert len(bad_points) == len(seeds)
        for p in points:
            if p in bad_points:
                assert not p["ok"] and p["metrics"] is None
                assert p["error"]["family"] == "crash"
                assert p["error"]["kind"] == "ValueError"
                assert bad in p["error"]["message"]
            else:
                assert p["ok"] and p["error"] is None
        # Failed points contribute no observations downstream.
        assert len(merged_sweep_points(serial.merged)) == (
            1 if len(points) > len(bad_points) else 0)


def test_harness_does_not_import_the_cli():
    # The engine resolves names through the harness registry; running a
    # point (even a failing one) must never pull in the CLI module.
    script = (
        "import sys\n"
        "from repro.harness.sweepengine import SweepSpec, run_sweep, "
        "sweepable_grids\n"
        "sweepable_grids()\n"
        "run_sweep(SweepSpec(workload='doom', seeds=(0,)))\n"
        "print('repro.cli' in sys.modules)\n"
    )
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120)
    assert out.stdout.strip() == "False"
    harness = src / "repro" / "harness"
    assert not [f.name for f in harness.glob("*.py")
                if "repro.cli" in f.read_text()]


def test_fault_taxonomy_errors_keep_their_class(monkeypatch):
    def boom(task):
        raise FlakyWriteError("injected EIO")

    monkeypatch.setattr(sweepengine, "_run_workload_point", boom)
    point = run_point(expand_grid(SMALL)[0])
    assert not point["ok"]
    assert point["error"] == {
        "family": "fault",
        "kind": "FlakyWriteError",
        "message": "injected EIO",
    }


# ---------------------------------------------------------------------------
# Degenerate grids
# ---------------------------------------------------------------------------


def test_empty_grid():
    spec = SweepSpec(kind="workload", seeds=())
    outcome = run_sweep(spec, workers=4)
    assert outcome.merged["points"] == []
    assert merged_sweep_points(outcome.merged) == []
    # to_json still yields a parseable, schema-tagged artifact.
    assert json.loads(outcome.to_json())["schema"] == "repro-sweep/v1"


def test_one_point_grid_runs_serially_even_with_workers():
    spec = SweepSpec(
        kind="workload", workload="vpic", machines=("testbed",),
        modes=("sync",), scales=(4.0,), seeds=(0,),
    )
    outcome = run_sweep(spec, workers=4)
    assert len(outcome.merged["points"]) == 1
    assert outcome.merged["points"][0]["ok"]


# ---------------------------------------------------------------------------
# Sched-kind sweeps and progress reporting
# ---------------------------------------------------------------------------


def test_sched_sweep_1_vs_2_workers_identical():
    spec = SweepSpec(
        kind="sched", machines=("sched-testbed",),
        modes=("fifo", "io-aware"), scales=(2.0,), seeds=(0,), jobs=4,
    )
    serial = run_sweep(spec, workers=1)
    parallel = run_sweep(spec, workers=2)
    assert serial.to_json() == parallel.to_json()
    for p in serial.merged["points"]:
        assert p["ok"]
        assert p["metrics"]["n_jobs"] == 4


def test_progress_callback_sees_every_point():
    seen = []
    run_sweep(SMALL, workers=1,
              progress=lambda done, total, point: seen.append((done, total)))
    assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]


def test_sweepable_grids_lists_workloads_and_sched():
    names = [name for name, _desc in sweepable_grids()]
    assert "workload:vpic" in names
    assert "sched" in names
