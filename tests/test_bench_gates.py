"""The benchmark runner's gates catch the violations they exist for.

Pure data, no suite runs: each invariant suite's gate gets a passing
payload with one violation, must name the violated gate, and the
runner's exit path must turn that failure into a non-zero status.
"""

import copy
import importlib.util
import json
import pathlib

import pytest

RUNNER = (pathlib.Path(__file__).resolve().parent.parent
          / "benchmarks" / "bench_gates.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_gates", RUNNER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _faults_payload():
    def run(mode, rate, durable, lost=0, retries=0):
        return {"mode": mode, "fault_rate": rate,
                "durable_checkpoints": durable, "lost_checkpoints": lost,
                "retries": retries, "fallbacks": 0}
    return {"deterministic": True, "runs": [
        run("sync", 0.0, 4), run("async", 0.0, 4),
        run("sync", 0.2, 1), run("async", 0.2, 4, retries=3),
    ]}


def _sched_payload():
    def fleet(policy, p95, n_async):
        return {"load": 2.0, "policy": policy, "completion_p95": p95,
                "n_async": n_async, "completed": 15, "timeouts": 0,
                "failed": 0, "rejected": 0, "replay_identical": True}

    def chaos(section, **fields):
        return {"section": section, "chaos_seed": 0,
                "goodput_jobs_per_hour": 100.0, "lost_work_seconds": 10.0,
                "node_kills": 1, "requeues": 1, "fault_signature": "ab12",
                **fields}
    return {
        "n_jobs": 15,
        "fleets": [fleet("fifo", 90.0, 3), fleet("backfill", 80.0, 3),
                   fleet("io-aware", 60.0, 12)],
        "chaos": {"replay_identical": True, "fault_signature": "ab12",
                  "fleets": [
                      chaos("checkpoint", checkpoint_restart=True,
                            goodput_jobs_per_hour=120.0,
                            lost_work_seconds=5.0),
                      chaos("checkpoint", checkpoint_restart=False),
                      chaos("ckpt-mode", ckpt_mode="sync"),
                      chaos("ckpt-mode", ckpt_mode="async",
                            lost_work_seconds=4.0),
                  ]},
    }


def _cache_payload():
    def side(stall, hits):
        return {"read_stall_s": stall, "total_bytes": 1e9,
                "cache_stats": {"hits": hits, "on_time_ratio": 1.0}}
    return {"off": side(2.0, 0), "on": side(1.0, 8),
            "stall_reduction": 0.5, "floor": 0.3}


@pytest.mark.parametrize("suite, passing, violate, gate_name", [
    ("faults", _faults_payload,
     lambda p: p["runs"][3].update(lost_checkpoints=1), "faults.no_loss"),
    ("sched", _sched_payload,
     lambda p: p["fleets"][2].update(rejected=1), "sched.no_rejects"),
    ("cache", _cache_payload,
     lambda p: p["on"]["cache_stats"].update(hits=0), "cache.hits"),
], ids=["faults", "sched", "cache"])
def test_gate_names_the_violation_and_fails_the_run(
        bench, tmp_path, suite, passing, violate, gate_name):
    gate = bench.SUITES[suite][1]
    ok = passing()
    assert gate(ok) == []
    bad = copy.deepcopy(ok)
    violate(bad)
    failures = gate(bad)
    assert failures
    assert all(line.startswith(f"{gate_name}: ") for line in failures)

    out = tmp_path / "BENCH.json"
    assert bench.report("smoke", {suite: bad}, out) != 0
    envelope = json.loads(out.read_text())
    assert envelope["failures"] == failures
    assert envelope["suites"] == {suite: bad}
    assert set(envelope["provenance"]) == {
        "git_rev", "python", "numpy", "cpu_count", "platform", "mode"}
    assert bench.report("smoke", {suite: ok}, out) == 0
