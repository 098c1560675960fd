"""Tests for the experiment harness, sweeps, fitting and reporting."""

import math

import pytest

from repro.platform import ContentionModel
from repro.platform import testbed as make_testbed
from repro.analysis import fit_sweep_points, variability_stats
from repro.harness import (
    FigureData,
    best_by_config,
    build_vol,
    run_experiment,
    scale_sweep,
)
from repro.harness.figures import resolve_profile
from repro.workloads import VPICConfig, vpic_program

Mi = 1 << 20

MACHINE = make_testbed(nodes=16, ranks_per_node=4, pfs_peak=30e9, nic=8e9)
SMALL = VPICConfig(particles_per_rank=Mi, steps=2, compute_seconds=5.0)


def test_build_vol_modes():
    assert build_vol("sync").mode == "sync"
    assert build_vol("async").mode == "async"
    with pytest.raises(ValueError):
        build_vol("adaptive")


def test_run_experiment_result_fields():
    r = run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                       nranks=8, op="write")
    assert r.machine == "testbed"
    assert r.workload == "vpic"
    assert r.nranks == 8
    assert r.nnodes == 2
    assert r.n_phases == 2
    assert r.total_bytes == pytest.approx(SMALL.total_bytes(8))
    assert r.peak_bandwidth > 0
    assert r.app_time > 2 * 5.0
    assert r.availability == 1.0
    assert r.peak_gbs == pytest.approx(r.peak_bandwidth / 1e9)


def test_run_experiment_contention_applied():
    cm = ContentionModel(seed=5, median_load=2.0)
    # enough ranks that the (scaled) shared PFS backend is the bottleneck
    r = run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                       nranks=32, day=1, contention=cm, op="write")
    assert r.availability < 1.0
    clean = run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                           nranks=32, op="write")
    assert r.peak_bandwidth < clean.peak_bandwidth


@pytest.mark.parametrize("kwargs, name", [
    ({"nranks": 0}, "nranks"),
    ({"nranks": -4}, "nranks"),
    ({"nranks": 8, "ranks_per_node": 0}, "ranks_per_node"),
    ({"nranks": 8, "ranks_per_node": -1}, "ranks_per_node"),
], ids=["nranks=0", "nranks=-4", "ranks_per_node=0", "ranks_per_node=-1"])
def test_run_experiment_rejects_bad_rank_counts(kwargs, name):
    # Rejected before the engine or cluster is built: a one-line
    # ValueError naming the argument, not an allocator error from deep
    # in the platform layer (or a silent fallback to the default).
    with pytest.raises(ValueError, match=f"^{name} must be >= 1"):
        run_experiment(MACHINE, "vpic", vpic_program, SMALL, mode="sync",
                       **kwargs)


def test_scale_sweep_grid_complete():
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[4, 8], modes=("sync", "async"), reps=2,
    )
    assert len(results) == 2 * 2 * 2
    assert {(r.mode, r.nranks, r.day) for r in results} == {
        (m, n, d) for m in ("sync", "async") for n in (4, 8) for d in (0, 1)
    }
    with pytest.raises(ValueError):
        scale_sweep(MACHINE, "w", vpic_program, lambda n: SMALL, scales=[4],
                    reps=0)


def test_best_by_config_takes_max():
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[4, 8], modes=("sync",), reps=2,
        contention=ContentionModel(seed=2, median_load=1.0),
    )
    points = best_by_config(results)
    assert len(points) == 2
    for p in points:
        assert p.peak_bandwidth == max(p.all_peaks)
        assert len(p.all_peaks) == 2


def test_sweep_weak_scaling_shapes():
    """On the testbed, async grows linearly while sync saturates."""
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[8, 16, 32, 64], modes=("sync", "async"), reps=1,
    )
    points = best_by_config(results)
    sync = {p.nranks: p.peak_bandwidth for p in points if p.mode == "sync"}
    async_ = {p.nranks: p.peak_bandwidth for p in points if p.mode == "async"}
    # async linear: doubling ranks doubles bandwidth
    assert async_[64] / async_[8] == pytest.approx(8.0, rel=0.05)
    # sync saturates at the PFS ceiling (30 GB/s)
    assert sync[64] < 30e9 * 1.01
    assert sync[64] / sync[8] < 8.0
    # async beats sync at scale
    assert async_[64] > 2 * sync[64]


def test_fit_sweep_points_model_quality():
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[8, 16, 32, 64], modes=("sync", "async"), reps=1,
    )
    points = best_by_config(results)
    fit_async = fit_sweep_points(points, "async")
    assert fit_async.r2 > 0.9  # paper: async r2 above 90%
    assert fit_async.transform == "linear"
    fit_sync = fit_sweep_points(points, "sync")
    assert fit_sync.r2 > 0.8  # paper: sync r2 above 80%
    # estimates exist for every swept scale
    assert set(fit_async.estimates) == {8, 16, 32, 64}
    assert fit_async.estimate_gbs(64) == pytest.approx(
        fit_async.estimates[64] / 1e9
    )
    with pytest.raises(ValueError):
        fit_sweep_points([p for p in points if p.mode == "sync"], "async")


def test_variability_stats():
    v = variability_stats([1.0, 2.0, 3.0])
    assert v.mean == pytest.approx(2.0)
    assert v.cv == pytest.approx(v.std / 2.0)
    assert v.spread_ratio == pytest.approx(3.0)
    assert variability_stats([5.0]).cv == 0.0
    with pytest.raises(ValueError):
        variability_stats([])


def test_figure_data_table():
    fig = FigureData("figX", "a title", columns=["a", "b"])
    fig.add_row(1, 2.5)
    fig.add_row(10, 1e7)
    fig.meta["note"] = 0.93
    text = fig.to_text()
    assert "figX" in text and "a title" in text
    assert "note: 0.93" in text
    assert fig.column("a") == [1, 10]
    with pytest.raises(ValueError):
        fig.add_row(1)


def test_resolve_profile():
    assert resolve_profile("quick") == "quick"
    assert resolve_profile("paper") == "paper"
    with pytest.raises(ValueError):
        resolve_profile("fast")


def test_results_save_load_roundtrip(tmp_path):
    from repro.harness import load_results, save_results
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[4], modes=("sync",), reps=2,
    )
    path = save_results(results, tmp_path / "campaign.json")
    loaded = load_results(path)
    assert loaded == results


def test_load_results_rejects_foreign_files(tmp_path):
    from repro.harness import load_results
    bad = tmp_path / "x.json"
    bad.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_results(bad)
    versioned = tmp_path / "y.json"
    versioned.write_text(
        '{"format": "repro-experiment-results", "version": 99, "results": []}'
    )
    with pytest.raises(ValueError):
        load_results(versioned)


def test_profile_scales_consistent():
    """Every paper-profile sweep extends its quick counterpart."""
    from repro.harness.figures import _SCALES, _REPS, _STEPS
    keys = {k[0] for k in _SCALES}
    for key in keys:
        quick = _SCALES[(key, "quick")]
        paper = _SCALES[(key, "paper")]
        assert quick == sorted(quick)
        assert paper == sorted(paper)
        assert set(quick) <= set(paper)
    assert _REPS["paper"] >= 5  # "at least 5 times across multiple days"
    assert _REPS["quick"] >= 2
    assert _STEPS["paper"] >= _STEPS["quick"]


def test_fit_uses_every_days_observation():
    """The regression sees all repetitions, not just the best-of points."""
    results = scale_sweep(
        MACHINE, "vpic", vpic_program, lambda n: SMALL,
        scales=[8, 16, 32], modes=("sync",), reps=3,
        contention=ContentionModel(seed=11, median_load=1.0),
    )
    points = best_by_config(results)
    for p in points:
        assert len(p.all_peaks) == 3
    fit = fit_sweep_points(points, "sync")
    # 3 scales x 3 days = 9 samples behind the fit
    assert 0.0 <= fit.r2 <= 1.0
