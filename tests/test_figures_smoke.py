"""Smoke tests for the figure-generation plumbing at toy scales.

The quick-profile tables are regenerated by ``repro figures --out
benchmarks/results`` (CI diffs them against the stored copies, and
``tests/test_paper_claims.py`` checks the paper's claims on them); here
the profile tables are patched down so every figure's pipeline runs in
seconds, keeping the figure code covered by ``pytest tests/``.

Each of the 16 figure tables at these scales is also pinned by the
sha256 of its ``to_text()`` in ``tests/golden/figures_tiny.json``, so a
refactor that changes what a figure computes fails here, not in a
manual diff.
"""

import hashlib
import json
import pathlib

import pytest

from repro.harness import figures

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "figures_tiny.json").read_text()
)["digests"]


@pytest.fixture
def tiny_scales(monkeypatch):
    monkeypatch.setitem(figures._SCALES, ("summit", "quick"), [12, 24, 48])
    monkeypatch.setitem(figures._SCALES, ("cori", "quick"), [32, 64, 128])
    monkeypatch.setitem(figures._SCALES, ("summit-app", "quick"), [12, 24])
    monkeypatch.setitem(figures._SCALES, ("summit-sat", "quick"), [12, 24])
    monkeypatch.setitem(figures._SCALES, ("cori-app", "quick"), [32, 64])
    monkeypatch.setitem(figures._REPS, "quick", 1)
    monkeypatch.setitem(figures._STEPS, "quick", 2)
    monkeypatch.setitem(figures._FIG7, "quick", (8, [1, 2, 8], 16))
    monkeypatch.setitem(figures._FIG8, "quick", (24, 3))
    monkeypatch.setitem(figures._SCHED_JOBS, "quick", 4)


def _check_golden(fig, fid):
    digest = hashlib.sha256(fig.to_text().encode()).hexdigest()
    assert digest == GOLDEN[fid], f"{fid} table changed:\n{fig.to_text()}"


def _check_bandwidth_figure(fig, n_rows):
    assert fig.columns == ["ranks", "nodes", "sync GB/s", "est sync GB/s",
                           "async GB/s", "est async GB/s"]
    assert len(fig.rows) == n_rows
    assert 0.0 <= fig.meta["r2 async"] <= 1.0
    assert all(v > 0 for v in fig.column("sync GB/s"))
    assert all(v > 0 for v in fig.column("async GB/s"))
    _check_golden(fig, fig.name)


def test_fig3a_pipeline(tiny_scales):
    _check_bandwidth_figure(figures.fig3a("quick"), 3)


def test_fig3d_pipeline(tiny_scales):
    _check_bandwidth_figure(figures.fig3d("quick"), 3)


def test_fig4c_pipeline(tiny_scales):
    _check_bandwidth_figure(figures.fig4c("quick"), 2)


def test_fig6_pipeline(tiny_scales):
    _check_bandwidth_figure(figures.fig6("quick"), 2)


def test_fig5_pipeline(tiny_scales):
    _check_bandwidth_figure(figures.fig5("quick"), 2)


@pytest.mark.parametrize("fid", ["fig3b", "fig3c", "fig4a", "fig4b",
                                 "fig4d", "fig8", "fig7", "fig-sched",
                                 "fig-faults", "mb-memcpy", "mb-gpu"])
def test_figure_matches_golden(tiny_scales, fid):
    _check_golden(figures.FIGURES[fid]("quick"), fid)


def test_failed_point_fails_the_figure():
    # Best-of-days over a crashed day would plot a best-of-fewer; the
    # figure raises instead, naming the point and its recorded error.
    with pytest.raises(RuntimeError, match=(
            r"^figX: point 0 \(testbed sync scale 4 seed 0\) failed: "
            r"TypeError: .*no_such_field")):
        figures._bandwidth_figure("figX", "title", "testbed", "vpic",
                                  {"no_such_field": 1}, scales=[4], reps=2,
                                  seed=0)
