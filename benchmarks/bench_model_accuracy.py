"""§V-C model accuracy: r² of the Eq. 4 fits and advisor quality.

Writes ``benchmarks/results/model-acc.txt``, whose r² bands ("r² values
above 80% for synchronous I/O and 90% for asynchronous I/O") and fit
transforms ``tests/test_paper_claims.py`` checks.  Asserted here: the
epoch model with the fitted rates orders sync vs async correctly.
"""

import pytest

from repro.platform import summit
from repro.analysis import fit_sweep_points
from repro.harness import best_by_config, run_experiment
from repro.harness.report import FigureData
from repro.model import (
    EpochCosts,
    async_epoch_time,
    sync_epoch_time,
)
from repro.workloads import VPICConfig, vpic_program

SCALES = [96, 192, 384, 768, 1536]


def _sweep():
    # Uncontended, so every day observes the same peak: one day per
    # scale is the whole history.
    cfg = VPICConfig(steps=3)
    machine = summit()
    results = [
        run_experiment(machine, "vpic-io", vpic_program, cfg, mode=mode,
                       nranks=nranks, op="write")
        for nranks in SCALES for mode in ("sync", "async")
    ]
    return cfg, best_by_config(results)


def test_model_accuracy(benchmark, save_figure):
    cfg, points = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    fits = {m: fit_sweep_points(points, m) for m in ("sync", "async")}

    fig = FigureData(
        "model-acc", "Eq. 4 fit accuracy on the VPIC-IO sweep (Summit)",
        columns=["mode", "transform", "r2", "max rel err %"],
    )
    for mode, fit in fits.items():
        observed = {p.nranks: p.peak_bandwidth for p in points
                    if p.mode == mode}
        rel_errs = [
            abs(fit.estimates[n] - observed[n]) / observed[n]
            for n in observed
        ]
        fig.add_row(mode, fit.transform, fit.r2, 100 * max(rel_errs))
    save_figure(fig)

    # Epoch-model prediction vs simulated epoch structure: for the
    # largest scale, Eq. 2a/2b with the fitted rates must predict the
    # sync-vs-async epoch ordering correctly.
    nranks = SCALES[-1]
    phase_bytes = cfg.bytes_per_rank_per_step() * nranks
    t_io = phase_bytes / fits["sync"].estimates[nranks]
    t_transact = phase_bytes / fits["async"].estimates[nranks]
    costs = EpochCosts(t_comp=cfg.compute_seconds, t_io=t_io,
                       t_transact=t_transact)
    assert async_epoch_time(costs) < sync_epoch_time(costs)
