"""Ablation — size-dependent client efficiency (DESIGN.md §5.2).

The GPFS model's ``eff(s) = s/(s+s0)`` and the metadata serialization
penalty are what produce the paper's strong-scaling synchronous
bandwidth decrease (Fig. 4c).  Disabling both (s0 → 0, penalty → 0)
must erase the effect — evidence the mechanism, not an artifact,
drives the shape.
"""

import dataclasses

from repro.harness import run_experiment
from repro.harness.report import FigureData
from repro.platform import summit
from repro.workloads import CastroConfig, castro_program

SCALES = [96, 192, 384, 768]


def _machine_without_efficiency():
    base = summit()
    fs = dataclasses.replace(
        base.filesystem, efficiency_s0=1.0, client_latency_penalty=0.0
    )
    return dataclasses.replace(base, filesystem=fs)


def _sweep(machine):
    """Sync peak bandwidth (GB/s) per scale, one uncontended run each."""
    cfg = CastroConfig(n_plotfiles=2)
    return {
        n: run_experiment(machine, "castro", castro_program, cfg,
                          mode="sync", nranks=n, op="write").peak_gbs
        for n in SCALES
    }


def test_ablation_size_dependent_efficiency(benchmark, save_figure):
    def run_both():
        return _sweep(summit()), _sweep(_machine_without_efficiency())

    with_eff, without_eff = benchmark.pedantic(run_both, rounds=1, iterations=1)

    fig = FigureData(
        "ablation-efficiency",
        "Castro sync write on Summit: with vs without size-dependent "
        "client efficiency (strong scaling)",
        columns=["ranks", "with eff GB/s", "without eff GB/s"],
    )
    w, wo = with_eff, without_eff
    for n in SCALES:
        fig.add_row(n, w[n], wo[n])
    save_figure(fig)

    # with the mechanism: bandwidth decreases under strong scaling
    assert w[SCALES[-1]] < w[SCALES[0]]
    # without it: bandwidth no longer collapses (flat or growing)
    assert wo[SCALES[-1]] >= wo[SCALES[0]] * 0.95
    # and small requests are much faster without the efficiency loss
    assert wo[SCALES[-1]] > 2 * w[SCALES[-1]]
