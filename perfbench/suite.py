"""The benchmark's workloads and the correctness check of their outputs.

Every workload is generated from one integer seed and driven only
through the library's public entry points
(:func:`repro.harness.run_experiment` and
:func:`repro.harness.sweepengine.run_sweep`).  A *pass* runs every
experiment of a workload once; an *experiment* is one
``run_experiment`` call or one sweep point.

The output check hashes every experiment's simulated outputs (every
``ExperimentResult`` field, every ``FleetMetrics`` field including
``fault_signature``), compares the hashes with the digests stored in
``digests.json`` for the seeds recorded there, and checks invariants
that hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

from repro.harness import run_experiment
from repro.harness.sweepengine import SweepSpec, run_sweep
from repro.platform import ContentionModel, summit, testbed
from repro.workloads import (
    BDCATSConfig,
    CosmoflowConfig,
    VPICConfig,
    bdcats_program,
    cosmoflow_program,
    prepopulate_vpic_file,
    vpic_program,
)

DIGESTS_PATH = pathlib.Path(__file__).resolve().parent / "digests.json"


def _contention(model_seed: int) -> ContentionModel:
    # The figures' mild baseline contention; the workload seed picks the day.
    return ContentionModel(seed=model_seed, median_load=0.15, sigma=0.5)


@dataclass(frozen=True)
class Experiment:
    """One ``run_experiment`` call, fully generated from the seed.

    ``pair`` groups the sync and async legs of one configuration; legs
    sharing a pair must agree on ``total_bytes`` and ``n_phases``.
    ``expect`` pins ``(total_bytes, n_phases)`` for a leg whose volume
    follows from its config alone.
    """

    name: str
    kwargs: dict
    pair: Optional[str] = None
    expect: Optional[tuple] = None

    def run(self) -> dict:
        return asdict(run_experiment(**self.kwargs))


@dataclass
class Outcome:
    """What one experiment produced: outputs, or the reason it failed."""

    name: str
    outputs: Optional[dict]
    error: Optional[str] = None
    digest: str = ""
    failures: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


@dataclass(frozen=True)
class Workload:
    """A named workload: its generated parameters and how a pass runs."""

    name: str
    params: dict
    experiments: tuple = ()
    sweep: Optional[SweepSpec] = None

    def run_pass(self, on_experiment: Optional[Callable] = None
                 ) -> tuple[float, list[Outcome]]:
        """Run every experiment once; returns (wall seconds, outcomes).

        ``on_experiment(name, more)`` is called after each experiment
        ends, ``more`` telling whether another follows (the traced pass
        uses it to close one span per experiment).  An
        experiment that raises is recorded as failed; the pass goes on.
        """
        outcomes = []
        t0 = time.perf_counter()
        if self.sweep is not None:
            def progress(done, total, point):
                label = f"{point['mode']}@{point['scale']:g}"
                if point["ok"]:
                    outcomes.append(Outcome(label, point["metrics"]))
                else:
                    err = point["error"]
                    outcomes.append(Outcome(
                        label, None, f"{err['kind']}: {err['message']}"))
                if on_experiment is not None:
                    on_experiment(label, done < total)

            run_sweep(self.sweep, workers=1, progress=progress)
        else:
            for i, exp in enumerate(self.experiments):
                try:
                    outcomes.append(Outcome(exp.name, exp.run()))
                except Exception as exc:  # counted in failed, run goes on
                    outcomes.append(
                        Outcome(exp.name, None, f"{type(exc).__name__}: {exc}"))
                if on_experiment is not None:
                    on_experiment(exp.name, i + 1 < len(self.experiments))
        return time.perf_counter() - t0, outcomes


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def vpic_write(seed: int) -> Workload:
    """VPIC-IO weak-scaling writes on Summit, sync and async."""
    cfg = VPICConfig(steps=1)
    scales = (384, 1536)
    exps = []
    for nranks in scales:
        for mode in ("sync", "async"):
            exps.append(Experiment(
                f"vpic-{mode}-{nranks}",
                dict(machine=summit(), workload_name="vpic-io",
                     program_factory=vpic_program, config=cfg, mode=mode,
                     nranks=nranks, day=seed, contention=_contention(31)),
                pair=f"vpic-{nranks}",
            ))
    params = {"machine": "summit", "ranks": list(scales), "steps": cfg.steps,
              "modes": ["sync", "async"], "contention_day": seed}
    return Workload("vpic_write", params, tuple(exps))


def _cosmoflow(name, cfg, mode, nranks, seed, pair=None, expect=None):
    return Experiment(
        name,
        dict(machine=summit(), workload_name="cosmoflow",
             program_factory=cosmoflow_program, config=cfg, mode=mode,
             nranks=nranks, day=seed, contention=_contention(50),
             prepopulate=cfg.prepopulate, op="read"),
        pair=pair, expect=expect,
    )


def read_phases(seed: int) -> Workload:
    """Unshuffled Cosmoflow reads (40 I/O phases) plus one cached
    BD-CATS read, the only leg that runs the staging cache."""
    cfg = CosmoflowConfig(epochs=4, batches_per_rank=10)
    nranks = 48
    exps = [_cosmoflow(f"cosmoflow-{mode}-{nranks}", cfg, mode, nranks, seed,
                       pair="cosmoflow") for mode in ("sync", "async")]
    bcfg = BDCATSConfig(steps=3)
    nodes, rpn = 32, 4
    exps.append(Experiment(
        f"bdcats-cache-{nodes * rpn}",
        dict(machine=testbed(nodes=nodes, ranks_per_node=rpn),
             workload_name="bdcats-io", program_factory=bdcats_program,
             config=bcfg, mode="async", nranks=nodes * rpn, day=seed,
             contention=_contention(33),
             prepopulate=lambda lib, n: prepopulate_vpic_file(lib, bcfg, n),
             op="read", vol_kwargs={"prefetcher": None}, cache_mode="on"),
    ))
    params = {"cosmoflow": {"machine": "summit", "ranks": nranks,
                            "epochs": cfg.epochs,
                            "batches_per_rank": cfg.batches_per_rank,
                            "modes": ["sync", "async"]},
              "bdcats": {"machine": f"testbed({nodes}x{rpn})",
                         "ranks": nodes * rpn, "steps": bcfg.steps,
                         "cache_mode": "on", "prefetcher": None},
              "contention_day": seed}
    return Workload("read_phases", params, tuple(exps))


def read_shuffle(seed: int) -> Workload:
    """Shuffled Cosmoflow reads, async only: staggered demand reads."""
    cfg = CosmoflowConfig(epochs=1, batches_per_rank=8, shuffle_seed=seed)
    nranks = 64
    batches = cfg.epochs * cfg.batches_per_rank
    expect = (float(cfg.sample_bytes() * cfg.batch_size * batches * nranks),
              batches)
    exps = (_cosmoflow(f"cosmoflow-shuffled-async-{nranks}", cfg, "async",
                       nranks, seed, expect=expect),)
    params = {"machine": "summit", "ranks": nranks, "epochs": cfg.epochs,
              "batches_per_rank": cfg.batches_per_rank, "mode": "async",
              "shuffle_seed": seed, "contention_day": seed}
    return Workload("read_shuffle", params, exps)


def fleet_chaos(seed: int) -> Workload:
    """Scheduler sweep under node-crash chaos, one worker."""
    spec = SweepSpec(
        kind="sched", machines=("sched-testbed",),
        modes=("fifo", "backfill", "io-aware"), scales=(2.0, 4.0),
        seeds=(seed,), jobs=80, faults=(10.0,), fault_seed=seed,
    )
    params = {"machine": "sched-testbed", "policies": list(spec.modes),
              "loads": list(spec.scales), "jobs": spec.jobs,
              "chaos_rate": spec.faults[0], "stream_seed": seed,
              "fault_seed": seed, "workers": 1}
    return Workload("fleet_chaos", params, sweep=spec)


WORKLOADS = {
    w.__name__: w for w in (vpic_write, read_phases, read_shuffle, fleet_chaos)
}


# ---------------------------------------------------------------------------
# Output check
# ---------------------------------------------------------------------------


def digest(outputs: dict) -> str:
    """Short sha256 of one experiment's outputs (every field, exact floats)."""
    blob = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_digests() -> dict:
    """Stored digests: ``{workload: {seed: [digest per experiment]}}``.

    The file keeps each seed's digests as one space-separated string.
    """
    with open(DIGESTS_PATH) as fh:
        stored = json.load(fh)
    return {name: {seed: line.split() for seed, line in by_seed.items()}
            for name, by_seed in stored.items()}


def check(workload: Workload, outcomes: list[Outcome],
          stored: Optional[list] = None) -> None:
    """Digest every outcome and record each failed check on it.

    ``stored`` is the list of digests kept for this workload and seed,
    or None when the seed has none stored.
    """
    for out in outcomes:
        if out.outputs is not None:
            out.digest = digest(out.outputs)
    if stored is not None:
        if len(stored) != len(outcomes):
            for out in outcomes:
                out.failures.append("experiment count differs from stored")
        else:
            for out, want in zip(outcomes, stored):
                if out.outputs is not None and out.digest != want:
                    out.failures.append(f"digest {out.digest} != {want}")
    if workload.sweep is not None:
        for out in outcomes:
            m = out.outputs
            if m is None:
                continue
            counted = m["completed"] + m["failed"] + m["timeouts"] + m["rejected"]
            if counted != m["n_jobs"]:
                out.failures.append(
                    f"{counted} jobs accounted for, {m['n_jobs']} submitted")
        return
    pairs: dict = {}
    for exp, out in zip(workload.experiments, outcomes):
        if out.outputs is None:
            continue
        shape = (out.outputs["total_bytes"], out.outputs["n_phases"])
        if exp.expect is not None and shape != exp.expect:
            out.failures.append(f"(total_bytes, n_phases) {shape} != {exp.expect}")
        if exp.pair is not None:
            pairs.setdefault(exp.pair, []).append((shape, out))
    for legs in pairs.values():
        if len({shape for shape, _ in legs}) > 1:
            for shape, out in legs:
                out.failures.append(f"sync/async legs disagree: {shape}")


def tally(workload: Workload, passes: list, stored: Optional[list] = None
          ) -> tuple[int, int, list]:
    """Check every pass of one run; returns (attempted, failed, digests).

    Passes of one seed must reproduce the first pass's outputs, so a
    digest that differs from the first pass's fails as well.  The
    returned digests are the first pass's.
    """
    attempted = failed = 0
    reference = None
    for outcomes in passes:
        check(workload, outcomes, stored)
        if reference is None:
            reference = [out.digest for out in outcomes]
        for out, want in zip(outcomes, reference):
            if out.digest != want:
                out.failures.append("outputs differ from the first pass")
        attempted += len(outcomes)
        failed += sum(out.failed for out in outcomes)
    return attempted, failed, reference
