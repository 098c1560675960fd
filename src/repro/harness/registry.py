"""Name registry: the machines and workloads the CLI and sweeps accept.

One table each, shared by every ``repro`` subcommand and by the sweep
engine's workers, so a name valid in one place is valid everywhere.
Unknown names raise :class:`ValueError` — an ordinary crash point in a
sweep, never a process exit.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, NamedTuple, Optional

from repro.harness.sched import sched_testbed
from repro.platform import cori_haswell, summit, testbed
from repro.platform.spec import MachineSpec
from repro.workloads import (
    BDCATSConfig, CastroConfig, CosmoflowConfig, NyxConfig, SW4Config,
    VPICConfig, bdcats_program, castro_program, cosmoflow_program,
    nyx_program, prepopulate_vpic_file, sw4_program, vpic_program,
)

__all__ = [
    "MACHINES",
    "WORKLOADS",
    "Workload",
    "machine_spec",
    "workload_setup",
]

MACHINES: dict[str, Callable[[], MachineSpec]] = {
    "summit": summit,
    "cori": cori_haswell,
    "cori-haswell": cori_haswell,
    "testbed": testbed,
    "sched-testbed": sched_testbed,
}


class Workload(NamedTuple):
    """One runnable workload: how to build, configure and seed it."""

    program: Callable
    config: Callable[[], object]
    #: ``config -> (lib, nranks) -> None`` writing the input file a read
    #: workload consumes, or ``None`` for write workloads.
    prepopulate: Optional[Callable]
    op: str
    description: str


WORKLOADS: dict[str, Workload] = {
    "vpic": Workload(vpic_program, lambda: VPICConfig(steps=3), None,
                     "write",
                     "VPIC-IO particle dump kernel (weak-scaling writes)"),
    "bdcats": Workload(
        bdcats_program,
        lambda: BDCATSConfig(steps=3),
        lambda cfg: (lambda lib, n: prepopulate_vpic_file(lib, cfg, n)),
        "read",
        "BD-CATS-IO clustering kernel (reads a VPIC-IO file)",
    ),
    "nyx-small": Workload(nyx_program, lambda: NyxConfig.small(n_plotfiles=3),
                          None, "write",
                          "Nyx cosmology, 256^3 AMR plotfiles every 20 steps"),
    "nyx-large": Workload(nyx_program, lambda: NyxConfig.large(n_plotfiles=3),
                          None, "write",
                          "Nyx cosmology, 2048^3 AMR plotfiles every 50 "
                          "steps"),
    "castro": Workload(castro_program, lambda: CastroConfig(n_plotfiles=3),
                       None, "write",
                       "Castro astrophysics, multifab + particle plotfiles"),
    "sw4": Workload(sw4_program, lambda: SW4Config(n_checkpoints=3), None,
                    "write",
                    "SW4/EQSIM seismology checkpoints (strong-scaling "
                    "writes)"),
    "cosmoflow": Workload(
        cosmoflow_program,
        lambda: CosmoflowConfig(epochs=2, batches_per_rank=4),
        lambda cfg: (lambda lib, n: cfg.prepopulate(lib, n)),
        "read",
        "Cosmoflow training loader (per-rank shard reads)",
    ),
}


def _lookup(table: dict, kind: str, name: str):
    if name not in table:
        raise ValueError(
            f"unknown {kind} {name!r}; choose from {sorted(table)}"
        )
    return table[name]


def machine_spec(name: str) -> MachineSpec:
    """A fresh :class:`MachineSpec` for a registered machine name."""
    return _lookup(MACHINES, "machine", name)()


def workload_setup(name: str, overrides=()):
    """``(program_factory, config, prepopulate, op)`` for a workload.

    ``config`` is freshly built, with ``overrides`` (a dict or
    ``(field, value)`` pairs) applied by :func:`dataclasses.replace`;
    an unknown field raises :class:`TypeError`.  ``prepopulate`` is
    built from that config, ready to hand to
    :func:`~repro.harness.experiment.run_experiment` (``None`` for write
    workloads).
    """
    entry = _lookup(WORKLOADS, "workload", name)
    config = replace(entry.config(), **dict(overrides))
    prepopulate = (entry.prepopulate(config)
                   if entry.prepopulate is not None else None)
    return entry.program, config, prepopulate, entry.op
