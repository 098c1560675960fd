"""The paper's §V claims, checked on the stored figure tables.

Each case reads one ``benchmarks/results/<id>.txt`` table, as written
by ``repro figures --out benchmarks/results``, back through
:meth:`FigureData.from_text` and asserts that figure's qualitative
claims at the quick profile; no simulation runs.  CI regenerates every
stored table at HEAD and requires it unchanged, so a claim that holds
here holds for what the code computes.

The test id names the figure and the claim, e.g.
``test_paper_claim[fig8-async_hides_variability]``.  Every stored
table, the ablation tables included, must also read back byte for byte.
"""

import pathlib

import pytest

from repro.harness.report import FigureData

RESULTS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks" / "results"

CLAIMS = []


def _claim(fid):
    """Register the decorated check as the claim case for table ``fid``."""
    def register(check):
        CLAIMS.append(pytest.param(fid, check, id=f"{fid}-{check.__name__}"))
        return check
    return register


# ---------------------------------------------------------------------------
# Fig. 3 — I/O kernels, weak scaling (§V-A.1, §V-A.2)
# ---------------------------------------------------------------------------


def _vpic_shapes(fig):
    """Sync saturates, async scales linearly, and the §V-C r² bands hold."""
    ranks = fig.column("ranks")
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    # async linear: last/first ratio tracks the rank ratio
    rank_ratio = ranks[-1] / ranks[0]
    assert async_[-1] / async_[0] > 0.9 * rank_ratio
    # sync saturates: clearly sub-linear over the sweep
    assert sync[-1] / sync[0] < 0.75 * rank_ratio
    # async >> sync at the largest scale
    assert async_[-1] > 2 * sync[-1]
    # model quality bands from §V-C
    assert fig.meta["r2 sync"] > 0.8
    assert fig.meta["r2 async"] > 0.9
    assert fig.meta["fit async"] == "linear"


@_claim("fig3a")
def vpic_summit_sync_saturates_below_gpfs(fig):
    _vpic_shapes(fig)
    assert fig.meta["fit sync"] == "linear-log"
    # Summit sync stays below the 2.5 TB/s GPFS ceiling
    assert max(fig.column("sync GB/s")) <= 2500.0


@_claim("fig3b")
def vpic_cori_sync_saturates_at_stripe_ceiling(fig):
    _vpic_shapes(fig)
    # Cori sync is bounded by the 72-OST stripe ceiling (~209 GB/s)
    assert max(fig.column("sync GB/s")) <= 72 * 2.9 * 1.02


def _prefetched_reads_dwarf_blocking(fig):
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    # prefetch-served reads dwarf blocking reads at every scale
    for s, a in zip(sync, async_):
        assert a > 2 * s
    # ...and by a lot at the largest scale
    assert async_[-1] > 5 * sync[-1]
    assert fig.meta["r2 async"] > 0.9


@_claim("fig3c")
def bdcats_summit_prefetched_reads_dwarf_sync(fig):
    _prefetched_reads_dwarf_blocking(fig)


@_claim("fig3d")
def bdcats_cori_prefetched_reads_dwarf_sync(fig):
    _prefetched_reads_dwarf_blocking(fig)


# ---------------------------------------------------------------------------
# Fig. 4 — Nyx and Castro, strong scaling (§V-A.3, §V-A.4)
# ---------------------------------------------------------------------------


@_claim("fig4a")
def nyx_large_sync_flat_async_grows(fig):
    ranks = fig.column("ranks")
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    rank_ratio = ranks[-1] / ranks[0]
    # sweep sits in the saturated regime: sync gains are marginal while
    # ranks grow 4x (the paper sees flat-to-slightly-decreasing; the
    # GPU-copy amortization gives a mild residual rise, see the
    # EXPERIMENTS.md fig4a notes)
    assert sync[-1] <= sync[0] * 1.45
    assert sync[-1] / sync[0] < 0.5 * rank_ratio
    # async grows with ranks and wins at scale
    assert async_[-1] > 1.5 * async_[0]
    assert async_[-1] > 2 * sync[-1]


@_claim("fig4b")
def nyx_small_sync_poor_async_sublinear(fig):
    ranks = fig.column("ranks")
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    rank_ratio = ranks[-1] / ranks[0]
    # sync poor at all scales: well below the 209 GB/s stripe ceiling
    # that large-request workloads (VPIC, Fig. 3b) do reach
    assert max(sync) < 0.8 * 209.0
    # async grows sub-linearly (transactional overhead dominated by the
    # per-copy setup at these small per-rank sizes)
    assert async_[-1] / async_[0] < 0.85 * rank_ratio


@_claim("fig4c")
def castro_gpfs_sync_decreases_async_wins(fig):
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    # GPFS: sync aggregate bandwidth decreases with scale
    assert sync[-1] < sync[0]
    # async grows and wins at scale
    assert async_[-1] > async_[0]
    assert async_[-1] > sync[-1]


@_claim("fig4d")
def castro_lustre_sync_rises_then_saturates(fig):
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    # Lustre: sync grows from the smallest scale before flattening
    assert max(sync) > sync[0]
    # the tail is flat (saturated), not still climbing steeply
    assert sync[-1] < 1.5 * sync[len(sync) // 2]
    # async grows with ranks
    assert async_[-1] > async_[0]


# ---------------------------------------------------------------------------
# Fig. 5 — Cosmoflow (§V-A.5), Fig. 6 — EQSIM (§V-A.4)
# ---------------------------------------------------------------------------


@_claim("fig5")
def cosmoflow_sync_stops_scaling_async_higher(fig):
    ranks = fig.column("ranks")
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    rank_ratio = ranks[-1] / ranks[0]
    # sync read bandwidth scales sub-linearly (GPFS ceiling)
    assert sync[-1] / sync[0] < rank_ratio
    # async maintains higher bandwidth at every scale
    for s, a in zip(sync, async_):
        assert a > s
    # and clearly higher at the top end
    assert async_[-1] > 1.5 * sync[-1]


@_claim("fig6")
def eqsim_sync_decreases_both_modeled(fig):
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    est_sync = fig.column("est sync GB/s")
    # sweep starts saturated: sync decreases under strong scaling
    assert sync[-1] < sync[0]
    # async consistently above sync and not degrading
    assert async_[-1] >= async_[0] * 0.9
    assert async_[-1] > sync[-1]
    # the model tracks the measured sync series (paper: "accurately")
    for measured, estimated in zip(sync, est_sync):
        assert abs(estimated - measured) / measured < 0.5
    assert fig.meta["r2 async"] > 0.9


# ---------------------------------------------------------------------------
# Fig. 7 — partial overlap (§V-B), Fig. 8 — variability (§V-C)
# ---------------------------------------------------------------------------


@_claim("fig7")
def async_overlap_tolerates_frequent_checkpoints(fig):
    intervals = fig.column("steps/phase")
    sync = fig.column("sync s")
    async_ = fig.column("async s")
    est_sync = fig.column("est sync s")
    est_async = fig.column("est async s")
    assert intervals[0] == 1  # most frequent checkpointing first
    # frequent checkpointing stretches the sync duration...
    assert sync[0] > 1.2 * sync[-1]
    # ...while async stays much flatter
    async_stretch = async_[0] / async_[-1]
    sync_stretch = sync[0] / sync[-1]
    assert async_stretch < sync_stretch
    # async is never slower than sync by more than noise
    for s, a in zip(sync, async_):
        assert a <= s * 1.05
    # the Eq. 1/2 estimates track the measurements within 15%
    for m, e in zip(sync, est_sync):
        assert abs(m - e) / m < 0.15
    for m, e in zip(async_, est_async):
        assert abs(m - e) / m < 0.15


@_claim("fig8")
def async_hides_variability(fig):
    sync = fig.column("sync GB/s")
    async_ = fig.column("async GB/s")
    availability = fig.column("availability")
    # days genuinely differ in contention
    assert max(availability) > min(availability)
    # sync bandwidth varies run to run; async is essentially flat
    assert fig.meta["sync CV"] > 5 * fig.meta["async CV"]
    assert fig.meta["sync max/min"] > 1.2
    assert fig.meta["async max/min"] < 1.02
    # async beats sync on every day at this scale
    for s, a in zip(sync, async_):
        assert a > s


# ---------------------------------------------------------------------------
# §V-C model accuracy
# ---------------------------------------------------------------------------


@_claim("model-acc")
def fits_reach_r2_bands(fig):
    fits = {row[0]: dict(zip(fig.columns, row)) for row in fig.rows}
    # Paper's r² bands
    assert fits["sync"]["r2"] > 0.8
    assert fits["async"]["r2"] > 0.9
    assert fits["sync"]["transform"] == "linear-log"
    assert fits["async"]["transform"] == "linear"


# ---------------------------------------------------------------------------
# Extensions: fault recovery and fleet scheduling
# ---------------------------------------------------------------------------


@_claim("fig-faults")
def async_loses_no_checkpoint_under_faults(fig):
    by_mode = {}
    for mode, rate, durable, lost, *_ in fig.rows:
        by_mode.setdefault(mode, {})[rate] = (durable, lost)
    for rate, (durable, lost) in by_mode["async"].items():
        if rate > 0:
            # Injected faults must not cost the async path a checkpoint.
            assert lost == 0
            assert durable >= by_mode["sync"][rate][0]


@_claim("fig-sched")
def io_aware_beats_fifo_p95(fig):
    p95 = dict(zip(zip(fig.column("load"), fig.column("policy")),
                   fig.column("compl p95")))
    for load in sorted(set(fig.column("load"))):
        assert p95[(load, "io-aware")] < p95[(load, "fifo")]


# ---------------------------------------------------------------------------
# §III-B1 micro-benchmarks
# ---------------------------------------------------------------------------


@_claim("mb-memcpy")
def memcpy_constant_above_32mib(fig):
    sizes = fig.column("size MiB")
    for machine_col in ("summit GB/s", "cori GB/s"):
        bw = dict(zip(sizes, fig.column(machine_col)))
        # constant after 32 MiB
        assert bw[512.0] / bw[32.0] < 1.06
        # small copies clearly penalized
        assert bw[1.0] < 0.6 * bw[512.0]


@_claim("mb-gpu")
def gpu_copy_amortized_pinned_near_peak(fig):
    sizes = fig.column("size MiB")
    pinned = dict(zip(sizes, fig.column("pinned GB/s")))
    pageable = dict(zip(sizes, fig.column("pageable GB/s")))
    # amortized above ~10 MiB
    assert pinned[512.0] / pinned[16.0] < 1.1
    # pinned close to the 50 GB/s NVLink theoretical max
    assert pinned[512.0] > 45.0
    # pageable clearly slower at every size
    for s in sizes:
        assert pageable[s] < pinned[s]


def test_every_figure_table_has_a_claim():
    claimed = {param.values[0] for param in CLAIMS}
    stored = {p.stem for p in RESULTS.glob("*.txt")}
    assert claimed <= stored
    assert {p for p in stored if p.startswith(("fig", "mb-"))} <= claimed


@pytest.mark.parametrize("fid, check", CLAIMS)
def test_paper_claim(fid, check):
    check(FigureData.from_text((RESULTS / f"{fid}.txt").read_text()))


@pytest.mark.parametrize("path", sorted(RESULTS.glob("*.txt")),
                         ids=lambda path: path.stem)
def test_stored_table_round_trips(path):
    # from_text must read back exactly what to_text wrote, or a claim
    # could be checked against values the table never held.
    text = path.read_text()
    assert FigureData.from_text(text).to_text() + "\n" == text
