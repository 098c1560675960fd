"""Fleet scheduling table — io-aware vs FIFO p95 completion per load.

Extension of the paper's §V-C contention result to the facility level:
the I/O-aware policy applies the sync-vs-async model at admission time
and must beat FIFO on p95 job completion at every load.
"""

from repro.harness import figures


def test_fig_sched_table(save_figure):
    fig = figures.fig_sched("quick")
    save_figure(fig)
    by_policy = {}
    for load, policy, *_rest in fig.rows:
        by_policy.setdefault(policy, {})[load] = fig.rows[
            [r[:2] for r in fig.rows].index([load, policy])
        ]
    p95_col = fig.columns.index("compl p95")
    for load in {row[0] for row in fig.rows}:
        assert (by_policy["io-aware"][load][p95_col]
                < by_policy["fifo"][load][p95_col])
