"""Kill-and-restart recovery table — sync vs async under storage faults.

The async VOL's retry + sync-fallback ladder must absorb injected
faults without losing a checkpoint, keeping at least as many durable
as the un-retried sync path.
"""

from repro.harness import figures


def test_fig_faults_table(save_figure):
    fig = figures.fig_faults("quick")
    save_figure(fig)
    by_mode = {}
    for mode, rate, durable, lost, *_ in fig.rows:
        by_mode.setdefault(mode, {})[rate] = (durable, lost)
    for rate, (durable, lost) in by_mode["async"].items():
        if rate > 0:
            # Injected faults must not cost the async path a checkpoint.
            assert lost == 0
            assert durable >= by_mode["sync"][rate][0]
