"""§6.2 recovery dynamics: slow additive increase vs fast ack-bitrate
recovery.

Paper: after an overuse event GCC usually recovers via cautious additive
increase — taking 30+ seconds to restore the pre-congestion rate — while
the acknowledged-bitrate fast path (rate restored within ~2 s) occurs in
only ~1% of anomalies.  This benchmark drives the AIMD controller
directly through both regimes and measures recovery times.
"""

from conftest import save_result

from repro.analysis.ascii import render_table
from repro.rtc.gcc.aimd import AimdRateControl
from repro.rtc.gcc.overuse import BandwidthUsage


def _recovery_time_s(acked_follows_target: bool) -> float:
    """Seconds to restore 95% of the pre-overuse rate after a congestion
    episode with three back-to-back overuse cuts (as delay spikes in the
    paper's traces usually trigger repeated decreases, Fig. 21).

    acked_follows_target=True models the normal regime: the application
    sends at the (reduced) target, so the acknowledged bitrate equals it
    and the capacity estimate keeps the controller additive.
    acked_follows_target=False models the fast-recovery regime: the
    network delivers the full pre-congestion throughput immediately
    (short-lived overuse), letting the ack-bitrate estimator lift the
    cap and the capacity estimate reset.
    """
    pre_rate = 3_000_000.0
    aimd = AimdRateControl(initial_bps=pre_rate)
    now = 0
    aimd.update(BandwidthUsage.NORMAL, pre_rate, now)
    for _ in range(3):
        now += 500_000
        aimd.update(BandwidthUsage.OVERUSE, aimd.target_bps, now)
    elapsed = 0.0
    while aimd.target_bps < 0.95 * pre_rate and elapsed < 120.0:
        now += 100_000
        elapsed += 0.1
        acked = aimd.target_bps if acked_follows_target else pre_rate * 1.3
        aimd.update(BandwidthUsage.NORMAL, acked, now)
    return elapsed


def test_recovery_dynamics():
    times = {
        "additive (normal)": _recovery_time_s(True),
        "fast (ack-bitrate)": _recovery_time_s(False),
    }
    rows = [[label, seconds] for label, seconds in times.items()]
    save_result(
        "recovery_dynamics",
        render_table(["recovery path", "time to 95% (s)"], rows)
        + "\n(paper: additive recovery >30 s; fast recovery ~2 s, seen in ~1% of anomalies)",
    )

    assert times["additive (normal)"] > 15.0  # slow path is slow
    assert times["fast (ack-bitrate)"] < 8.0  # fast path is fast
    assert times["additive (normal)"] > 2.5 * times["fast (ack-bitrate)"]
