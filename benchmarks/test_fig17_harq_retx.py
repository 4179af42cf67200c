"""Fig. 17: HARQ retransmissions inflate packet delay by ~one HARQ RTT.

Paper: each HARQ retransmission adds ~10 ms on the Amarisoft cell
(harq_rtt); retransmissions are common under aggressive MCS selection
— hundreds per minute in typical sessions.
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_table
from repro.datasets.workloads import harq_retx_session
from repro.telemetry.records import StreamKind


def test_fig17_harq_delay_inflation():
    session = harq_retx_session(seed=8, ul_base_sinr_db=10.0)
    result = session.run(30_000_000)
    ran = session.access_a.ran
    harq_rtt_ms = ran.cell.harq_rtt_us() / 1000.0
    delays = [
        p.delay_us / 1000.0
        for p in result.bundle.packets
        if p.is_uplink
        and p.received_us is not None
        and p.stream is StreamKind.VIDEO
    ]
    retx_total = ran.ul.harq.total_retransmissions
    tx_total = ran.ul.harq.total_transmissions
    minutes = 30 / 60
    data = {
        "harq_rtt_ms": harq_rtt_ms,
        "delays": np.array(delays),
        "retx_per_min": retx_total / minutes,
        "retx_rate": retx_total / max(tx_total, 1),
    }
    delays = data["delays"]
    p50 = float(np.percentile(delays, 50))
    p90 = float(np.percentile(delays, 90))
    p99 = float(np.percentile(delays, 99))
    rows = [
        ["HARQ RTT (ms)", data["harq_rtt_ms"]],
        ["ReTX per minute", data["retx_per_min"]],
        ["ReTX rate (of TBs)", data["retx_rate"]],
        ["UL delay p50 (ms)", p50],
        ["UL delay p90 (ms)", p90],
        ["UL delay p99 (ms)", p99],
        ["p90 - p50 (ms)", p90 - p50],
    ]
    save_result(
        "fig17_harq_retx", render_table(["metric", "value"], rows)
    )

    # HARQ retransmissions are common ("hundreds per minute").
    assert data["retx_per_min"] > 100
    # The delay tail shows the +RTT steps: the p90-p50 gap spans at
    # least one HARQ round trip.
    assert p90 - p50 >= data["harq_rtt_ms"] * 0.8
