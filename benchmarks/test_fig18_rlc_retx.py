"""Fig. 18: RLC retransmission inflates delay by ~105 ms and releases a
head-of-line-blocked burst all at once.

Paper: after four failed HARQ attempts the RLC layer recovers the data
~105 ms after the initial transmission; packets queued behind the
missing segment are delivered nearly simultaneously (identical
right-edge reception times in the figure).
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_table
from repro.datasets.workloads import rlc_retx_session
from repro.telemetry.records import GnbLogKind, StreamKind


def test_fig18_rlc_retx():
    session = rlc_retx_session(fade_start_s=5.0, fade_duration_s=2.0, seed=9)
    result = session.run(15_000_000)
    ran = session.access_a.ran
    rlc_events = [
        r
        for r in result.bundle.gnb_log
        if r.kind is GnbLogKind.RLC_RETX and r.is_uplink
    ]
    packets = [
        p
        for p in result.bundle.packets
        if p.is_uplink
        and p.received_us is not None
        and p.stream in (StreamKind.VIDEO, StreamKind.AUDIO)
    ]
    delays = np.array([p.delay_us / 1000.0 for p in packets])
    # HoL release: group arrivals by receive timestamp; the RLC
    # recovery dumps a run of packets with one timestamp.
    arrival_counts = {}
    for p in packets:
        arrival_counts[p.received_us] = arrival_counts.get(p.received_us, 0) + 1
    biggest_burst = max(arrival_counts.values())
    data = {
        "rlc_retx_count": ran.ul.rlc_retx_count,
        "rlc_log_entries": len(rlc_events),
        "rlc_delay_ms": ran.cell.rlc_retx_delay_us / 1000.0,
        "max_delay_ms": float(delays.max()),
        "p50_delay_ms": float(np.percentile(delays, 50)),
        "hol_burst_size": biggest_burst,
        "hol_blocked_packets": ran.ul.reassembly.total_hol_blocked_packets,
    }
    rows = [[key, value] for key, value in data.items()]
    save_result("fig18_rlc_retx", render_table(["metric", "value"], rows))

    # The deep fade exhausted HARQ at least once -> RLC recovery ran.
    assert data["rlc_retx_count"] >= 1
    assert data["rlc_log_entries"] >= 1  # visible in the gNB log
    # The affected packets carry roughly the configured RLC penalty.
    assert data["max_delay_ms"] >= data["rlc_delay_ms"] * 0.8
    # Head-of-line blocking released a simultaneous burst (Fig. 15c).
    assert data["hol_burst_size"] >= 3
    assert data["hol_blocked_packets"] >= 1
