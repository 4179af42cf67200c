"""Fig. 14: packet↔transport-block mapping and intra-frame delay spread.

Paper: a video frame burst needs multiple TBs; on the narrow FDD cell a
frame spans >10 TBs and arrivals spread widely (large delay spread); the
100 MHz TDD cell fits bursts into few TBs (small spread); the Amarisoft
cell sends fewer packets per burst (low bitrate) but the spread
persists.
"""

import numpy as np
from conftest import save_result

from repro.analysis.ascii import render_table
from repro.datasets.cells import AMARISOFT, TMOBILE_FDD, TMOBILE_TDD
from repro.datasets.workloads import delay_spread_session
from repro.telemetry.records import StreamKind


def _frame_stats(session, result):
    """Per-video-frame: packets, TBs used, arrival spread (ms)."""
    bundle = result.bundle
    frames = {}
    packet_frame = {}
    for packet in bundle.packets:
        if packet.stream is not StreamKind.VIDEO or not packet.is_uplink:
            continue
        if packet.received_us is None or packet.frame_id is None:
            continue
        packet_frame[packet.packet_id] = packet.frame_id
        frames.setdefault(packet.frame_id, []).append(packet)
    tbs_per_frame = {}
    for tb in session.access_a.ran.tb_map:
        if not tb.is_uplink:
            continue
        frame_ids = {
            packet_frame[pid] for pid in tb.packet_ids if pid in packet_frame
        }
        for frame_id in frame_ids:
            tbs_per_frame.setdefault(frame_id, set()).add(tb.tb_id)
    spreads = []
    packets_counts = []
    tb_counts = []
    for frame_id, packets in frames.items():
        if len(packets) < 2:
            continue
        arrivals = [p.received_us for p in packets]
        spreads.append((max(arrivals) - min(arrivals)) / 1000.0)
        packets_counts.append(len(packets))
        tb_counts.append(len(tbs_per_frame.get(frame_id, set())))
    return (
        float(np.median(spreads)) if spreads else 0.0,
        float(np.median(packets_counts)) if packets_counts else 0.0,
        float(np.median(tb_counts)) if tb_counts else 0.0,
    )


def test_fig14_delay_spread():
    rows = []
    for profile in (TMOBILE_TDD, TMOBILE_FDD, AMARISOFT):
        session = delay_spread_session(profile, seed=4)
        result = session.run(10_000_000)
        spread, packets, tbs = _frame_stats(session, result)
        rows.append([profile.name, packets, tbs, spread])
    text = render_table(
        ["cell", "pkts/frame", "TBs/frame", "spread ms (median)"], rows
    )
    save_result("fig14_delay_spread", text)

    by_name = {row[0]: row for row in rows}
    tdd = by_name["T-Mobile 100 MHz TDD"]
    fdd = by_name["T-Mobile 15 MHz FDD"]
    amarisoft = by_name["Amarisoft"]
    # The narrow FDD cell needs more TBs per frame than the wide TDD cell.
    assert fdd[2] >= tdd[2]
    # Amarisoft's poor UL channel forces a lower bitrate: fewer packets
    # per burst than the healthy TDD cell.
    assert amarisoft[1] <= tdd[1]
    # Delay spread exists everywhere but is smallest on the 100 MHz cell.
    assert tdd[3] <= fdd[3] + 2.0
