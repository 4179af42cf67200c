"""Fig. 16: proactive UL grants on the Mosolabs cell.

Paper: proactive grants let the first packets of a burst go out ~10 ms
earlier, but waste capacity (unused proactive grants and over-granted
BSR grants), and barely help the last packet of a burst.
"""

from dataclasses import replace

import numpy as np
from paper_tables import save_result

from repro.analysis.ascii import render_table
from repro.datasets.cells import MOSOLABS
from repro.datasets.runner import make_cellular_session
from repro.datasets.workloads import _quiet
from repro.telemetry.records import StreamKind


def _first_last_packet_delay(result):
    """Median delay of each UL frame's first and last packet (ms)."""
    frames = {}
    for packet in result.bundle.packets:
        if packet.stream is not StreamKind.VIDEO or not packet.is_uplink:
            continue
        if packet.received_us is None or packet.frame_id is None:
            continue
        frames.setdefault(packet.frame_id, []).append(packet)
    firsts, lasts = [], []
    for packets in frames.values():
        if len(packets) < 2:
            continue
        packets.sort(key=lambda p: p.sent_us)
        firsts.append(packets[0].delay_us / 1000.0)
        lasts.append(packets[-1].delay_us / 1000.0)
    return float(np.median(firsts)), float(np.median(lasts))


def _audio_delay_ms(result):
    delays = [
        p.delay_us / 1000.0
        for p in result.bundle.packets
        if p.is_uplink
        and p.received_us is not None
        and p.stream is StreamKind.AUDIO
    ]
    return float(np.median(delays))


def test_fig16_proactive_grants():
    rows = []
    stats = {}
    for label, proactive in (("proactive", True), ("bsr-only", False)):
        profile = _quiet(MOSOLABS)
        if not proactive:
            profile = replace(
                profile, cell=replace(profile.cell, proactive_grant_bytes=0)
            )
        session = make_cellular_session(profile, seed=5)
        result = session.run(15_000_000)
        first, last = _first_last_packet_delay(result)
        audio = _audio_delay_ms(result)
        dci = result.bundle.dci
        proactive_tbs = [r for r in dci if r.proactive]
        requested_tbs = [
            r for r in dci if r.is_uplink and not r.proactive and not r.is_retx
        ]
        wasted_proactive = sum(r.wasted_bytes for r in proactive_tbs)
        granted_proactive = sum(r.tbs_bytes for r in proactive_tbs)
        waste_fraction = wasted_proactive / granted_proactive if granted_proactive else 0.0
        rows.append(
            [
                label,
                audio,
                first,
                last,
                float(len(proactive_tbs)),
                waste_fraction * 100,
                float(len(requested_tbs)),
            ]
        )
        stats[label] = (audio, first, last, len(proactive_tbs), waste_fraction)
    text = render_table(
        [
            "scheduling",
            "audio-pkt ms",
            "first-pkt ms",
            "last-pkt ms",
            "proactive TBs",
            "waste %",
            "BSR TBs",
        ],
        rows,
    )
    save_result("fig16_proactive_grants", text)

    pro_audio, pro_first, pro_last, pro_count, pro_waste = stats["proactive"]
    bsr_audio, bsr_first, bsr_last, bsr_count, _ = stats["bsr-only"]
    assert pro_count > 0 and bsr_count == 0
    # Proactive grants cut the latency of small/leading packets (the
    # paper's ~10 ms first-packet gain); audio packets fit entirely in a
    # proactive grant, so they show the effect most cleanly.
    assert pro_audio < bsr_audio - 3.0
    # Video first packets gain little-to-nothing beyond noise...
    assert pro_first <= bsr_first + 1.5
    # ...and the burst's tail still waits for BSR-granted capacity, so
    # frame-level delay stays well above the first-packet delay.
    assert pro_last > pro_first + 5.0
    # And they waste capacity (unfilled proactive bars in the figure).
    assert pro_waste > 0.05
