"""RAN simulator integration: delivery, ordering, delay mechanisms."""

import numpy as np
import pytest

from repro.mac.crosstraffic import CrossTrafficModel, CrossTrafficUe
from repro.phy.cell import CellConfig, Duplex
from repro.phy.channel import ChannelModel, FadeEvent
from repro.phy.mcs import transport_block_size_bits
from repro.ran.simulator import RanSimulator
from repro.telemetry.collect import TelemetryCollector


def _cell(**kwargs):
    defaults = dict(
        name="test",
        duplex=Duplex.TDD,
        frequency_mhz=3500.0,
        bandwidth_mhz=20,
        scs_khz=30,
    )
    defaults.update(kwargs)
    return CellConfig(**defaults)


def _clean_channel(seed=0, sinr=22.0):
    return ChannelModel(
        base_sinr_db=sinr,
        shadowing_sigma_db=0.5,
        fast_fading_sigma_db=0.2,
        random_fade_rate_per_min=0.0,
        seed=seed,
    )


def _run_traffic(sim, duration_ms=3000, burst_every_ms=33, burst_packets=4):
    """Push a VCA-like load; returns {packet_id: send_us} and deliveries."""
    send_ts = {}
    deliveries = []
    pid = 0
    for t_ms in range(duration_ms):
        now = t_ms * 1000
        if t_ms % burst_every_ms == 0:
            for _ in range(burst_packets):
                sim.send_uplink(pid, 1200, now)
                send_ts[pid] = now
                pid += 1
            sim.send_downlink(pid, 1200, now)
            send_ts[pid] = now
            pid += 1
        deliveries.extend(sim.step_to(now + 1000))
    deliveries.extend(sim.step_to(duration_ms * 1000 + 500_000))
    return send_ts, deliveries


def test_all_packets_delivered_in_order():
    sim = RanSimulator(
        _cell(), ul_channel=_clean_channel(1), dl_channel=_clean_channel(2)
    )
    send_ts, deliveries = _run_traffic(sim)
    assert len(deliveries) == len(send_ts)
    ul_ids = [d.packet_id for d in deliveries if d.is_uplink]
    dl_ids = [d.packet_id for d in deliveries if not d.is_uplink]
    assert ul_ids == sorted(ul_ids)  # RLC in-order delivery
    assert dl_ids == sorted(dl_ids)
    for d in deliveries:
        assert d.delivered_us >= send_ts[d.packet_id]


def test_uplink_slower_than_downlink():
    """The request-grant loop makes UL delay dominate DL (§5.2.1)."""
    sim = RanSimulator(
        _cell(), ul_channel=_clean_channel(1), dl_channel=_clean_channel(2)
    )
    send_ts, deliveries = _run_traffic(sim)
    ul = [d.delivered_us - send_ts[d.packet_id] for d in deliveries if d.is_uplink]
    dl = [
        d.delivered_us - send_ts[d.packet_id]
        for d in deliveries
        if not d.is_uplink
    ]
    assert np.median(ul) > np.median(dl)


def test_fade_inflates_delay():
    """Fig. 12: a deep fade raises one-way delay, then it recovers."""
    fade = FadeEvent(start_us=1_000_000, duration_us=800_000, depth_db=25.0)
    channel = ChannelModel(
        base_sinr_db=14.0,
        shadowing_sigma_db=0.5,
        fast_fading_sigma_db=0.2,
        fade_events=[fade],
        seed=3,
    )
    sim = RanSimulator(
        _cell(), ul_channel=channel, dl_channel=_clean_channel(2), seed=5
    )
    send_ts, deliveries = _run_traffic(sim, duration_ms=3000)
    ul = [
        (send_ts[d.packet_id], d.delivered_us - send_ts[d.packet_id])
        for d in deliveries
        if d.is_uplink
    ]
    before = [delay for sent, delay in ul if sent < 900_000]
    during = [delay for sent, delay in ul if 1_000_000 <= sent < 1_800_000]
    after = [delay for sent, delay in ul if sent > 2_400_000]
    assert np.mean(during) > 2 * np.mean(before)
    assert np.mean(after) < np.mean(during)


def test_cross_traffic_squeezes_capacity():
    """Fig. 13: heavy cross traffic inflates delay via PRB contention."""
    burst = CrossTrafficUe(
        rnti=49_000,
        mean_on_ms=0.0,
        mean_prb_demand=0.0,
        scripted_bursts=[(1_000_000, 1_000_000, 300)],
        seed=1,
    )
    sim = RanSimulator(
        _cell(),
        ul_channel=_clean_channel(1),
        dl_channel=_clean_channel(2),
        dl_cross=CrossTrafficModel(ues=[burst]),
        seed=5,
    )
    send_ts, deliveries = _run_traffic(sim, duration_ms=3000, burst_packets=8)
    dl = [
        (send_ts[d.packet_id], d.delivered_us - send_ts[d.packet_id])
        for d in deliveries
        if not d.is_uplink
    ]
    before = [delay for sent, delay in dl if sent < 900_000]
    during = [delay for sent, delay in dl if 1_050_000 <= sent < 1_900_000]
    assert np.mean(during) > np.mean(before)


def test_cross_traffic_dci_tbs():
    """Cross-traffic grants carry the TBS of their PRBs at the nominal
    MCS, unscheduled demands beyond the grid included."""
    ues = [
        CrossTrafficUe(
            rnti=45_000, mean_on_ms=20.0, mean_off_ms=20.0,
            mean_prb_demand=20.0, seed=3,
        ),
        CrossTrafficUe(
            rnti=49_000,
            mean_on_ms=0.0,
            mean_prb_demand=0.0,
            scripted_bursts=[(100_000, 100_000, 300)],
        ),
    ]
    collector = TelemetryCollector("s")
    sim = RanSimulator(
        _cell(), dl_cross=CrossTrafficModel(ues=ues), collector=collector
    )
    sim.step_to(1_000_000)
    cross = [r for r in collector.bundle(1_000_000).dci if r.rnti >= 45_000]
    assert max(r.n_prb for r in cross) > sim.grid.n_prb
    assert len({r.n_prb for r in cross}) > 5
    for r in cross:
        assert r.mcs == RanSimulator.CROSS_TRAFFIC_MCS
        assert r.tbs_bits == transport_block_size_bits(r.n_prb, r.mcs)
        assert r.used_bytes == r.tbs_bits // 8


def test_rrc_outage_delay_spike():
    """Fig. 19: a 300 ms RRC outage creates a delay spike near its size."""
    sim = RanSimulator(
        _cell(rrc_outage_us=300_000),
        ul_channel=_clean_channel(1),
        dl_channel=_clean_channel(2),
        scripted_rrc_releases_us=[1_000_000],
        seed=5,
    )
    send_ts, deliveries = _run_traffic(sim, duration_ms=3000)
    ul = [
        (send_ts[d.packet_id], d.delivered_us - send_ts[d.packet_id])
        for d in deliveries
        if d.is_uplink
    ]
    spike = max(delay for sent, delay in ul if 900_000 <= sent < 1_400_000)
    assert spike >= 250_000  # most of the outage shows up as delay
    assert len(sim.rrc.transitions) == 1


def test_telemetry_collected():
    collector = TelemetryCollector("t", gnb_log_available=True)
    sim = RanSimulator(
        _cell(),
        ul_channel=_clean_channel(1),
        dl_channel=_clean_channel(2),
        collector=collector,
        keep_tb_map=True,
    )
    _run_traffic(sim, duration_ms=1000)
    bundle = collector.bundle(1_000_000)
    assert len(bundle.dci) > 0
    assert len(bundle.gnb_log) > 0
    assert all(r.tbs_bits > 0 for r in bundle.dci)
    assert len(sim.tb_map) > 0
    mapped = {pid for tb in sim.tb_map for pid in tb.packet_ids}
    assert len(mapped) > 0


def test_proactive_grants_emit_dci():
    collector = TelemetryCollector("t")
    sim = RanSimulator(
        _cell(proactive_grant_bytes=1500, proactive_grant_period_slots=10),
        ul_channel=_clean_channel(1),
        dl_channel=_clean_channel(2),
        collector=collector,
    )
    # No traffic at all: proactive grants are still issued and wasted.
    sim.step_to(500_000)
    bundle = collector.bundle(500_000)
    proactive = [r for r in bundle.dci if r.proactive]
    assert len(proactive) > 0
    assert all(r.wasted_bytes > 0 for r in proactive)


def test_buffered_bytes_visible():
    sim = RanSimulator(
        _cell(), ul_channel=_clean_channel(1), dl_channel=_clean_channel(2)
    )
    sim.send_uplink(0, 5_000, 0)
    assert sim.buffered_bytes(uplink=True) == 5_000
    sim.step_to(200_000)
    assert sim.buffered_bytes(uplink=True) == 0
