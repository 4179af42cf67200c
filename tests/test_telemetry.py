"""Telemetry records, collection, and timeline resampling."""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.analysis.summarize import summarize_session
from repro.core.detector import DominoDetector
from repro.datasets.cells import TMOBILE_FDD
from repro.datasets.runner import make_cellular_session, make_wired_session
from repro.errors import TelemetryError
from repro.obs.metrics import get_registry
from repro.telemetry import collect, columns
from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.records import (
    DciRecord,
    GnbLogKind,
    GnbLogRecord,
    PacketRecord,
    StreamKind,
    WebRtcStatsRecord,
)
from repro.telemetry.timeline import Timeline


def _dci(ts, rnti=17000, uplink=True, prbs=10, mcs=20, retx=False, tbs=8000):
    return DciRecord(
        ts_us=ts,
        slot=ts // 500,
        rnti=rnti,
        is_uplink=uplink,
        n_prb=prbs,
        mcs=mcs,
        tbs_bits=tbs,
        is_retx=retx,
    )


def test_dci_derived_fields():
    record = DciRecord(
        ts_us=0, slot=0, rnti=1, is_uplink=True, n_prb=5, mcs=10,
        tbs_bits=8000, used_bytes=600,
    )
    assert record.tbs_bytes == 1000
    assert record.wasted_bytes == 400


def test_packet_record_delay():
    packet = PacketRecord(
        packet_id=1, stream=StreamKind.VIDEO, size_bytes=1200,
        sent_us=1000, received_us=21_000,
    )
    assert packet.delay_us == 20_000
    assert not packet.lost
    lost = PacketRecord(
        packet_id=2, stream=StreamKind.VIDEO, size_bytes=1200, sent_us=1000
    )
    assert lost.lost and lost.delay_us is None


def test_collector_joins_packet_captures():
    collector = TelemetryCollector("s")
    sent = PacketRecord(
        packet_id=1, stream=StreamKind.AUDIO, size_bytes=160, sent_us=0
    )
    collector.record_packet_sent(*columns.PACKETS.row(sent))
    collector.record_packet_received(1, 30_000)
    collector.record_packet_received(99, 30_000)  # unknown id: ignored
    bundle = collector.bundle(1_000_000)
    assert bundle.packets[0].received_us == 30_000


def test_bundle_packets_are_frozen():
    collector = TelemetryCollector("s")
    collector.record_packet_sent(*columns.PACKETS.row(_packet(1, 0)))
    packet = collector.bundle(1_000_000).packets[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        packet.received_us = 30_000


def _packet(packet_id, sent_us):
    return PacketRecord(
        packet_id=packet_id, stream=StreamKind.VIDEO, size_bytes=1_000,
        sent_us=sent_us,
    )


def _sent_twice(collector, log):
    collector.record_packet_sent(*columns.PACKETS.row(_packet(1, 0)))
    with pytest.raises(TelemetryError, match="packet 1 sent twice"):
        collector.record_packet_sent(*columns.PACKETS.row(_packet(1, 10_000)))
    drained = collector.drain(20_000)["packets"]
    bundled = collector.bundle(20_000).packets
    assert list(drained) == list(bundled) == [_packet(1, 0)]


def _received_unsent(collector, log):
    counter = get_registry().counter("repro_telemetry_unmatched_receives_total")
    before = counter.total()
    collector.record_packet_sent(*columns.PACKETS.row(_packet(1, 0)))
    collector.record_packet_received(99, 30_000)
    assert counter.total() - before == 1
    assert "packet 99 received but never sent" in log.text
    assert list(collector.bundle(50_000).packets) == [_packet(1, 0)]


#: Per source: how a row is recorded, and the field that tells rows
#: with equal stamps apart.
_RECORD_ROW = {
    "dci": ("record_dci", "n_prb"),
    "gnb_log": ("record_gnb_log", "buffer_bytes"),
    "packets": ("record_packet_sent", "packet_id"),
    "webrtc_stats": ("record_webrtc_stats", "total_samples"),
}


def _row(source, ts, i):
    return {
        "dci": lambda: _dci(ts, prbs=i),
        "gnb_log": lambda: GnbLogRecord(
            ts, GnbLogKind.RLC_BUFFER, True, i, 17_000
        ),
        "packets": lambda: _packet(i, ts),
        "webrtc_stats": lambda: WebRtcStatsRecord(
            ts_us=ts, client="cellular", total_samples=i
        ),
    }[source]()


def _out_of_time_order(collector, log):
    stamps = (20_000, 10_000, 10_000, 40_000, 30_000)
    for i, ts in enumerate(stamps):
        for source, (method, _) in _RECORD_ROW.items():
            record = _row(source, ts, i)
            row = columns.RECORD_SCHEMAS[type(record)].row(record)
            getattr(collector, method)(*row)
    first = collector.drain(25_000)
    second = collector.drain(50_000)
    bundle = collector.bundle(50_000)
    for source, (_, key) in _RECORD_ROW.items():
        # Rows 1 and 2 share a stamp and keep their arrival order; row 3
        # holds row 4 back until the second drain.
        assert [getattr(r, key) for r in first[source]] == [1, 2, 0]
        assert [getattr(r, key) for r in second[source]] == [4, 3]
        assert [getattr(r, key) for r in getattr(bundle, source)] == [
            1, 2, 0, 4, 3
        ]


#: (id, fault): each fault drives a fresh collector, gNB log on, and
#: checks its verdict.
_COLLECTOR_FAULTS = (
    ("packet_sent_twice", _sent_twice),
    ("receive_without_send", _received_unsent),
    ("rows_out_of_time_order", _out_of_time_order),
)


@pytest.mark.parametrize(
    "fault",
    [row[1] for row in _COLLECTOR_FAULTS],
    ids=[row[0] for row in _COLLECTOR_FAULTS],
)
def test_collector_fault_table(fault, caplog):
    collector = TelemetryCollector("faults", gnb_log_available=True)
    collect.logger.addHandler(caplog.handler)
    try:
        fault(collector, caplog)
    finally:
        collect.logger.removeHandler(caplog.handler)


def test_collector_gnb_log_gated():
    silent = TelemetryCollector("s", gnb_log_available=False)
    row = columns.GNB_LOG.row(GnbLogRecord(ts_us=0, kind=GnbLogKind.RLC_RETX))
    silent.record_gnb_log(*row)
    assert silent.bundle(1_000).gnb_log == []
    loud = TelemetryCollector("s", gnb_log_available=True)
    loud.record_gnb_log(*row)
    assert len(loud.bundle(1_000).gnb_log) == 1


def test_bundle_sorted_and_rates():
    collector = TelemetryCollector("s")
    collector.record_dci(*columns.DCI.row(_dci(5_000)))
    collector.record_dci(*columns.DCI.row(_dci(1_000)))
    bundle = collector.bundle(60_000_000)
    assert [r.ts_us for r in bundle.dci] == [1_000, 5_000]
    assert bundle.event_rates_per_minute()["dci"] == pytest.approx(2.0)


def test_records_and_rows_collect_alike():
    """record_dci / record_gnb_log take a row of field values (an enum
    as its code) and hand back its record; out-of-order rows sort
    stably on ts_us, across a block boundary too."""
    stamps = [9_000, 1_000, 5_000, 1_000] * (collect.BLOCK_ROWS // 2)
    by_row = TelemetryCollector("s", gnb_log_available=True)
    want = {"dci": [], "gnb_log": []}
    for i, ts in enumerate(stamps):
        record = _dci(ts, prbs=i % 50, retx=i % 3 == 0)
        want["dci"].append(record)
        by_row.record_dci(*columns.DCI.row(record))
        want["gnb_log"].append(
            GnbLogRecord(ts, GnbLogKind.RLC_RETX, i % 2 == 0, i, 17_000)
        )
        by_row.record_gnb_log(
            ts, columns.code(GnbLogKind.RLC_RETX), i % 2 == 0, i, 17_000
        )
    got = by_row.bundle(10_000)
    assert len(stamps) > collect.BLOCK_ROWS
    for source in ("dci", "gnb_log"):
        records = list(getattr(got, source))
        want_sorted = sorted(want[source], key=lambda r: r.ts_us)
        assert records == want_sorted
        assert [r.ts_us for r in records] == sorted(stamps)
    # Equal stamps keep their arrival order.
    assert [r.n_prb for r in got.dci[:4]] == [1, 3, 5, 7]


# -- the columnar collector --------------------------------------------------


@pytest.fixture(scope="module")
def fdd_session():
    """A 6 s T-Mobile FDD call with an RRC release, gNB log on: over
    eight blocks of DCI rows, and every gNB log kind."""
    collector = TelemetryCollector(
        "fdd", cellular_client="cellular", wired_client="wired",
        gnb_log_available=True,
    )
    session = make_cellular_session(
        TMOBILE_FDD,
        seed=11,
        scripted_rrc_releases_us=[2_000_000],
        collector=collector,
    )
    return session, session.run(6_000_000).bundle


def _list_backed(bundle):
    return dataclasses.replace(
        bundle,
        dci=list(bundle.dci),
        gnb_log=list(bundle.gnb_log),
        packets=list(bundle.packets),
        webrtc_stats=list(bundle.webrtc_stats),
    )


def test_collector_sources_are_columns(fdd_session):
    _, bundle = fdd_session
    assert len(bundle.dci) > 8 * collect.BLOCK_ROWS
    assert {r.kind for r in bundle.gnb_log} == set(GnbLogKind)
    for schema in columns.SCHEMAS.values():
        source = getattr(bundle, schema.source)
        assert isinstance(source, columns.RecordColumns)
        assert len(source) > 0
        assert source == list(source)
        ts = [getattr(r, schema.time) for r in source]
        assert ts == sorted(ts)
        for f in schema.fields:
            assert source.column(f.attr).dtype == f.column_dtype


def test_collector_columns_ingest_like_record_lists(fdd_session):
    _, bundle = fdd_session
    got = Timeline.from_bundle(bundle)
    want = Timeline.from_bundle(_list_backed(bundle))
    assert got.n_bins == want.n_bins
    assert list(got.series) == list(want.series)
    for name, values in want.series.items():
        assert got.series[name].dtype == values.dtype, name
        assert np.array_equal(got.series[name], values, equal_nan=True), name


def test_scenario_analysis_builds_no_ran_records():
    collector = TelemetryCollector("fdd", gnb_log_available=True)
    session = make_cellular_session(
        TMOBILE_FDD, seed=3, scripted_rrc_releases_us=[2_000_000],
        collector=collector,
    )
    bundle = session.run(6_000_000).bundle
    report = DominoDetector().analyze(bundle)
    summarize_session(bundle)
    assert report.n_windows > 0
    assert len(bundle.gnb_log) > 0
    for schema in columns.SCHEMAS.values():
        assert getattr(bundle, schema.source)._records is None


def _time_us(record):
    """A record's feed time: a packet's send time, else its ts_us."""
    return record.sent_us if isinstance(record, PacketRecord) else record.ts_us


def _drained_records(batch):
    """The records of a drained batch (one column slice per source)."""
    return [record for rows in batch.values() for record in rows]


def _assert_each_source_ordered(batch):
    for rows in batch.values():
        stamps = rows.times.tolist()
        assert stamps == sorted(stamps)


def test_drain_straddling_blocks_is_exactly_once_and_ordered():
    n = 3 * collect.BLOCK_ROWS + 17
    collector = TelemetryCollector("s", gnb_log_available=True)
    for i in range(n):
        collector.record_dci(*columns.DCI.row(_dci(i * 10)))
        if i % 100 == 0:
            collector.record_gnb_log(
                i * 10, columns.code(GnbLogKind.RLC_BUFFER), True, i, 17_000
            )
    block = collect.BLOCK_ROWS * 10
    horizons = (5, block - 20, block - 10, block + 10, 2 * block + 50, 3 * block)
    drained = []
    for horizon in horizons:
        batch = collector.drain(horizon)
        assert all(_time_us(r) <= horizon for r in _drained_records(batch))
        drained.append(batch)
    drained.append(collector.drain(10 * n))
    # Rows 4096, 8192 and 12288 open the second to fourth blocks.
    assert [len(batch["dci"]) for batch in drained] == [
        1, 4094, 1, 2, 4100, 4091, 16
    ]
    assert _drained_records(collector.drain(10 * n)) == []
    records = [r for batch in drained for r in _drained_records(batch)]
    bundle = collector.bundle(10 * n)
    assert [r for r in records if isinstance(r, DciRecord)] == list(bundle.dci)
    assert [r for r in records if isinstance(r, GnbLogRecord)] == list(
        bundle.gnb_log
    )
    for batch in drained:
        _assert_each_source_ordered(batch)


def test_live_drain_is_exactly_once_and_ordered():
    """Drains behind a moving horizon, as a live SimSource makes them,
    hand out every record of the bundle once, each source's slice of a
    batch in time order (gNB log rows stamped ahead of later rows
    included)."""
    collector = TelemetryCollector("fdd", gnb_log_available=True)
    session = make_cellular_session(
        TMOBILE_FDD, seed=3, scripted_rrc_releases_us=[2_000_000],
        collector=collector,
    )
    drained = []
    drained_at = []  # the simulation clock at each drain
    for i, now in enumerate(range(500_000, 6_000_001, 500_000)):
        session.advance_to(now)
        # Settled drains alternate with drains of packets in flight.
        lag = 300_000 if i % 2 == 0 else 20_000
        drained.append(collector.drain(now - lag))
        drained_at.append(now)
    drained.append(collector.drain(6_000_000))
    drained_at.append(6_000_000)
    for batch in drained:
        _assert_each_source_ordered(batch)
    records = [r for batch in drained for r in _drained_records(batch)]
    bundle = collector.bundle(6_000_000)
    assert [r for r in records if isinstance(r, DciRecord)] == list(bundle.dci)
    logs = [r for r in records if isinstance(r, GnbLogRecord)]
    assert Counter(logs) == Counter(bundle.gnb_log)
    stats = [r for r in records if isinstance(r, WebRtcStatsRecord)]
    assert stats == list(bundle.webrtc_stats)
    assert len(records) == sum(
        len(source)
        for source in (
            bundle.dci, bundle.gnb_log, bundle.packets, bundle.webrtc_stats
        )
    )
    # Packets leave with the receive time joined by their drain: one
    # that lands after its drain comes out lost.
    drained_packets = [
        (packet, now)
        for batch, now in zip(drained, drained_at)
        for packet in batch["packets"]
    ]
    assert [
        dataclasses.replace(packet, received_us=None)
        for packet, _ in drained_packets
    ] == [
        dataclasses.replace(packet, received_us=None)
        for packet in bundle.packets
    ]
    landed_late = 0
    for (packet, now), final in zip(drained_packets, bundle.packets):
        if final.received_us is not None and final.received_us > now:
            landed_late += 1
            assert packet.received_us is None
        else:
            assert packet.received_us == final.received_us
    assert landed_late > 0, "no drain saw a packet in flight"


def test_wired_session_has_empty_typed_columns():
    bundle = make_wired_session(seed=2).run(2_000_000).bundle
    for source, schema in (
        (bundle.dci, columns.DCI),
        (bundle.gnb_log, columns.GNB_LOG),
    ):
        assert isinstance(source, columns.RecordColumns)
        assert len(source) == 0 and source == []
        for f in schema.fields:
            column = source.column(f.attr)
            assert column.dtype == f.column_dtype and column.shape == (0,)
    assert Timeline.from_bundle(bundle).n_bins == 40


def test_timeline_rejects_bad_dt():
    collector = TelemetryCollector("s")
    with pytest.raises(TelemetryError):
        Timeline.from_bundle(collector.bundle(1_000_000), dt_us=0)


def test_timeline_dci_binning():
    collector = TelemetryCollector("s")
    collector.record_dci(*columns.DCI.row(_dci(10_000, prbs=10)))
    collector.record_dci(*columns.DCI.row(_dci(20_000, prbs=5)))
    collector.record_dci(*columns.DCI.row(_dci(60_000, prbs=7, retx=True)))
    # A cross-traffic UE's grant.
    collector.record_dci(*columns.DCI.row(_dci(10_000, rnti=41_000, prbs=50)))
    timeline = Timeline.from_bundle(collector.bundle(200_000), dt_us=50_000)
    assert timeline["ul_exp_prbs"][0] == 15
    assert timeline["ul_other_prbs"][0] == 50
    assert timeline["ul_harq_retx"][1] == 1
    assert timeline["ul_scheduled"][0] == 1.0
    assert timeline["ul_scheduled"][2] == 0.0


def test_timeline_packet_delay_and_rate():
    collector = TelemetryCollector("s")
    for i in range(10):
        sent = PacketRecord(
            packet_id=i,
            stream=StreamKind.VIDEO,
            size_bytes=1_000,
            sent_us=i * 10_000,
            is_uplink=True,
        )
        collector.record_packet_sent(*columns.PACKETS.row(sent))
        collector.record_packet_received(i, i * 10_000 + 25_000)
    timeline = Timeline.from_bundle(collector.bundle(200_000), dt_us=50_000)
    assert timeline["ul_packet_delay_ms"][0] == pytest.approx(25.0)
    # 5 kB in the first 50 ms bin -> 0.8 Mbit/s.
    assert timeline["ul_app_bitrate_bps"][0] == pytest.approx(800_000.0)


def test_timeline_forward_fill_of_app_stats():
    collector = TelemetryCollector("s", cellular_client="a", wired_client="b")
    stats = WebRtcStatsRecord(ts_us=0, client="a", target_bitrate_bps=1e6)
    collector.record_webrtc_stats(*columns.WEBRTC_STATS.row(stats))
    timeline = Timeline.from_bundle(collector.bundle(500_000), dt_us=50_000)
    target = timeline["local_target_bitrate_bps"]
    assert np.all(target == 1e6)  # forward-filled across empty bins


def test_timeline_rtcp_delay_separated():
    collector = TelemetryCollector("s")
    sent = PacketRecord(
        packet_id=1,
        stream=StreamKind.RTCP,
        size_bytes=80,
        sent_us=0,
        is_uplink=False,
    )
    collector.record_packet_sent(*columns.PACKETS.row(sent))
    collector.record_packet_received(1, 120_000)
    timeline = Timeline.from_bundle(collector.bundle(200_000), dt_us=50_000)
    assert timeline["dl_rtcp_delay_ms"][0] == pytest.approx(120.0)
    # Media delay series has no sample -> forward-filled zeros.
    assert timeline["dl_packet_delay_ms"][0] == 0.0


def test_timeline_rnti_changes_visible():
    collector = TelemetryCollector("s")
    collector.record_dci(*columns.DCI.row(_dci(10_000, rnti=17_000)))
    collector.record_dci(*columns.DCI.row(_dci(200_000, rnti=23_456)))
    timeline = Timeline.from_bundle(collector.bundle(400_000), dt_us=50_000)
    rnti = timeline["ul_rnti"]
    assert rnti[0] == 17_000
    assert rnti[-1] == 23_456


def test_timeline_window_slicing():
    collector = TelemetryCollector("s")
    collector.record_dci(*columns.DCI.row(_dci(10_000)))
    timeline = Timeline.from_bundle(collector.bundle(1_000_000), dt_us=50_000)
    view = timeline.window(0, 10)
    assert all(len(v) == 10 for v in view.values())
    assert "ul_exp_prbs" in timeline
    with pytest.raises(TelemetryError):
        timeline["nonexistent_series"]
