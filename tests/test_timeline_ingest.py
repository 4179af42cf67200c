"""Vectorized single-pass ingest: per-record semantics preserved.

Handcrafted bundles pin down the aggregation rules the per-record
loops established and the vectorized ingest must keep: accumulation vs
last-record-wins per bin, per-direction splits from one pass,
out-of-range timestamp dropping, lost/RTCP packet classification, and
the experiment-vs-cross-traffic RNTI floor.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.features import BatchFeatureExtractor
from repro.telemetry.io import load_bundle
from repro.telemetry.records import (
    DciRecord,
    GnbLogKind,
    GnbLogRecord,
    PacketRecord,
    StreamKind,
    TelemetryBundle,
    WebRtcStatsRecord,
)
from repro.telemetry.timeline import SERIES, Timeline


def _bundle(**kwargs):
    defaults = dict(session_name="ingest", duration_us=1_000_000)
    defaults.update(kwargs)
    return TelemetryBundle(**defaults)


def _dci(ts_us, rnti=17_000, **kwargs):
    defaults = dict(
        ts_us=ts_us,
        slot=0,
        rnti=rnti,
        is_uplink=True,
        n_prb=10,
        mcs=20,
        tbs_bits=8_000,
    )
    defaults.update(kwargs)
    return DciRecord(**defaults)


def test_dci_same_bin_accumulates_and_splits_retx():
    bundle = _bundle(
        dci=[
            _dci(10_000, mcs=20, tbs_bits=8_000),
            _dci(20_000, mcs=10, tbs_bits=4_000, is_retx=True),
            _dci(30_000, mcs=12, tbs_bits=6_000),
            _dci(10_000, is_uplink=False, n_prb=7),
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    # Retransmissions count toward HARQ, not TBS; MCS averages over all.
    assert timeline["ul_tbs_bits"][0] == 14_000
    assert timeline["ul_harq_retx"][0] == 1
    assert timeline["ul_mcs_mean"][0] == pytest.approx((20 + 10 + 12) / 3)
    assert timeline["ul_mcs_min"][0] == 10
    assert timeline["ul_exp_prbs"][0] == 30
    # The one DL record landed in the other direction only.
    assert timeline["dl_exp_prbs"][0] == 7
    assert timeline["dl_tbs_bits"][0] == 8_000
    assert timeline["ul_scheduled"][0] == 1.0
    assert timeline["ul_scheduled"][1] == 0.0


def test_dci_cross_traffic_rnti_floor():
    bundle = _bundle(
        dci=[
            _dci(10_000, rnti=17_000, n_prb=10),
            _dci(20_000, rnti=39_999, n_prb=5),  # still the experiment UE
            _dci(30_000, rnti=40_000, n_prb=20),  # cross traffic
            _dci(40_000, rnti=52_001, n_prb=30),  # cross traffic
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    assert timeline["ul_exp_prbs"][0] == 15
    assert timeline["ul_other_prbs"][0] == 50
    # Cross-traffic grants contribute nothing to MCS/TBS/RNTI series.
    assert timeline["ul_mcs_mean"][0] == pytest.approx(20.0)
    assert timeline["ul_rnti"][0] == 39_999  # last experiment record wins


def test_dci_out_of_range_timestamps_dropped():
    bundle = _bundle(
        dci=[
            _dci(-50_001),  # bins to a negative index
            _dci(2_000_000),  # beyond the grid
            _dci(10_000, n_prb=3),
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    assert timeline["ul_exp_prbs"].sum() == 3


def test_dci_rnti_forward_fills_between_grants():
    bundle = _bundle(
        dci=[
            _dci(10_000, rnti=17_000),
            _dci(860_000, rnti=17_010),
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    assert timeline["ul_rnti"][0] == 17_000
    assert timeline["ul_rnti"][10] == 17_000  # held until the next grant
    assert timeline["ul_rnti"][17] == 17_010
    assert timeline["ul_rnti"][19] == 17_010


def _packet(sent_us, received_us, **kwargs):
    defaults = dict(
        packet_id=0,
        stream=StreamKind.VIDEO,
        size_bytes=1_000,
        sent_us=sent_us,
        received_us=received_us,
        is_uplink=True,
    )
    defaults.update(kwargs)
    return PacketRecord(**defaults)


def test_packet_bins_split_lost_rtcp_and_directions():
    bundle = _bundle(
        packets=[
            _packet(10_000, 30_000),  # 20 ms data delay
            _packet(20_000, 60_000),  # 40 ms data delay, same bin
            _packet(30_000, None),  # lost: counts bytes + loss only
            _packet(40_000, 45_000, stream=StreamKind.RTCP),  # 5 ms rtcp
            _packet(10_000, 110_000, is_uplink=False),  # DL: 100 ms
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    assert timeline["ul_packet_delay_ms"][0] == pytest.approx(30.0)
    assert timeline["ul_rtcp_delay_ms"][0] == pytest.approx(5.0)
    assert timeline["ul_lost_packets"][0] == 1
    assert timeline["dl_packet_delay_ms"][0] == pytest.approx(100.0)
    assert timeline["dl_lost_packets"].sum() == 0
    # All four UL packets' bytes land in bin 0 (lost ones included):
    # 4000 bytes over 50 ms = 640 kbit/s.
    assert timeline["ul_app_bitrate_bps"][0] == pytest.approx(640_000.0)
    # Bins without deliveries forward-fill the last delay.
    assert timeline["ul_packet_delay_ms"][5] == pytest.approx(30.0)


def test_webrtc_same_bin_last_record_wins_counters_accumulate():
    bundle = _bundle(
        webrtc_stats=[
            WebRtcStatsRecord(
                ts_us=10_000,
                client="cellular",
                inbound_fps=30.0,
                concealed_samples=100,
                total_samples=1_000,
                gcc_state="overuse",
            ),
            WebRtcStatsRecord(
                ts_us=20_000,
                client="cellular",
                inbound_fps=24.0,
                concealed_samples=50,
                total_samples=1_000,
                gcc_state="normal",
            ),
            WebRtcStatsRecord(ts_us=10_000, client="wired", inbound_fps=15.0),
            WebRtcStatsRecord(ts_us=10_000, client="nobody", inbound_fps=1.0),
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    assert timeline["local_inbound_fps"][0] == 24.0  # last record wins
    assert timeline["local_concealed"][0] == 150  # counters accumulate
    assert timeline["local_total_samples"][0] == 2_000
    assert timeline["local_gcc_state"][0] == 0  # from the last record
    assert timeline["remote_inbound_fps"][0] == 15.0  # per-role split
    # Unknown clients are ignored entirely.
    assert not np.any(timeline["remote_inbound_fps"] == 1.0)
    assert not np.any(timeline["local_inbound_fps"] == 1.0)
    # Sparse app stats forward-fill across empty bins.
    assert timeline["local_inbound_fps"][10] == 24.0


def test_gnb_log_buffer_last_wins_retx_counts_rrc_direction_agnostic():
    bundle = _bundle(
        gnb_log=[
            GnbLogRecord(
                ts_us=10_000,
                kind=GnbLogKind.RLC_BUFFER,
                is_uplink=True,
                buffer_bytes=500,
            ),
            GnbLogRecord(
                ts_us=20_000,
                kind=GnbLogKind.RLC_BUFFER,
                is_uplink=True,
                buffer_bytes=900,
            ),
            GnbLogRecord(ts_us=30_000, kind=GnbLogKind.RLC_RETX, is_uplink=True),
            GnbLogRecord(ts_us=30_000, kind=GnbLogKind.RLC_RETX, is_uplink=True),
            GnbLogRecord(
                ts_us=30_000, kind=GnbLogKind.RLC_RETX, is_uplink=False
            ),
            GnbLogRecord(ts_us=60_000, kind=GnbLogKind.RRC_RELEASE),
            GnbLogRecord(ts_us=80_000, kind=GnbLogKind.RRC_CONNECT),
            GnbLogRecord(ts_us=5_000_000, kind=GnbLogKind.RRC_CONNECT),
        ]
    )
    timeline = Timeline.from_bundle(bundle, dt_us=50_000)
    assert timeline["ul_rlc_buffer_bytes"][0] == 900  # last record wins
    assert timeline["ul_rlc_buffer_bytes"][3] == 900  # forward-filled
    assert timeline["ul_rlc_retx"][0] == 2
    assert timeline["dl_rlc_retx"][0] == 1
    assert timeline["rrc_events"][1] == 2  # both kinds, either direction
    assert timeline["rrc_events"].sum() == 2  # out-of-range one dropped


def test_empty_bundle_builds_quiet_grid():
    timeline = Timeline.from_bundle(_bundle(), dt_us=50_000)
    assert timeline.n_bins == 20
    assert np.all(timeline["ul_exp_prbs"] == 0)
    assert np.all(timeline["ul_scheduled"] == 0)
    assert np.all(np.isnan(timeline["ul_mcs_mean"]))
    assert np.all(timeline["local_inbound_fps"] == 0)  # ffill of leading NaN
    assert np.all(timeline["rrc_events"] == 0)


def test_segments_continued_with_after_equal_one_ingest():
    """Ingesting a session in segments, each continuing the last with
    ``after=`` and appended with ``extend``, reproduces the one-shot
    timeline bit for bit: every forward-filled series has a gap across
    each seam, so its value must carry in from the segment before."""
    stats = dict(inbound_fps=24.0, target_bitrate_bps=1e6, gcc_state="overuse")
    bundle = _bundle(
        dci=[
            _dci(10_000, rnti=17_000),
            _dci(10_000, rnti=17_001, is_uplink=False),
            _dci(860_000, rnti=17_010),
        ],
        packets=[
            _packet(10_000, 30_000),
            _packet(10_000, 45_000, stream=StreamKind.RTCP),
            _packet(10_000, 110_000, is_uplink=False),
        ],
        webrtc_stats=[
            WebRtcStatsRecord(ts_us=10_000, client="cellular", **stats),
            WebRtcStatsRecord(ts_us=10_000, client="wired", **stats),
        ],
        gnb_log=[
            GnbLogRecord(
                ts_us=10_000,
                kind=GnbLogKind.RLC_BUFFER,
                is_uplink=flag,
                buffer_bytes=900,
            )
            for flag in (True, False)
        ],
    )
    whole = Timeline.from_bundle(bundle, dt_us=50_000)
    timeline = None
    cuts = (0, 300_000, 900_000, 1_000_000)
    for start, end in zip(cuts, cuts[1:]):
        # Every record, every time: from_bundle keeps only the segment's.
        segment = Timeline.from_bundle(
            dataclasses.replace(bundle, duration_us=end),
            dt_us=50_000,
            after=timeline,
        )
        assert segment.start_us == start
        if timeline is None:
            timeline = segment
        else:
            timeline.extend(segment)
    assert timeline.n_bins == whole.n_bins
    assert list(timeline.series) == list(whole.series)
    for name, values in whole.series.items():
        assert np.array_equal(timeline[name], values, equal_nan=True), name
    assert timeline["dl_rnti"][-1] == 17_001
    tail = timeline.since(300_000)
    assert tail.start_us == 300_000
    assert np.array_equal(tail.t_us, whole.t_us[6:])


def _assert_same_series(actual, expected):
    assert actual.n_bins == expected.n_bins
    assert list(actual.series) == list(expected.series)
    for name, values in expected.series.items():
        got = actual[name]
        assert got.dtype == values.dtype, name
        assert np.array_equal(np.isnan(got), np.isnan(values)), name
        assert np.array_equal(got, values, equal_nan=True), name


def test_loaded_bundle_ingests_like_in_memory_bundle(profile_trace):
    """A bundle read from JSONL (typed columns, no record objects) gives
    the series of the in-memory bundle it was saved from: same dtype,
    same values, NaN in the same bins."""
    bundle, path = profile_trace
    loaded = load_bundle(path)
    for dt_us in (50_000, 20_000):
        _assert_same_series(
            Timeline.from_bundle(loaded, dt_us=dt_us),
            Timeline.from_bundle(bundle, dt_us=dt_us),
        )


def test_segmented_ingest_of_loaded_bundle_equals_one_ingest(profile_trace):
    _, path = profile_trace
    loaded = load_bundle(path)
    whole = Timeline.from_bundle(loaded)
    timeline = None
    cuts = (0, 2_000_000, 2_050_000, 5_500_000, loaded.duration_us)
    for end in cuts[1:]:
        segment = Timeline.from_bundle(
            dataclasses.replace(loaded, duration_us=end), after=timeline
        )
        if timeline is None:
            timeline = segment
        else:
            timeline.extend(segment)
    _assert_same_series(timeline, whole)


def _assert_float64(timeline):
    assert list(timeline.series) == list(SERIES)
    for name, values in timeline.series.items():
        assert values.dtype == np.float64, name


def test_ingest_writes_only_float64(private_bundle):
    """``np.bincount`` over an empty selection returns int64 even with
    float weights; ingest must still give float64 for every series:
    an empty bundle, a private cell (no cross-traffic grants), and a
    segment whose bins hold no experiment-UE grant."""
    _assert_float64(Timeline.from_bundle(_bundle()))
    assert len(private_bundle.dci)
    assert np.all(private_bundle.dci.column("rnti") < 40_000)
    _assert_float64(Timeline.from_bundle(private_bundle))
    bundle = _bundle(dci=[_dci(10_000), _dci(600_000, rnti=52_001)])
    first = Timeline.from_bundle(
        dataclasses.replace(bundle, duration_us=500_000)
    )
    segment = Timeline.from_bundle(bundle, after=first)
    assert segment["ul_other_prbs"].sum() == 10
    assert segment["ul_exp_prbs"].sum() == 0
    _assert_float64(segment)


def test_ingested_timeline_is_one_block(private_bundle):
    """Ingest, ``since``, ``extend`` and the batch feature windows all
    work on one float64 block, never on per-series copies."""
    timeline = Timeline.from_bundle(private_bundle)
    block = timeline.block
    assert block.dtype == np.float64
    assert block.shape == (len(SERIES), timeline.n_bins)
    for values in timeline.series.values():
        assert np.shares_memory(values, block)
    with pytest.raises(TypeError):
        timeline.series["extra"] = np.zeros(timeline.n_bins)
    # The feature windows every batch detector reads are views of it.
    extractor = BatchFeatureExtractor()
    seen = []
    extractor._batch_registry = {
        name: lambda windows, config, detector=detector: (
            seen.append(windows) or detector(windows, config)
        )
        for name, detector in extractor._batch_registry.items()
    }
    assert len(extractor.feature_matrix(timeline)[0]) > 0
    assert list(seen[0]) == list(SERIES)
    for windows in seen:
        for view in windows.values():
            assert np.shares_memory(view, block)
    # since() copies nothing.
    tail = timeline.since(timeline.start_us + 7 * timeline.dt_us)
    assert tail.n_bins == timeline.n_bins - 7
    assert np.shares_memory(tail.block, block)
    for values in tail.series.values():
        assert np.shares_memory(values, block)
    # Segments extend into one block equal, bit for bit, to one ingest.
    segmented = None
    for end in (2_000_000, 2_050_000, 9_000_000, private_bundle.duration_us):
        segment = Timeline.from_bundle(
            dataclasses.replace(private_bundle, duration_us=end),
            after=segmented,
        )
        if segmented is None:
            segmented = segment
        else:
            segmented.extend(segment)
    assert segmented.block.flags.c_contiguous
    assert segmented.block.tobytes() == block.tobytes()
    for values in segmented.series.values():
        assert np.shares_memory(values, segmented.block)


def test_hand_built_timeline_extends_and_evicts_per_series():
    """A hand-built timeline has no block: its series, of any dtype,
    extend and evict one by one and keep their dtypes."""
    timeline = Timeline(dt_us=50_000, n_bins=4)
    timeline.series["count"] = np.arange(4, dtype=np.int64)
    timeline.series["level"] = np.full(4, 0.5, dtype=np.float32)
    timeline.extend(
        Timeline(
            dt_us=50_000,
            n_bins=2,
            series={
                "count": np.array([4, 5], dtype=np.int64),
                "level": np.zeros(2, dtype=np.float32),
            },
            start_us=200_000,
        )
    )
    assert timeline.block is None and timeline.n_bins == 6
    tail = timeline.since(100_000)
    assert tail.block is None and tail.start_us == 100_000
    assert tail["count"].dtype == np.int64
    assert tail["count"].tolist() == [2, 3, 4, 5]
    assert tail["level"].dtype == np.float32
    assert tail["level"].tolist() == [0.5, 0.5, 0.0, 0.0]
    assert np.shares_memory(tail["count"], timeline["count"])
