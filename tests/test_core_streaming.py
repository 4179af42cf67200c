"""Streaming (near-real-time) Domino."""

import dataclasses
import random

import numpy as np
import pytest

from repro import api
from repro.core.detector import DetectorConfig, DominoDetector
from repro.core.streaming import StreamingDomino
from repro.live.service import canonical_detections
from repro.obs.metrics import get_registry
from repro.live.sources import TelemetryBatch
from repro.telemetry.columns import SCHEMAS, RecordColumns
from repro.telemetry.records import DciRecord, PacketRecord, TelemetryBundle

#: Advance cadences parity is checked at: one advance over the whole
#: feed, and one per 1 s watermark (the live supervisor's cadence).
ADVANCE_CADENCES_US = (None, 1_000_000)


def _time_us(record):
    """A record's feed time: a packet's send time, else its ts_us."""
    return record.sent_us if isinstance(record, PacketRecord) else record.ts_us


def _feed_bundle(stream, bundle, until_us=None):
    """Feed *bundle*'s records one at a time, through ``feed``."""
    for record in _all_records(bundle):
        if until_us is None or _time_us(record) < until_us:
            stream.feed(record)


def test_streaming_matches_offline(private_bundle):
    """One advance over the whole feed equals the offline detector."""
    offline = DominoDetector().analyze(private_bundle)
    stream = StreamingDomino(gnb_log_available=True)
    _feed_bundle(stream, private_bundle)
    windows = stream.advance(private_bundle.duration_us)
    assert len(windows) == len(offline.windows)
    for streamed, batch in zip(windows, offline.windows):
        assert streamed.start_us == batch.start_us
        assert streamed.chain_ids == batch.chain_ids


def _all_records(bundle):
    return [
        *bundle.dci, *bundle.gnb_log, *bundle.packets, *bundle.webrtc_stats
    ]


def _replay(stream, bundle, cadence_us):
    """Feed *bundle* and advance once (``cadence_us`` None) or once per
    *cadence_us* watermark; return every emitted window."""
    if cadence_us is None:
        _feed_bundle(stream, bundle)
        return stream.advance(bundle.duration_us)
    windows = []
    start = 0
    while start < bundle.duration_us:
        until = min(start + cadence_us, bundle.duration_us)
        _feed_bundle_range(stream, bundle, start, until)
        windows += stream.advance(until)
        start = until
    return windows


def test_streaming_incremental_chunks(private_bundle):
    """Feeding in two halves with interleaved advance() emits the same
    windows as one pass; re-fed history below the ingested horizon is
    counted as late, never ingested twice."""
    offline = DominoDetector().analyze(private_bundle)
    late_counter = get_registry().counter("repro_stream_late_records_total")
    late_before = late_counter.total()
    stream = StreamingDomino(gnb_log_available=True)
    half = private_bundle.duration_us // 2
    _feed_bundle(stream, private_bundle, until_us=half)
    first = stream.advance(half)
    _feed_bundle(stream, private_bundle)
    second = stream.advance(private_bundle.duration_us)
    assert canonical_detections(first + second) == canonical_detections(
        offline.windows
    )
    refed = sum(
        1
        for record in _all_records(private_bundle)
        if _time_us(record) < half
    )
    assert refed > 0
    assert stream.late_records == refed
    assert late_counter.total() - late_before == refed


def _experiment_dci(ts_us, rnti):
    return DciRecord(
        ts_us=ts_us,
        slot=0,
        rnti=rnti,
        is_uplink=True,
        n_prb=10,
        mcs=20,
        tbs_bits=8_000,
    )


def test_forward_fill_carries_across_advances():
    """An RNTI seen only before the second advance's first window must
    still forward-fill into it: the experiment UE holds RNTI A until
    0.5 s, sends nothing until 3 s, then holds RNTI B, so every window
    spanning 3 s sees an RNTI change, live as offline."""
    dci = [_experiment_dci(ts, 17_000) for ts in range(0, 500_000, 50_000)]
    dci += [
        _experiment_dci(ts, 17_001)
        for ts in range(3_000_000, 3_250_000, 50_000)
    ]
    bundle = TelemetryBundle(
        session_name="rnti-seam", duration_us=6_000_000, dci=dci
    )
    offline = api.analyze(bundle)
    assert any(w.features["rrc_change"] for w in offline.windows[1:])
    stream = api.open_stream()
    for record in dci:
        stream.feed(record)
    windows = stream.advance(5_000_000) + stream.advance(6_000_000)
    assert canonical_detections(windows) == canonical_detections(
        offline.windows
    )


def test_streaming_out_of_order_ingestion(private_bundle):
    """Records fed in shuffled order yield the same detections as the
    offline detector (the stream sorts by timestamp internally)."""
    offline = DominoDetector().analyze(private_bundle)
    stream = StreamingDomino(gnb_log_available=True)
    records = (
        list(private_bundle.dci)
        + list(private_bundle.gnb_log)
        + list(private_bundle.packets)
        + list(private_bundle.webrtc_stats)
    )
    random.Random(7).shuffle(records)
    for record in records:
        stream.feed(record)
    windows = stream.advance(private_bundle.duration_us)
    assert len(windows) == len(offline.windows)
    for streamed, batch in zip(windows, offline.windows):
        assert streamed.start_us == batch.start_us
        assert streamed.chain_ids == batch.chain_ids


def test_streaming_chunk_equals_window(private_bundle):
    """Advancing exactly one window at a time still emits every window
    the offline detector finds."""
    config = DetectorConfig()
    stream = StreamingDomino(config=config, gnb_log_available=True)
    offline = DominoDetector(config).analyze(private_bundle)
    windows = _replay(stream, private_bundle, config.window_us)
    assert [w.start_us for w in windows] == [
        w.start_us for w in offline.windows
    ]
    assert [w.chain_ids for w in windows] == [
        w.chain_ids for w in offline.windows
    ]


def test_streaming_memory_stays_bounded(private_bundle):
    """After each advance, only records the next windows can still
    reference remain buffered: everything older than two windows behind
    the feed head has been evicted."""
    stream = StreamingDomino(gnb_log_available=True)
    window_us = stream.config.window_us
    step_us = 5_000_000
    for until in range(step_us, private_bundle.duration_us + 1, step_us):
        _feed_bundle_range(stream, private_bundle, until - step_us, until)
        stream.advance(until)
        horizon = until - 2 * window_us
        recent = sum(
            1
            for record in (
                *private_bundle.dci,
                *private_bundle.gnb_log,
                *private_bundle.webrtc_stats,
            )
            if horizon <= record.ts_us < until
        ) + sum(
            1
            for record in private_bundle.packets
            if horizon <= record.sent_us < until
        )
        assert stream.buffered_records <= recent


def _batch(bundle, start_us, end_us, watermark_us=0):
    """*bundle*'s rows stamped in [*start_us*, *end_us*), as one batch
    of column slices."""
    parts = {}
    for schema in SCHEMAS.values():
        rows = getattr(bundle, schema.source)
        parts[schema.source] = rows.take(
            (start_us <= rows.times) & (rows.times < end_us)
        )
    return TelemetryBatch(**parts, watermark_us=watermark_us)


def _feed_bundle_range(stream, bundle, start_us, end_us):
    """Feed *bundle*'s rows in [*start_us*, *end_us*) as one batch."""
    stream.feed_batch(_batch(bundle, start_us, end_us))


def test_streaming_evicts_history(private_bundle):
    stream = StreamingDomino(gnb_log_available=True)
    _feed_bundle(stream, private_bundle)
    before = stream.buffered_records
    stream.advance(private_bundle.duration_us)
    assert stream.buffered_records < before


def test_in_order_feed_never_resorts(private_bundle):
    """Time-ordered feeding (the live tail-a-collector case) keeps the
    buffer sorted as it appends; advance() — including advances where
    no new record arrived — never pays a re-sort."""
    stream = StreamingDomino(gnb_log_available=True)
    records = sorted(
        [
            *private_bundle.dci,
            *private_bundle.gnb_log,
            *private_bundle.webrtc_stats,
        ],
        key=lambda r: r.ts_us,
    )
    half = private_bundle.duration_us // 2
    for record in records:
        if record.ts_us < half:
            stream.feed(record)
    stream.advance(half)
    stream.advance(half + 1_000_000)  # zero new records: no re-sort
    for record in records:
        if record.ts_us >= half:
            stream.feed(record)
    stream.advance(private_bundle.duration_us)
    assert stream.sorts_performed == 0


def test_out_of_order_feed_sorts_once(private_bundle):
    stream = StreamingDomino(gnb_log_available=True)
    stats = list(private_bundle.webrtc_stats[:50])
    stats.reverse()
    for record in stats:
        stream.feed(record)
    stream.advance(private_bundle.duration_us)
    assert stream.sorts_performed == 1


def test_pending_and_eviction_watermark_properties(private_bundle):
    """Buffered records are the ones awaiting ingest; the eviction
    watermark is the start of the retained bins, which is where the
    next window starts."""
    stream = StreamingDomino(gnb_log_available=True)
    assert stream.buffered_records == 0
    assert stream.eviction_watermark_us == 0
    _feed_bundle(stream, private_bundle)
    records = _all_records(private_bundle)
    assert stream.buffered_records == len(records)
    for now_us in (private_bundle.duration_us // 2, private_bundle.duration_us):
        stream.advance(now_us)
        assert stream.buffered_records == sum(
            1 for record in records if _time_us(record) >= now_us
        )
        assert stream.eviction_watermark_us == stream.frontier_us
        assert stream.frontier_us == (
            now_us - stream.config.window_us + stream.config.step_us
        )


def test_streaming_no_data_no_windows():
    stream = StreamingDomino()
    assert stream.advance(2_000_000) == []  # less than one window


# -- parity under adversarial confounder axes -------------------------------------


@pytest.fixture(scope="module", params=[
    "control",
    "correlated_cross",
    "lagged_mimic",
    "recovery_surge",
    "reactive_control",
])
def confounded_bundle(request):
    """One short adversarial session per confounder axis."""
    from repro.causal.confounders import ConfounderSpec
    from repro.fleet.scenarios import ImpairmentSpec, ScenarioSpec

    spec = ScenarioSpec(
        name=f"stream-parity/{request.param}",
        profile="amarisoft",
        seed=2025,
        duration_s=9.0,
        impairment=ImpairmentSpec(
            name="ul_fade", ul_fades=((3.0, 1.2, 20.0),)
        ),
        confounders=(ConfounderSpec(axis=request.param),),
    )
    return spec.build_session().run(spec.duration_us).bundle


def test_streaming_matches_batch_under_confounders(confounded_bundle):
    """Injected confounder traffic — scheduled or reactive — must not
    open any batch/streaming divergence at any advance cadence:
    detections are byte-identical on the wire."""
    import json

    from repro import schema

    offline = DominoDetector().analyze(confounded_bundle)
    expected = json.dumps(
        schema.detections_to_wire(offline.windows), sort_keys=True
    )
    for cadence_us in ADVANCE_CADENCES_US:
        stream = StreamingDomino(gnb_log_available=True)
        windows = _replay(stream, confounded_bundle, cadence_us)
        assert json.dumps(
            schema.detections_to_wire(windows), sort_keys=True
        ) == expected, f"cadence {cadence_us} us"


# -- fault table: the streaming seam, fed through batches ---------------------------


def _feed_batches(bundle, batch_us=1_000_000):
    """*bundle*'s rows as watermarked 1 s batches, the last one carrying
    the rows from the last cursor on and the full duration."""
    batches = []
    cursor = batch_us
    while cursor < bundle.duration_us:
        batches.append(_batch(bundle, cursor - batch_us, cursor, cursor))
        cursor += batch_us
    end_us = max(
        [bundle.duration_us]
        + [int(getattr(bundle, s.source).times.max(initial=0)) + 1
           for s in SCHEMAS.values()]
    )
    batches.append(
        _batch(bundle, cursor - batch_us, end_us, bundle.duration_us)
    )
    return batches


def _reordered(batch, order_of):
    """*batch* with each source's rows taken in ``order_of(n)`` order."""
    parts = {
        s.source: getattr(batch, s.source).take(
            order_of(len(getattr(batch, s.source)))
        )
        for s in SCHEMAS.values()
    }
    return TelemetryBatch(**parts, watermark_us=batch.watermark_us)


def _without_rows(bundle, drop):
    """*bundle* without the rows ``drop(schema, rows)`` masks, per source."""
    return dataclasses.replace(
        bundle,
        **{
            s.source: getattr(bundle, s.source).take(
                ~drop(s, getattr(bundle, s.source))
            )
            for s in SCHEMAS.values()
        },
    )


def _fault_out_of_order(bundle):
    rng = np.random.default_rng(3)
    feeds = [
        [_reordered(batch, rng.permutation)]
        for batch in _feed_batches(bundle)
    ]
    return bundle, feeds, 0, True


def _fault_behind_horizon(bundle):
    """Rows of the 2-3 s batch held back until after the 4 s watermark:
    late, counted, and absent from the detections."""
    batches = _feed_batches(bundle)
    held = batches[2]
    batches[2] = TelemetryBatch(watermark_us=held.watermark_us)
    feeds = [[batch] for batch in batches]
    feeds[4].append(held)

    def late(schema, rows):
        return (rows.times >= 2_000_000) & (rows.times < 3_000_000)

    return _without_rows(bundle, late), feeds, held.n_records, True


def _fault_fed_twice(bundle):
    """Every batch delivered again after its watermark advanced: each
    repeated row stamped behind the ingest horizon is counted late."""
    batches = _feed_batches(bundle)
    feeds = [[batch] for batch in batches for _ in range(2)]
    dt_us = DetectorConfig().dt_us
    late = sum(
        int(np.count_nonzero(
            getattr(batch, s.source).times
            < batch.watermark_us // dt_us * dt_us
        ))
        for batch in batches
        for s in SCHEMAS.values()
    )
    return bundle, feeds, late, True


def _fault_empty_batches(bundle):
    """Empty batches, before the first rows and repeating every
    watermark, advance nothing and lose nothing."""
    feeds = [[TelemetryBatch(watermark_us=0)]]
    for batch in _feed_batches(bundle):
        feeds.append([TelemetryBatch(watermark_us=0), batch])
        feeds.append([TelemetryBatch(watermark_us=batch.watermark_us)])
    return bundle, feeds, 0, True


def _fault_gnb_unavailable(bundle):
    """gNB rows reach a stream opened with gnb_log_available=False: it
    keeps none, as a collector without gNB logs would record none."""
    assert len(bundle.gnb_log) > 0
    expected = dataclasses.replace(bundle, gnb_log=[])
    feeds = [[batch] for batch in _feed_batches(bundle)]
    return expected, feeds, 0, False


def _fault_nan_stat(bundle):
    """A NaN in a WebRTC stats row flows through like any value."""
    stats = bundle.webrtc_stats
    arrays = dict(stats.arrays)
    jitter = arrays["video_jitter_buffer_ms"].copy()
    jitter[len(jitter) // 2] = np.nan
    arrays["video_jitter_buffer_ms"] = jitter
    nan_bundle = dataclasses.replace(
        bundle, webrtc_stats=RecordColumns(stats.schema, arrays)
    )
    feeds = [[batch] for batch in _feed_batches(nan_bundle)]
    return nan_bundle, feeds, 0, True


#: (id, fault) -> (bundle offline analysis must equal, feeds: one list
#: of batches per advance, rows expected late, gnb_log_available).
_STREAM_FAULTS = (
    ("out_of_order_in_batch", _fault_out_of_order),
    ("behind_ingest_horizon", _fault_behind_horizon),
    ("batch_fed_twice", _fault_fed_twice),
    ("empty_batches", _fault_empty_batches),
    ("gnb_rows_unavailable", _fault_gnb_unavailable),
    ("nan_stats_value", _fault_nan_stat),
)


def _feed_each_record(stream, batch):
    """Feed *batch* one record at a time, each source in its row order."""
    for schema in SCHEMAS.values():
        for record in getattr(batch, schema.source):
            stream.feed(record)


@pytest.mark.parametrize(
    "fault",
    [row[1] for row in _STREAM_FAULTS],
    ids=[row[0] for row in _STREAM_FAULTS],
)
def test_stream_fault_table(private_bundle, fault):
    """Every row of a faulty feed, whether fed as batches or record by
    record, either lands exactly where offline analysis of the same
    rows puts it, or is counted late."""
    expected, feeds, n_late, gnb_log_available = fault(private_bundle)
    offline = DominoDetector().analyze(expected)
    assert offline.windows
    late_counter = get_registry().counter("repro_stream_late_records_total")
    for feed in (StreamingDomino.feed_batch, _feed_each_record):
        late_before = late_counter.total()
        stream = StreamingDomino(gnb_log_available=gnb_log_available)
        windows = []
        for batches in feeds:
            for batch in batches:
                feed(stream, batch)
            windows += stream.advance(batches[-1].watermark_us)
        assert canonical_detections(windows) == canonical_detections(
            offline.windows
        ), feed.__name__
        assert stream.late_records == n_late, feed.__name__
        assert late_counter.total() - late_before == n_late, feed.__name__
