"""JSONL telemetry serialization round-trips."""

import asyncio
import dataclasses
import io
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import api
from repro.errors import TelemetryError
from repro.live import ReplaySource, canonical_detections
from repro.telemetry import columns
from repro.telemetry import io as telemetry_io
from repro.telemetry.io import (
    TraceHeader,
    dump_lines,
    iter_chunks,
    iter_records,
    load_bundle,
    save_bundle,
)
from repro.telemetry.records import (
    DciRecord,
    GnbLogKind,
    GnbLogRecord,
    PacketRecord,
    StreamKind,
    TelemetryBundle,
    WebRtcStatsRecord,
)
from repro.telemetry.timeline import Timeline


def _roundtrip(bundle):
    buffer = io.StringIO()
    save_bundle(bundle, buffer)
    buffer.seek(0)
    return load_bundle(buffer)


def test_roundtrip_preserves_everything(private_bundle):
    loaded = _roundtrip(private_bundle)
    assert loaded.session_name == private_bundle.session_name
    assert loaded.duration_us == private_bundle.duration_us
    assert loaded.gnb_log_available == private_bundle.gnb_log_available
    assert loaded.dci == private_bundle.dci
    assert loaded.gnb_log == private_bundle.gnb_log
    assert loaded.webrtc_stats == private_bundle.webrtc_stats
    assert len(loaded.packets) == len(private_bundle.packets)
    for a, b in zip(loaded.packets, private_bundle.packets):
        assert (a.packet_id, a.sent_us, a.received_us, a.stream) == (
            b.packet_id,
            b.sent_us,
            b.received_us,
            b.stream,
        )


def test_roundtrip_supports_analysis(private_bundle):
    """A reloaded bundle produces identical Domino output."""
    from repro.core.detector import DominoDetector

    loaded = _roundtrip(private_bundle)
    original = DominoDetector().analyze(private_bundle)
    reloaded = DominoDetector().analyze(loaded)
    assert len(original.windows) == len(reloaded.windows)
    for a, b in zip(original.windows, reloaded.windows):
        assert a.chain_ids == b.chain_ids


def test_file_path_roundtrip(tmp_path, wired_bundle):
    path = str(tmp_path / "trace.jsonl")
    save_bundle(wired_bundle, path)
    loaded = load_bundle(path)
    assert len(loaded.packets) == len(wired_bundle.packets)


def test_missing_header_rejected():
    with pytest.raises(TelemetryError):
        load_bundle(io.StringIO('{"type": "dci"}\n'))


def test_bad_json_rejected():
    with pytest.raises(TelemetryError) as error:
        load_bundle(io.StringIO("not json\n"))
    assert "line 1" in str(error.value)


def test_unknown_record_type_rejected(wired_bundle):
    lines = list(dump_lines(wired_bundle))
    lines.insert(1, '{"type": "mystery"}')
    with pytest.raises(TelemetryError):
        load_bundle(io.StringIO("\n".join(lines)))


def test_unsupported_version_rejected(wired_bundle):
    lines = list(dump_lines(wired_bundle))
    lines[0] = lines[0].replace('"version": 1', '"version": 99')
    with pytest.raises(TelemetryError):
        load_bundle(io.StringIO("\n".join(lines)))


def test_blank_lines_tolerated(wired_bundle):
    lines = list(dump_lines(wired_bundle))
    text = "\n\n".join(lines)
    loaded = load_bundle(io.StringIO(text))
    assert len(loaded.packets) == len(wired_bundle.packets)


# -- incremental reader ---------------------------------------------------------


def _saved(bundle):
    buffer = io.StringIO()
    save_bundle(bundle, buffer)
    buffer.seek(0)
    return buffer


def test_iter_records_header_first_then_file_order(private_bundle):
    items = list(iter_records(_saved(private_bundle)))
    header = items[0]
    assert isinstance(header, TraceHeader)
    assert header.session_name == private_bundle.session_name
    assert header.duration_us == private_bundle.duration_us
    assert header.gnb_log_available is True
    records = items[1:]
    assert len(records) == (
        len(private_bundle.dci)
        + len(private_bundle.gnb_log)
        + len(private_bundle.packets)
        + len(private_bundle.webrtc_stats)
    )
    # Same content the batch loader produces.
    assert [r for r in records if isinstance(r, DciRecord)] == (
        private_bundle.dci
    )


def test_iter_records_is_lazy(private_bundle):
    """Malformed tail lines only raise once iteration reaches them."""
    text = _saved(private_bundle).getvalue() + "not json\n"
    iterator = iter_records(io.StringIO(text))
    assert isinstance(next(iterator), TraceHeader)
    with pytest.raises(TelemetryError):
        list(iterator)


def test_iter_chunks_kind_filter(private_bundle):
    chunks = list(iter_chunks(_saved(private_bundle), "webrtc"))
    assert isinstance(chunks[0][0], TraceHeader)
    assert all(set(parts) <= {"webrtc"} for _, parts in chunks)
    stats = [r for _, parts in chunks for r in parts.get("webrtc", ())]
    assert all(isinstance(r, WebRtcStatsRecord) for r in stats)
    assert len(stats) == len(private_bundle.webrtc_stats)


def test_iter_records_missing_header_raises():
    with pytest.raises(TelemetryError):
        list(iter_records(io.StringIO('{"type": "dci"}\n')))


def test_iter_records_from_path(tmp_path, wired_bundle):
    path = str(tmp_path / "trace.jsonl")
    save_bundle(wired_bundle, path)
    items = list(iter_records(path))
    assert isinstance(items[0], TraceHeader)
    assert len(items) - 1 > 0


# -- column-backed loading ------------------------------------------------------


_SOURCES = ("dci", "gnb_log", "packets", "webrtc_stats")


def _assert_same_timeline(actual, expected):
    assert actual.n_bins == expected.n_bins
    assert list(actual.series) == list(expected.series)
    for name, values in expected.series.items():
        got = actual.series[name]
        assert got.dtype == values.dtype, name
        assert np.array_equal(got, values, equal_nan=True), name


def test_save_of_loaded_bundle_is_byte_identical(profile_trace):
    _, path = profile_trace
    with open(path) as handle:
        original = handle.read()
    buffer = io.StringIO()
    save_bundle(load_bundle(path), buffer)
    assert buffer.getvalue() == original


def test_loaded_records_equal_originals_field_types_included(profile_trace):
    bundle, path = profile_trace
    loaded = load_bundle(path)
    for source in _SOURCES:
        records = getattr(loaded, source)
        originals = getattr(bundle, source)
        assert isinstance(records, columns.RecordColumns)
        assert len(records) == len(originals)
        assert records == originals
        assert list(records) == list(originals)
        for got, want in zip(records, originals):
            for field in dataclasses.fields(want):
                assert type(getattr(got, field.name)) is type(
                    getattr(want, field.name)
                ), (source, field.name)


def test_analyze_path_equals_analyze_bundle(profile_trace):
    bundle, path = profile_trace
    from_path = api.analyze(path)
    assert canonical_detections(from_path.windows) == canonical_detections(
        api.analyze(bundle).windows
    )


def test_ingesting_a_loaded_bundle_builds_no_records(
    monkeypatch, private_bundle
):
    loaded = _roundtrip(private_bundle)

    def refuse(*args):
        raise AssertionError("a record was built")

    for schema in columns.SCHEMAS.values():
        monkeypatch.setattr(schema, "record", refuse)
    assert len(loaded.dci) == len(private_bundle.dci)
    assert loaded.event_rates_per_minute() == (
        private_bundle.event_rates_per_minute()
    )
    Timeline.from_bundle(loaded)
    monkeypatch.undo()
    assert loaded.dci[0] == private_bundle.dci[0]


def test_load_from_path_is_one_call(monkeypatch, tmp_path, wired_bundle):
    """A wrapper around load_bundle (a per-layer tracer's) sees one call
    per load, so records it counts are counted once."""
    path = str(tmp_path / "trace.jsonl")
    save_bundle(wired_bundle, path)
    calls = []
    unwrapped = telemetry_io.load_bundle

    def counting(path_or_file):
        calls.append(path_or_file)
        return unwrapped(path_or_file)

    monkeypatch.setattr(telemetry_io, "load_bundle", counting)
    api.analyze(path)
    assert calls == [path]


def test_loaded_bundle_pickles_without_built_records(private_bundle):
    loaded = _roundtrip(private_bundle)
    size = len(pickle.dumps(loaded))
    assert list(loaded.packets) == list(private_bundle.packets)
    assert len(pickle.dumps(loaded)) == size
    restored = pickle.loads(pickle.dumps(loaded))
    assert restored.dci.schema is columns.DCI
    assert restored == loaded
    assert restored.webrtc_stats == private_bundle.webrtc_stats


def test_small_chunks_load_identically(monkeypatch, private_bundle):
    text = _saved(private_bundle).getvalue()
    whole = load_bundle(io.StringIO(text))
    monkeypatch.setattr(telemetry_io, "_CHUNK_LINES", 7)
    chunked = load_bundle(io.StringIO(text))
    assert text.count("\n") > 3 * 7
    for source in _SOURCES:
        assert getattr(chunked, source) == getattr(private_bundle, source)
    _assert_same_timeline(
        Timeline.from_bundle(chunked), Timeline.from_bundle(whole)
    )
    _assert_same_timeline(
        Timeline.from_bundle(chunked), Timeline.from_bundle(private_bundle)
    )


async def _replayed(source):
    return [batch async for batch in source.batches()]


def test_small_chunks_name_the_true_line(monkeypatch, tmp_path, private_bundle):
    lines = _saved(private_bundle).getvalue().splitlines()
    line_number = 2 * 7 + 4  # the fourth line of the third chunk
    data = json.loads(lines[line_number - 1])
    data["ts_us"] = None
    lines[line_number - 1] = json.dumps(data)
    path = tmp_path / "trace.jsonl"
    path.write_text("\n".join(lines))
    monkeypatch.setattr(telemetry_io, "_CHUNK_LINES", 7)
    with pytest.raises(TelemetryError, match=f"^line {line_number}: "):
        load_bundle(io.StringIO("\n".join(lines)))
    with pytest.raises(TelemetryError, match=f"^line {line_number}: "):
        asyncio.run(_replayed(ReplaySource(str(path))))


def test_small_chunk_replay_detects_like_offline(
    monkeypatch, tmp_path, private_bundle
):
    """A JSONL path replayed through 7-line chunks, so most batch cuts
    span several chunks of a source, detects like offline analysis."""
    path = str(tmp_path / "trace.jsonl")
    save_bundle(private_bundle, path)
    monkeypatch.setattr(telemetry_io, "_CHUNK_LINES", 7)
    source = ReplaySource(path)
    stream = api.open_stream(gnb_log_available=source.gnb_log_available)
    live = []
    for batch in asyncio.run(_replayed(source)):
        stream.feed_batch(batch)
        live += stream.advance(batch.watermark_us)
    assert live
    assert canonical_detections(live) == canonical_detections(
        api.analyze(private_bundle).windows
    )


# -- writing from columns -----------------------------------------------------


#: dump_lines of _golden_bundle(), as the record-by-record writer wrote
#: it: key order, bools as true/false, None as null, float repr.
_GOLDEN_LINES = [
    '{"type": "header", "version": 1, "session_name": "golden", '
    '"duration_us": 1000000, "cellular_client": "cellular", '
    '"wired_client": "wired", "gnb_log_available": true}',
    '{"type": "dci", "ts_us": 10000, "slot": 20, "rnti": 17000, '
    '"ul": true, "prb": 10, "mcs": 20, "tbs": 8000, "retx": true, '
    '"attempt": 1, "crc": false, "proactive": true, "used": 700}',
    '{"type": "gnb", "ts_us": 20000, "kind": "rrc_release", "ul": false, '
    '"buffer": 0, "rnti": 17000}',
    '{"type": "pkt", "id": 3, "stream": "rtcp", "size": 80, '
    '"sent_us": 30000, "recv_us": null, "ul": false, "frame": null}',
    '{"type": "pkt", "id": 4, "stream": "video", "size": 1200, '
    '"sent_us": 31000, "recv_us": 52000, "ul": true, "frame": 9}',
    '{"type": "webrtc", "ts_us": 40000, "client": "wired", '
    '"out_fps": 29.97, "out_res": 0, "target": 0.1, "pushback": 1e-07, '
    '"state": "underuse", "slope": -2.5e-05, "threshold": 0.0, '
    '"outstanding": 0, "cwnd": 0, "in_fps": 0.0, "in_res": 0, '
    '"vjb_ms": 123456789.125, "ajb_ms": 0.0, "frozen": true, '
    '"freeze_ms": 250.0, "concealed": 0, "samples": 0}',
]


def _golden_bundle():
    return TelemetryBundle(
        session_name="golden",
        duration_us=1_000_000,
        gnb_log_available=True,
        dci=[
            DciRecord(
                ts_us=10_000, slot=20, rnti=17_000, is_uplink=True,
                n_prb=10, mcs=20, tbs_bits=8_000, is_retx=True,
                harq_attempt=1, crc_ok=False, proactive=True, used_bytes=700,
            )
        ],
        gnb_log=[
            GnbLogRecord(ts_us=20_000, kind=GnbLogKind.RRC_RELEASE, rnti=17_000)
        ],
        packets=[
            PacketRecord(
                packet_id=3, stream=StreamKind.RTCP, size_bytes=80,
                sent_us=30_000,
            ),
            PacketRecord(
                packet_id=4, stream=StreamKind.VIDEO, size_bytes=1_200,
                sent_us=31_000, received_us=52_000, is_uplink=True,
                frame_id=9,
            ),
        ],
        webrtc_stats=[
            WebRtcStatsRecord(
                ts_us=40_000, client="wired", outbound_fps=29.97,
                target_bitrate_bps=0.1, pushback_bitrate_bps=1e-07,
                gcc_state="underuse", gcc_trend_slope=-2.5e-05,
                video_jitter_buffer_ms=123456789.125, frozen=True,
                freeze_duration_ms=250.0,
            )
        ],
    )


def _column_backed(bundle):
    return dataclasses.replace(
        bundle,
        **{
            source: schema.from_rows(map(schema.row, getattr(bundle, source)))
            for source, schema in zip(_SOURCES, columns.SCHEMAS.values())
        },
    )


def _list_backed(bundle):
    return dataclasses.replace(
        bundle,
        **{source: list(getattr(bundle, source)) for source in _SOURCES},
    )


def test_dump_lines_golden():
    bundle = _golden_bundle()
    assert list(dump_lines(bundle)) == _GOLDEN_LINES
    assert list(dump_lines(_column_backed(bundle))) == _GOLDEN_LINES


def test_column_sources_write_the_bytes_of_list_sources(
    monkeypatch, profile_trace
):
    """A collector-built bundle (DCI and gNB log as columns), the same
    bundle with list-backed sources, and the loaded file all write the
    same bytes; writing columns builds no record."""
    bundle, path = profile_trace
    assert isinstance(bundle.dci, columns.RecordColumns)
    with open(path) as handle:
        original = handle.read().splitlines()
    loaded = load_bundle(path)

    def refuse(*args):
        raise AssertionError("a record was built")

    for schema in columns.SCHEMAS.values():
        monkeypatch.setattr(schema, "record", refuse)
    assert list(dump_lines(loaded)) == original
    assert list(dump_lines(bundle)) == original
    monkeypatch.undo()
    assert list(dump_lines(_list_backed(bundle))) == original


# -- the writer against its per-row json.dumps oracle ----------------------------


def _json_dumps_lines(bundle):
    """The writer's reference: one ``json.dumps`` of each record's dict
    (an enum as its member's value), keys in schema order."""
    lines = [json.dumps(telemetry_io._header_line(bundle))]
    for schema in columns.SCHEMAS.values():
        keys = ["type"] + [f.key for f in schema.fields]
        for record in getattr(bundle, schema.source):
            values = [getattr(record, f.attr) for f in schema.fields]
            values = [
                value.value if f.is_enum else value
                for f, value in zip(schema.fields, values)
            ]
            lines.append(json.dumps(dict(zip(keys, [schema.kind] + values))))
    return lines


_INT64_EDGES = (-(2**63), 2**63 - 1)
_INTS = st.one_of(
    st.sampled_from(_INT64_EDGES + (0, -1)), st.integers(*_INT64_EDGES)
)
_FINITE_FLOATS = st.one_of(
    st.sampled_from((-0.0, 5e-324, 1e16)),
    st.floats(allow_nan=False, allow_infinity=False),
)
_FLOATS = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf)), _FINITE_FLOATS
)
#: Quotes, backslashes, control characters, non-ASCII text and lone
#: surrogates, beside any other code point.
_STRINGS = st.text(
    st.one_of(
        st.sampled_from('"\\\x00\n\x1f\x7f\u00e9\u6f22\U0001f600\ud800\udfff'),
        st.characters(),
    ),
    max_size=6,
)


def _field_values(f, floats):
    if f.optional:
        return st.none() | _INTS
    if f.is_enum:
        return st.integers(0, len(f.dtype) - 1)
    return {np.int64: _INTS, np.bool_: st.booleans(), np.float64: floats,
            str: _STRINGS}[f.dtype]


def _tiled(schema, rows, n):
    """*n* rows cycling through *rows*, each enum code advanced by the
    row's index, so a source of four or more rows holds every member."""
    sizes = [len(f.dtype) if f.is_enum else 0 for f in schema.fields]
    return [
        tuple(
            (value + i) % size if size else value
            for value, size in zip(rows[i % len(rows)], sizes)
        )
        for i in range(n)
    ]


@st.composite
def _hostile_bundles(draw):
    """Bundles of drawn rows: each source empty, a few rows, or those
    rows tiled to 4097, one past a ``_BLOCK_ROWS`` block.  Half of them
    hold finite floats only, so they can be read back."""
    assert telemetry_io._BLOCK_ROWS == 4096
    floats = draw(st.sampled_from((_FINITE_FLOATS, _FLOATS)))
    sources = {}
    for schema in columns.SCHEMAS.values():
        row = st.tuples(*(_field_values(f, floats) for f in schema.fields))
        rows = draw(st.lists(row, max_size=3))
        n = draw(st.sampled_from((len(rows), 4097))) if rows else 0
        sources[schema.source] = schema.from_rows(_tiled(schema, rows, n))
    return TelemetryBundle(
        session_name="oracle", duration_us=1, gnb_log_available=True,
        **sources,
    )


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_hostile_bundles())
def test_dump_lines_matches_per_row_json_dumps(bundle):
    lines = list(dump_lines(bundle))
    assert lines == _json_dumps_lines(bundle)
    text = io.StringIO()
    save_bundle(bundle, text)
    assert text.getvalue() == "".join(line + "\n" for line in lines)
    floats = [
        getattr(bundle, schema.source).arrays[f.attr]
        for schema in columns.SCHEMAS.values()
        for f in schema.fields
        if f.dtype is np.float64
    ]
    if not all(np.isfinite(column).all() for column in floats):
        # Written as json writes it, and refused on reading, like every
        # non-finite number.
        with pytest.raises(TelemetryError, match="non-finite number"):
            load_bundle(io.StringIO(text.getvalue()))
        return
    loaded = load_bundle(io.StringIO(text.getvalue()))
    for schema in columns.SCHEMAS.values():
        source = schema.source
        _assert_same_columns(getattr(loaded, source), getattr(bundle, source))


# -- fault table: every load path, one verdict ------------------------------------


def _fault_bundle():
    """One record of every source, two of each where order matters."""
    return TelemetryBundle(
        session_name="faults",
        duration_us=1_000_000,
        gnb_log_available=True,
        dci=[
            DciRecord(
                ts_us=ts, slot=ts // 500, rnti=17_000, is_uplink=True,
                n_prb=10, mcs=20, tbs_bits=8_000,
            )
            for ts in (10_000, 120_000)
        ],
        gnb_log=[
            GnbLogRecord(
                ts_us=ts, kind=GnbLogKind.RLC_BUFFER, is_uplink=True,
                buffer_bytes=900,
            )
            for ts in (20_000, 130_000)
        ],
        packets=[
            PacketRecord(
                packet_id=i, stream=StreamKind.VIDEO, size_bytes=1_200,
                sent_us=ts, received_us=ts + 20_000, is_uplink=True,
            )
            for i, ts in enumerate((30_000, 140_000))
        ],
        webrtc_stats=[
            WebRtcStatsRecord(
                ts_us=ts, client="cellular", inbound_fps=24.0,
                target_bitrate_bps=1e6, gcc_state="overuse",
            )
            for ts in (40_000, 150_000)
        ],
    )


def _fault_lines():
    return list(dump_lines(_fault_bundle()))


#: Line (1-based) of the first record of each JSONL type in _fault_lines.
_FIRST_LINE = {"dci": 2, "gnb": 4, "pkt": 6, "webrtc": 8}

#: A numeric field the timeline reads, per JSONL type.
_TIME_KEY = {"dci": "ts_us", "gnb": "ts_us", "pkt": "sent_us", "webrtc": "ts_us"}


def _with_field(kind, key, value):
    def make():
        lines = _fault_lines()
        number = _FIRST_LINE[kind]
        data = json.loads(lines[number - 1])
        data[key] = value
        lines[number - 1] = json.dumps(data)
        return "\n".join(lines) + "\n"

    return make


def _without_field(kind, key):
    def make():
        lines = _fault_lines()
        number = _FIRST_LINE[kind]
        data = json.loads(lines[number - 1])
        del data[key]
        lines[number - 1] = json.dumps(data)
        return "\n".join(lines) + "\n"

    return make


def _inserted(line, at=3):
    def make():
        lines = _fault_lines()
        lines.insert(at - 1, line)
        return "\n".join(lines) + "\n"

    return make


def _truncated():
    text = "\n".join(_fault_lines())
    return text[: len(text) - 10]


def _version_99():
    lines = _fault_lines()
    lines[0] = lines[0].replace('"version": 1', '"version": 99')
    return "\n".join(lines)


def _headerless():
    return "\n".join(_fault_lines()[1:])


_BAD_VALUES = (
    ("null", None),
    ("string", "x"),
    ("nan", float("nan")),
    ("2e70", 2**70),
    ("list", [5]),
)

#: (id, text maker, error pattern): every row must raise TelemetryError
#: matching the pattern from load_bundle and iter_records alike.
_FAULTS = (
    [
        ("non_object_line", _inserted("42"), r"^line 3: malformed record"),
        ("list_line", _inserted("[1]"), r"^line 3: malformed record"),
    ]
    + [
        (
            f"{kind}_{label}",
            _with_field(kind, _TIME_KEY[kind], value),
            rf"^line {_FIRST_LINE[kind]}: malformed {kind} record",
        )
        for kind in _FIRST_LINE
        for label, value in _BAD_VALUES
    ]
    + [
        (
            "webrtc_float_nan",
            _with_field("webrtc", "slope", float("nan")),
            r"^line 8: malformed webrtc record",
        ),
        (
            "bad_stream",
            _with_field("pkt", "stream", "smoke"),
            r"^line 6: malformed pkt record",
        ),
        (
            "bad_gnb_kind",
            _with_field("gnb", "kind", "nope"),
            r"^line 4: malformed gnb record",
        ),
        (
            "missing_key",
            _without_field("dci", "rnti"),
            r"^line 2: malformed dci record: 'rnti'",
        ),
        ("truncated_last_line", _truncated, r"^line 9: invalid JSON"),
        (
            "unknown_type",
            _inserted('{"type": "mystery"}'),
            r"^line 3: unknown record type 'mystery'",
        ),
        ("version_99", _version_99, r"unsupported format version 99"),
        ("missing_header", _headerless, r"missing header line"),
    ]
)


@pytest.mark.parametrize(
    "make, pattern",
    [row[1:] for row in _FAULTS],
    ids=[row[0] for row in _FAULTS],
)
def test_fault_table_raises_typed_errors(make, pattern):
    text = make()
    with pytest.raises(TelemetryError, match=pattern) as loaded:
        load_bundle(io.StringIO(text))
    with pytest.raises(TelemetryError) as iterated:
        list(iter_records(io.StringIO(text)))
    assert str(loaded.value) == str(iterated.value)


def _shifted_dci(ts_us):
    """The fault bundle with its first DCI record at *ts_us*."""
    bundle = _fault_bundle()
    dci = list(bundle.dci)
    dci[0] = dataclasses.replace(dci[0], ts_us=ts_us)
    return dataclasses.replace(bundle, dci=dci)


def _float_ts():
    return _with_field("dci", "ts_us", 10_000.75)()


def _negative_ts():
    return _with_field("dci", "ts_us", -20_000)()


def _repeated_header():
    lines = _fault_lines()
    lines.insert(4, lines[0])
    return "\n".join(lines) + "\n"


#: (id, text maker, bundle whose in-memory timeline it must give).
_ACCEPTED = (
    ("blank_lines", lambda: "\n\n".join(_fault_lines()) + "\n\n", _fault_bundle),
    ("no_trailing_newline", lambda: "\n".join(_fault_lines()), _fault_bundle),
    ("repeated_header", _repeated_header, _fault_bundle),
    ("float_ts_us", _float_ts, lambda: _shifted_dci(10_000.75)),
    ("negative_ts_us", _negative_ts, lambda: _shifted_dci(-20_000)),
)


@pytest.mark.parametrize(
    "make, expected",
    [row[1:] for row in _ACCEPTED],
    ids=[row[0] for row in _ACCEPTED],
)
def test_fault_table_accepted_rows_give_identical_timelines(make, expected):
    text = make()
    want = Timeline.from_bundle(expected())
    loaded = load_bundle(io.StringIO(text))
    _assert_same_timeline(Timeline.from_bundle(loaded), want)
    items = list(iter_records(io.StringIO(text)))
    iterated = TelemetryBundle(
        session_name="faults",
        duration_us=items[0].duration_us,
        gnb_log_available=True,
        **{
            source: [r for r in items[1:] if isinstance(r, record_type)]
            for source, record_type in (
                ("dci", DciRecord),
                ("gnb_log", GnbLogRecord),
                ("packets", PacketRecord),
                ("webrtc_stats", WebRtcStatsRecord),
            )
        },
    )
    _assert_same_timeline(Timeline.from_bundle(iterated), want)
    for source in _SOURCES:
        assert list(getattr(loaded, source)) == getattr(iterated, source)


# -- differential: the chunk decoder against the line-by-line reference ------


#: Raw JSON tokens the two decoders may read differently: integers past
#: 64 bits (orjson gives a float, json an exact int), tokens only json
#: accepts, and floats at the edges.
_HOSTILE_TOKENS = (
    ("pow2_63", str(2**63)),
    ("pow2_64", str(2**64)),
    ("pow2_70", str(2**70)),
    ("neg_pow2_63_minus_1", str(-(2**63) - 1)),
    ("nan", "NaN"),
    ("infinity", "Infinity"),
    ("1e400", "1E400"),
    ("lone_surrogate", '"\\ud800"'),
    ("neg_zero", "-0.0"),
    ("min_subnormal", "5e-324"),
)

#: (JSONL type, key) of an int, a bool, a float, an optional and a
#: string field across the four sources, and the header's duration.
_HOSTILE_KEYS = (
    ("header", "duration_us"),
    ("dci", "ts_us"),
    ("dci", "ul"),
    ("gnb", "buffer"),
    ("gnb", "ul"),
    ("pkt", "size"),
    ("pkt", "ul"),
    ("pkt", "recv_us"),
    ("pkt", "frame"),
    ("webrtc", "out_res"),
    ("webrtc", "frozen"),
    ("webrtc", "slope"),
    ("webrtc", "target"),
    ("webrtc", "client"),
)

_LINE_OF = dict(_FIRST_LINE, header=1)


def _with_token(kind, key, token, duplicate=None):
    """The fault trace with *token* as the raw value of *key* on the
    first *kind* line.  With *duplicate* the key appears twice: its
    original value ``"after"`` the token wins, ``"before"`` it loses."""
    lines = _fault_lines()
    number = _LINE_OF[kind]
    data = json.loads(lines[number - 1])
    original = json.dumps(data[key])
    data[key] = "@@"
    line = json.dumps(data).replace('"@@"', token)
    if duplicate == "after":
        line = line[:-1] + f', "{key}": {original}}}'
    elif duplicate == "before":
        line = line.replace(
            f'"{key}": {token}', f'"{key}": {original}, "{key}": {token}'
        )
    lines[number - 1] = line
    return "\n".join(lines) + "\n"


def _assert_same_columns(got, want):
    assert got.arrays.keys() == want.arrays.keys()
    for key, array in want.arrays.items():
        assert got.arrays[key].dtype == array.dtype, key
        if array.dtype == object:
            assert list(got.arrays[key]) == list(array), key
        else:
            assert got.arrays[key].tobytes() == array.tobytes(), key


def _assert_loads_like_reference(text):
    """load_bundle of *text* equals the line-by-line parse of its lines
    column for column, dtypes and bits included, or raises the same
    TelemetryError (same message, same line)."""
    lines = io.StringIO(text).readlines()
    try:
        header, parts = telemetry_io._parse_chunk(lines, 1, None, None)
    except TelemetryError as reference:
        with pytest.raises(TelemetryError) as loaded:
            load_bundle(io.StringIO(text))
        assert str(loaded.value) == str(reference)
        return "raised"
    loaded = load_bundle(io.StringIO(text))
    assert loaded.duration_us == header.duration_us
    assert type(loaded.duration_us) is type(header.duration_us)
    for kind, schema in columns.SCHEMAS.items():
        want = parts.get(kind) or schema.from_rows(())
        _assert_same_columns(getattr(loaded, schema.source), want)
    return "accepted"


@pytest.mark.parametrize(
    "token",
    [token for _, token in _HOSTILE_TOKENS],
    ids=[label for label, _ in _HOSTILE_TOKENS],
)
def test_chunk_decoder_matches_line_parser_on_hostile_values(token):
    verdicts = set()
    for kind, key in _HOSTILE_KEYS:
        for duplicate in (None, "after", "before"):
            text = _with_token(kind, key, token, duplicate)
            verdicts.add(_assert_loads_like_reference(text))
    # Every token is refused somewhere and accepted somewhere (a
    # duplicate key whose last value is the original is always fine).
    assert verdicts == {"raised", "accepted"}


def test_header_duration_past_int64_is_refused_like_the_line_parser():
    """orjson reads -2**63 - 1 as the float -2**63, which as_int would
    take; the array path refuses the float so the line parser rejects."""
    text = _with_token("header", "duration_us", str(-(2**63) - 1))
    with pytest.raises(TelemetryError, match=r"^line 1: malformed header"):
        load_bundle(io.StringIO(text))


def _random_floats(rng, n):
    """Finite floats of every exponent: random bit patterns, then
    uniform and log-uniform draws."""
    values = []
    while len(values) < n // 3:
        value = np.frombuffer(
            rng.getrandbits(64).to_bytes(8, "little"), np.float64
        )[0]
        if np.isfinite(value):
            values.append(float(value))
    while len(values) < 2 * n // 3:
        values.append(rng.uniform(-1e6, 1e6))
    while len(values) < n:
        values.append(rng.choice((-1, 1)) * 10 ** rng.uniform(-300, 300))
    rng.shuffle(values)
    return values


@pytest.mark.parametrize("form", ["repr", "%.17g", "%.6e"])
def test_random_floats_decode_bit_identically(monkeypatch, form):
    """Seeded random floats written in *form* into every float field
    decode through the array path to the bits of the line parser."""
    rng = random.Random(20_26)
    render = repr if form == "repr" else (lambda value: form % value)
    schema = columns.WEBRTC_STATS
    float_keys = [f.key for f in schema.fields if f.dtype is np.float64]
    base = json.loads(_fault_lines()[_FIRST_LINE["webrtc"] - 1])
    n_rows = 3_000
    values = iter(_random_floats(rng, n_rows * len(float_keys)))
    lines = [_fault_lines()[0]]
    for _ in range(n_rows):
        data = dict(base, **{key: f"@{key}@" for key in float_keys})
        line = json.dumps(data)
        for key in float_keys:
            line = line.replace(f'"@{key}@"', render(next(values)))
        lines.append(line)
    text = "\n".join(lines) + "\n"
    assert len(lines) <= telemetry_io._CHUNK_LINES  # one chunk
    _, parts = telemetry_io._parse_chunk(
        io.StringIO(text).readlines(), 1, None, None
    )

    def no_fallback(*args):
        raise AssertionError("the chunk fell back to the line parser")

    monkeypatch.setattr(telemetry_io, "_parse_chunk", no_fallback)
    loaded = load_bundle(io.StringIO(text))
    assert len(loaded.webrtc_stats) == n_rows
    _assert_same_columns(loaded.webrtc_stats, parts["webrtc"])
