"""The unified facade: byte-identity with the engines it fronts.

``repro.api.analyze`` / ``open_stream`` / ``campaign`` must produce
byte-identical detections and :class:`SessionOutcome` records to the
detector, streaming detector and scenario runner behind them, the error
surface must be one :class:`ReproError` hierarchy, and the pre-2.0
top-level names removed in 3.0 must stay gone.
"""

import asyncio
import json

import pytest

import repro
from repro import api, schema
from repro.core.detector import DetectorConfig, DominoDetector
from repro.core.streaming import StreamingDomino
from repro.errors import ConfigError, ReproError, SchemaVersionError
from repro.fleet.scenarios import ImpairmentSpec, ScenarioMatrix
from repro.live.service import canonical_detections
from repro.telemetry.io import save_bundle
from repro.telemetry.timeline import Timeline

#: Tiny deterministic campaign (durations must exceed the 5 s window).
TINY_MATRIX = ScenarioMatrix(
    name="api_tiny",
    profiles=("wired",),
    durations_s=(8.0,),
    impairments=(ImpairmentSpec(), ImpairmentSpec(name="no_pushback", pushback_enabled=False)),
)


# -- analyze ---------------------------------------------------------------------


def test_analyze_bundle_byte_identical_to_detector(private_bundle):
    legacy = DominoDetector().analyze(private_bundle)
    facade = api.analyze(private_bundle)
    assert canonical_detections(facade.windows) == canonical_detections(
        legacy.windows
    )
    assert facade.chains == legacy.chains
    assert facade.session_name == legacy.session_name


def test_analyze_accepts_trace_path(tmp_path, private_bundle):
    path = tmp_path / "trace.jsonl"
    save_bundle(private_bundle, str(path))
    legacy = DominoDetector().analyze(private_bundle)
    for trace in (str(path), path):  # str and PathLike
        facade = api.analyze(trace)
        assert canonical_detections(facade.windows) == canonical_detections(
            legacy.windows
        )


def test_analyze_accepts_timeline(private_bundle):
    config = DetectorConfig()
    timeline = Timeline.from_bundle(private_bundle, dt_us=config.dt_us)
    facade = api.analyze(timeline, config, session_name="tl")
    legacy = DominoDetector(config).analyze(private_bundle)
    assert canonical_detections(facade.windows) == canonical_detections(
        legacy.windows
    )
    assert facade.session_name == "tl"


def test_analyze_rejects_garbage_with_config_error():
    with pytest.raises(ConfigError, match="analyze"):
        api.analyze(12345)


def test_analyze_respects_config(private_bundle):
    config = DetectorConfig(window_us=4_000_000, step_us=1_000_000)
    facade = api.analyze(private_bundle, config)
    legacy = DominoDetector(config).analyze(private_bundle)
    assert canonical_detections(facade.windows) == canonical_detections(
        legacy.windows
    )


# -- open_stream -----------------------------------------------------------------


def _feed_all(stream, bundle):
    for record in bundle.dci:
        stream.feed(record)
    for record in bundle.gnb_log:
        stream.feed(record)
    for record in bundle.packets:
        stream.feed(record)
    for record in bundle.webrtc_stats:
        stream.feed(record)


def test_open_stream_byte_identical_to_streaming_domino(private_bundle):
    legacy_stream = StreamingDomino(gnb_log_available=True)
    facade_stream = api.open_stream(gnb_log_available=True)
    assert isinstance(facade_stream, StreamingDomino)
    _feed_all(legacy_stream, private_bundle)
    _feed_all(facade_stream, private_bundle)
    legacy = legacy_stream.advance(private_bundle.duration_us)
    facade = facade_stream.advance(private_bundle.duration_us)
    assert canonical_detections(facade) == canonical_detections(legacy)
    # ... and both equal offline analyze over the same records.
    offline = api.analyze(private_bundle)
    assert canonical_detections(facade) == canonical_detections(
        offline.windows
    )


# -- campaign / backends ---------------------------------------------------------


def test_campaign_inline_byte_identical_to_legacy_run_campaign(outcome_bytes):
    """The removed ``run_campaign(workers=1)`` was a loop over
    ``run_scenario``; the facade's inline backend must match it."""
    from repro.fleet.executor import run_scenario

    scenarios = TINY_MATRIX.expand()
    legacy = [run_scenario(spec) for spec in scenarios]
    facade = api.campaign(TINY_MATRIX, backend=api.InlineBackend())
    assert outcome_bytes(facade) == outcome_bytes(legacy)
    # Default backend is inline.
    assert outcome_bytes(api.campaign(scenarios)) == outcome_bytes(legacy)


def test_campaign_process_pool_byte_identical(outcome_bytes):
    facade_inline = api.campaign(TINY_MATRIX)
    facade_pool = api.campaign(
        TINY_MATRIX, backend=api.ProcessPoolBackend(2)
    )
    assert outcome_bytes(facade_pool) == outcome_bytes(facade_inline)


def test_campaign_accepts_preset_name():
    from repro.fleet.scenarios import get_preset

    specs = get_preset("smoke").expand()
    expanded = api.expand_campaign("smoke")
    assert expanded == specs


def test_campaign_rejects_bad_inputs():
    with pytest.raises(ConfigError, match="backend"):
        api.campaign(TINY_MATRIX, backend="process_pool")
    with pytest.raises(ConfigError, match="campaign"):
        api.campaign([1, 2, 3])
    with pytest.raises(ConfigError, match="workers"):
        api.ProcessPoolBackend(0)
    with pytest.raises(ConfigError, match="unknown preset"):
        api.campaign("not_a_preset")  # facade wraps get_preset's KeyError


def test_cluster_backend_wires_through_coordinator(coordinator_calls):
    calls = coordinator_calls
    backend = api.ClusterBackend("127.0.0.1", 7099)
    api.campaign(TINY_MATRIX, backend=backend, fail_fast=True)
    assert calls["host"] == "127.0.0.1"
    assert calls["port"] == 7099
    assert calls["fail_fast"] is True
    assert calls["scenarios"] == TINY_MATRIX.expand()
    # The journal, auth and TLS options default to off ...
    for key in ("journal_path", "campaign_id", "auth_token", "ssl_context"):
        assert calls[key] is None, key
    # ... and reach the coordinator when set.
    tls = object()
    journaled = api.ClusterBackend(
        journal_path="camp.journal",
        campaign_id="camp-1",
        auth_token="s3cret",
        ssl_context=tls,
    )
    api.campaign(TINY_MATRIX, backend=journaled)
    assert calls["journal_path"] == "camp.journal"
    assert calls["campaign_id"] == "camp-1"
    assert calls["auth_token"] == "s3cret"
    assert calls["ssl_context"] is tls


# -- serve / snapshots -----------------------------------------------------------


def test_serve_replay_detections_byte_identical_to_analyze(
    tmp_path, private_bundle
):
    snapshot_path = str(tmp_path / "snap.json")
    collected = {}

    def sink(session_id, detections, chains, watermark_us):
        collected.setdefault(session_id, []).extend(detections)

    service = api.serve(
        [api.ReplaySource(private_bundle, session_id="s0")],
        snapshot_path=snapshot_path,
        detection_sink=sink,
    )
    final = asyncio.run(service.run())
    offline = api.analyze(private_bundle)
    assert canonical_detections(collected["s0"]) == canonical_detections(
        offline.windows
    )
    assert final.n_done == 1

    # The artifact it wrote is the canonical, version-stamped form.
    loaded = api.read_snapshot(snapshot_path)
    assert loaded.seq == final.seq
    assert json.load(open(snapshot_path))["schema"] == schema.SCHEMA_VERSION


def test_schema_mismatch_refused_at_handshake():
    """A peer speaking another payload schema is turned away at HELLO
    with the reason spelled out — not crashed on its first frame."""
    from repro.cluster.coordinator import ClusterCoordinator
    from repro.cluster.protocol import (
        BYE,
        HELLO,
        PROTOCOL_VERSION,
        read_frame,
        send_frame,
    )

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port
            )
            await send_frame(
                writer,
                HELLO,
                {"version": PROTOCOL_VERSION, "schema": 99, "role": "watch"},
            )
            frame = await read_frame(reader)
            assert frame is not None and frame.type == BYE
            assert "schema version mismatch" in frame.payload["reason"]
            writer.close()
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_read_snapshot_version_mismatch_is_clear(tmp_path):
    path = tmp_path / "snap.json"
    data = {"schema": 42}
    json.dump(data, open(path, "w"))
    with pytest.raises(SchemaVersionError, match="schema version 42 vs"):
        api.read_snapshot(path)


def test_serve_validation_is_repro_error(private_bundle):
    with pytest.raises(ReproError):
        api.serve([])
    with pytest.raises(ValueError):  # old catch style still works
        api.serve(
            [
                api.ReplaySource(private_bundle, session_id="dup"),
                api.ReplaySource(private_bundle, session_id="dup"),
            ]
        )


# -- surface -------------------------------------------------------------------


def test_api_all_resolves():
    for name in api.__all__:
        assert getattr(api, name) is not None, name
    for name in schema.__all__:
        assert getattr(schema, name) is not None, name
    for name in repro.__all__:
        assert getattr(repro, name) is not None, name


def test_version_bumped():
    assert repro.__version__ == "3.0.0"
    assert repro.SCHEMA_VERSION == schema.SCHEMA_VERSION


def test_unknown_attribute_still_raises():
    with pytest.raises(AttributeError):
        repro.definitely_not_a_name
    # The pre-2.0 top-level names were removed in 3.0.
    for name in (
        "DominoDetector",
        "DominoStats",
        "TelemetryBundle",
        "Timeline",
        "parse_chains",
    ):
        with pytest.raises(AttributeError):
            getattr(repro, name)
