"""The live multi-session RCA service (repro.live)."""

import asyncio
import pickle
import random

import pytest

from repro import api
from repro.core.detector import DominoDetector
from repro.core.stats import DominoStats
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.executor import CHAIN_SEPARATOR
from repro.fleet.scenarios import ScenarioSpec, derive_seed
from repro.live import (
    LiveAggregator,
    LiveRcaService,
    ReplaySource,
    SimSource,
    TelemetryBatch,
    canonical_detections,
    render_snapshot,
)
from repro.live.supervisor import SessionSupervisor
from repro.telemetry.columns import SCHEMAS
from repro.telemetry.io import load_bundle, save_bundle


@pytest.fixture(scope="module")
def replay_bundle(private_bundle):
    return private_bundle


def _collect_live_detections(service):
    """Tap every supervisor's detection stream (all windows, in order)."""
    per_session = {}
    for supervisor in service.supervisors:
        collected = per_session[supervisor.session_id] = []
        downstream = supervisor.on_detections

        def tap(sid, dets, chains, wm, _c=collected, _d=downstream):
            _c.extend(dets)
            _d(sid, dets, chains, wm)

        supervisor.on_detections = tap
    return per_session


def test_replay_matches_offline_byte_identical(replay_bundle):
    """The acceptance bar: replaying a recorded trace through the live
    service yields detections byte-identical to the offline detector."""
    offline = DominoDetector().analyze(replay_bundle)
    service = LiveRcaService(
        [ReplaySource(replay_bundle, session_id="s0", profile="amarisoft")]
    )
    live = _collect_live_detections(service)
    asyncio.run(service.run())
    assert canonical_detections(live["s0"]) == canonical_detections(
        offline.windows
    )


def test_replay_from_jsonl_path_matches_offline(tmp_path, replay_bundle):
    """A trace streamed from disk (``iter_chunks``, one filtered pass
    per source, no whole-file parse) detects identically to the
    in-memory bundle."""
    path = str(tmp_path / "trace.jsonl")
    save_bundle(replay_bundle, path)
    offline = DominoDetector().analyze(replay_bundle)
    source = ReplaySource(path, session_id="disk")
    assert source.gnb_log_available == replay_bundle.gnb_log_available
    assert source.duration_us == replay_bundle.duration_us
    service = LiveRcaService([source])
    live = _collect_live_detections(service)
    asyncio.run(service.run())
    assert canonical_detections(live["disk"]) == canonical_detections(
        offline.windows
    )


def test_replay_of_loaded_bundle_matches_in_memory(tmp_path, replay_bundle):
    """A column-backed bundle from load_bundle, and its pickled copy,
    replay exactly like the in-memory bundle: the heap merge builds
    their records lazily, and pickling drops the built records."""
    path = str(tmp_path / "trace.jsonl")
    save_bundle(replay_bundle, path)
    loaded = load_bundle(path)
    pickled = len(pickle.dumps(loaded))
    restored = pickle.loads(pickle.dumps(loaded))
    service = api.serve(
        [
            ReplaySource(replay_bundle, session_id="memory"),
            ReplaySource(loaded, session_id="loaded"),
            ReplaySource(restored, session_id="pickled"),
        ]
    )
    live = _collect_live_detections(service)
    asyncio.run(service.run())
    expected = canonical_detections(live["memory"])
    assert expected
    assert canonical_detections(live["loaded"]) == expected
    assert canonical_detections(live["pickled"]) == expected
    assert len(pickle.dumps(loaded)) == pickled


#: (workload seed, scenario name) of busy-cell bundles pinned live ==
#: offline: 6 s calls on the commercial FDD cell, named and seeded as
#: perfbench's live_replay set-up names and seeds them, so
#: ``live/busy_6s_b`` at seed 4 is the bundle perfbench left out.
BUSY_BUNDLES = (
    (1, "perfbench/live/busy_6s"),
    (4, "perfbench/live/busy_6s_b"),
    (7, "perfbench/live/busy_6s"),
    (7919, "perfbench/live/busy_6s_b"),
)


def test_busy_cell_replays_match_offline_byte_identical():
    """Busy-cell bundles, the heaviest live feeds, replay through
    api.serve to detections byte-identical to offline analysis."""
    bundles = {}
    for seed, name in BUSY_BUNDLES:
        spec = ScenarioSpec(
            name=name,
            profile="tmobile_fdd",
            seed=derive_seed(seed, name),
            duration_s=6.0,
        )
        bundles[f"{name}@{seed}"] = spec.build_session().run(
            spec.duration_us
        ).bundle
    service = api.serve(
        [
            ReplaySource(bundle, session_id=key)
            for key, bundle in bundles.items()
        ]
    )
    live = _collect_live_detections(service)
    asyncio.run(service.run())
    for key, bundle in bundles.items():
        offline = DominoDetector().analyze(bundle)
        assert offline.windows, key
        assert canonical_detections(live[key]) == canonical_detections(
            offline.windows
        ), key


class _ShuffledReplay(ReplaySource):
    """Replay with rows shuffled inside each batch (out-of-order
    delivery within a watermark, as real multi-source feeds produce)."""

    async def batches(self):
        rng = random.Random(11)
        async for batch in super().batches():
            for schema in SCHEMAS.values():
                rows = getattr(batch, schema.source)
                order = list(range(len(rows)))
                rng.shuffle(order)
                setattr(batch, schema.source, rows.take(order))
            yield batch


def test_out_of_order_feed_matches_offline(replay_bundle):
    offline = DominoDetector().analyze(replay_bundle)
    service = LiveRcaService(
        [_ShuffledReplay(replay_bundle, session_id="ooo")]
    )
    live = _collect_live_detections(service)
    asyncio.run(service.run())
    assert canonical_detections(live["ooo"]) == canonical_detections(
        offline.windows
    )


# -- backpressure ----------------------------------------------------------------


class _ScriptedSource:
    """A source that emits pre-built batches back to back."""

    def __init__(self, batch_list, session_id="scripted"):
        self._batches = batch_list
        self.session_id = session_id
        self.profile = "scripted"
        self.impairment = "none"
        self.gnb_log_available = False

    async def batches(self):
        for batch in self._batches:
            yield batch


def _record_batches(bundle, batch_us, duration_us):
    """Slice a bundle's rows into watermarked batches, final last."""

    def batch(start_us, end_us, watermark_us):
        parts = {}
        for schema in SCHEMAS.values():
            rows = getattr(bundle, schema.source)
            times = rows.times
            parts[schema.source] = rows.take(
                (times >= start_us) & (times < end_us)
            )
        return TelemetryBatch(**parts, watermark_us=watermark_us)

    last_us = max(
        getattr(bundle, schema.source).times.max(initial=0)
        for schema in SCHEMAS.values()
    )
    batches = []
    cursor = batch_us
    while cursor <= last_us:
        batches.append(batch(cursor - batch_us, cursor, cursor))
        cursor += batch_us
    batches.append(batch(cursor - batch_us, last_us + 1, duration_us))
    return batches


def test_drop_oldest_backpressure_counts_lag(replay_bundle):
    """With a tiny queue and a free-running pump, drop-oldest discards
    the oldest batches and accounts every dropped record as lag."""
    batches = _record_batches(
        replay_bundle, 1_000_000, replay_bundle.duration_us
    )
    total_records = sum(b.n_records for b in batches)
    supervisor = SessionSupervisor(
        _ScriptedSource(batches),
        queue_batches=2,
        backpressure="drop_oldest",
    )
    asyncio.run(supervisor.run())
    # The pump floods the queue in one task slice; everything that did
    # not fit in 2 slots (plus the end-of-feed sentinel) was dropped.
    assert supervisor.lag_events > 0
    assert supervisor.lag_events < total_records
    snapshot = _final_session_snapshot(supervisor)
    assert snapshot.lag_events == supervisor.lag_events


def test_drop_oldest_still_flushes_tail_windows(replay_bundle):
    """Even when the final batch itself is dropped by backpressure, the
    end-of-feed flush advances to the feed's last watermark so tail
    windows emit (with whatever records survived)."""
    offline = DominoDetector().analyze(replay_bundle)
    batches = _record_batches(
        replay_bundle, 1_000_000, replay_bundle.duration_us
    )
    supervisor = SessionSupervisor(
        _ScriptedSource(batches),
        queue_batches=1,  # worst case: every enqueue evicts
        backpressure="drop_oldest",
    )
    asyncio.run(supervisor.run())
    assert supervisor.lag_events > 0
    assert supervisor.watermark_us == replay_bundle.duration_us
    assert supervisor.stream.windows_emitted == len(offline.windows)


def test_block_backpressure_never_drops(replay_bundle):
    batches = _record_batches(
        replay_bundle, 1_000_000, replay_bundle.duration_us
    )
    supervisor = SessionSupervisor(
        _ScriptedSource(batches), queue_batches=2, backpressure="block"
    )
    asyncio.run(supervisor.run())
    assert supervisor.lag_events == 0
    assert supervisor.watermark_us == replay_bundle.duration_us


def _final_session_snapshot(supervisor):
    loop = asyncio.new_event_loop()
    try:
        return supervisor.snapshot(loop.time())
    finally:
        loop.close()


def test_rejects_unknown_backpressure(replay_bundle):
    with pytest.raises(ValueError):
        SessionSupervisor(
            _ScriptedSource([]), backpressure="drop_newest"
        )


# -- idle eviction ---------------------------------------------------------------


class _StallingSource:
    """Emits one batch, then hangs forever (a wedged collector)."""

    session_id = "stalled"
    profile = "scripted"
    impairment = "none"
    gnb_log_available = False

    async def batches(self):
        yield TelemetryBatch(watermark_us=1_000_000)
        await asyncio.sleep(3600)


def test_idle_session_evicted(replay_bundle):
    """A wedged feed is evicted after idle_timeout_s; healthy sessions
    finish and the service returns instead of hanging."""
    service = LiveRcaService(
        [
            ReplaySource(replay_bundle, session_id="healthy"),
            _StallingSource(),
        ],
        snapshot_every_s=0.05,
        idle_timeout_s=0.2,
    )
    final = asyncio.run(asyncio.wait_for(service.run(), timeout=30))
    states = {s.session_id: s.state for s in final.sessions}
    assert states["healthy"] == "done"
    assert states["stalled"] == "evicted"
    assert final.n_evicted == 1
    assert final.n_done == 1


# -- incremental aggregation -------------------------------------------------------


def test_live_aggregator_matches_batch_stats(replay_bundle):
    """Feeding windows one at a time gives the same episode counts as
    the offline DominoStats batch pass over the full report."""
    report = DominoDetector().analyze(replay_bundle)
    stats = DominoStats.from_report(report)

    aggregator = LiveAggregator()
    aggregator.register("s", profile="amarisoft")
    for window in report.windows:  # one window per update: worst case
        aggregator.update("s", [window], report.chains)
    aggregator.note_watermark("s", replay_bundle.duration_us)

    outcome = aggregator.session_outcomes()[0]
    expected_chains = {
        CHAIN_SEPARATOR.join(chain): count
        for chain, count in stats.chain_episode_counts().items()
    }
    assert outcome.chain_counts == expected_chains
    assert outcome.cause_counts == {
        kind.value: count
        for kind, count in stats.cause_episode_counts().items()
        if count
    }
    assert outcome.consequence_counts == {
        kind.value: count
        for kind, count in stats.consequence_episode_counts().items()
        if count
    }
    assert outcome.degradation_events_per_min == pytest.approx(
        stats.degradation_events_per_min()
    )


def test_live_aggregator_chunked_equals_windowed(replay_bundle):
    """Arbitrary update batch boundaries don't change the rollup."""
    report = DominoDetector().analyze(replay_bundle)
    one = LiveAggregator()
    one.register("s")
    for window in report.windows:
        one.update("s", [window], report.chains)
    chunked = LiveAggregator()
    chunked.register("s")
    for start in range(0, len(report.windows), 4):
        chunked.update(
            "s", report.windows[start : start + 4], report.chains
        )
    assert (
        one.session_outcomes()[0].chain_counts
        == chunked.session_outcomes()[0].chain_counts
    )
    assert (
        one.session_outcomes()[0].cause_counts
        == chunked.session_outcomes()[0].cause_counts
    )


def test_live_fleet_matches_fleet_aggregate(replay_bundle):
    """The live rollup and the offline FleetAggregate agree on fleet
    tables built from the same detections."""
    report = DominoDetector().analyze(replay_bundle)
    aggregator = LiveAggregator()
    for sid in ("a", "b"):
        aggregator.register(sid, profile="amarisoft")
        aggregator.update(sid, report.windows, report.chains)
        aggregator.note_watermark(sid, replay_bundle.duration_us)
    live_fleet = aggregator.fleet()
    batch_fleet = FleetAggregate.from_outcomes(
        aggregator.session_outcomes()
    )
    assert live_fleet.top_chains() == batch_fleet.top_chains()
    assert live_fleet.chain_frequency_table(
        "profile"
    ) == batch_fleet.chain_frequency_table("profile")
    assert live_fleet.total_minutes == pytest.approx(
        batch_fleet.total_minutes
    )


def test_fleet_aggregate_update_equals_from_outcomes(replay_bundle):
    """Incremental FleetAggregate.update == batch from_outcomes."""
    report = DominoDetector().analyze(replay_bundle)
    aggregator = LiveAggregator()
    for index, profile in enumerate(("amarisoft", "tmobile_fdd")):
        sid = f"s{index}"
        aggregator.register(sid, profile=profile)
        aggregator.update(sid, report.windows, report.chains)
        aggregator.note_watermark(sid, replay_bundle.duration_us)
    outcomes = aggregator.session_outcomes()
    incremental = FleetAggregate()
    for outcome in outcomes:
        incremental.update(outcome)
    batch = FleetAggregate.from_outcomes(outcomes)
    for group_by in ("profile", "impairment"):
        assert incremental.chain_frequency_table(
            group_by
        ) == batch.chain_frequency_table(group_by)
        assert incremental.cause_frequency_table(
            group_by
        ) == batch.cause_frequency_table(group_by)
    assert incremental.top_chains() == batch.top_chains()
    assert incremental.groups("profile") == batch.groups("profile")


# -- scale -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def short_bundle():
    from repro.datasets.cells import AMARISOFT
    from repro.datasets.runner import make_cellular_session

    session = make_cellular_session(AMARISOFT, seed=7)
    return session.run(8_000_000).bundle


def test_64_concurrent_replay_sessions(short_bundle):
    """Acceptance: a 64-session replay campaign completes on one core,
    with per-session realtime factor and lag in the final snapshot."""
    sources = [
        ReplaySource(
            short_bundle, session_id=f"s{i:02d}", profile="amarisoft"
        )
        for i in range(64)
    ]
    service = LiveRcaService(sources, snapshot_every_s=0.5)
    final = asyncio.run(asyncio.wait_for(service.run(), timeout=120))
    assert final.n_sessions == 64
    assert final.n_done == 64
    assert len(final.sessions) == 64
    for session in final.sessions:
        assert session.watermark_s == pytest.approx(8.0)
        assert session.realtime_factor > 0
        assert session.lag_events == 0
    assert final.windows == 64 * 7  # 7 windows per 8 s session
    assert final.total_minutes == pytest.approx(64 * 8 / 60.0)


# -- SimSource ----------------------------------------------------------------------


def test_sim_source_drives_session_live():
    spec = ScenarioSpec(
        name="live-sim", profile="wired", seed=3, duration_s=8.0
    )
    service = LiveRcaService([SimSource(spec)])
    final = asyncio.run(asyncio.wait_for(service.run(), timeout=60))
    session = final.sessions[0]
    assert session.state == "done"
    assert session.watermark_s == pytest.approx(8.0)
    assert session.windows == 7


def test_sim_source_detects_impaired_cell():
    from repro.fleet.scenarios import ImpairmentSpec

    spec = ScenarioSpec(
        name="live-sim-cell",
        profile="amarisoft",
        seed=5,
        duration_s=10.0,
        impairment=ImpairmentSpec(
            name="ul_fade", ul_fades=((3.0, 1.5, 20.0),)
        ),
    )
    service = LiveRcaService([SimSource(spec)])
    final = asyncio.run(asyncio.wait_for(service.run(), timeout=60))
    assert final.sessions[0].state == "done"
    assert final.windows == 11
    assert final.detected_windows > 0
    assert final.top_chains  # the fade shows up in the rollup


#: (profile, impairment) of the 10 s scenarios pinned live == offline.
SIM_SCENARIOS = (
    ("wired", None),
    ("tmobile_fdd", None),
    ("tmobile_tdd", None),
    ("amarisoft", ("ul_fade", ((3.0, 1.5, 20.0),))),
)


@pytest.mark.parametrize(
    "profile, impairment",
    SIM_SCENARIOS,
    ids=[profile for profile, _ in SIM_SCENARIOS],
)
def test_sim_source_matches_offline(profile, impairment):
    """A call simulated live, its telemetry drained from the collector
    as it runs, detects exactly like offline analysis of the same
    scenario's bundle."""
    from repro.fleet.scenarios import ImpairmentSpec

    spec = ScenarioSpec(
        name=f"live-vs-offline-{profile}",
        profile=profile,
        seed=5,
        duration_s=10.0,
        impairment=(
            ImpairmentSpec(name=impairment[0], ul_fades=impairment[1])
            if impairment
            else ImpairmentSpec()
        ),
    )
    service = api.serve([SimSource(spec)], backpressure="block")
    live = _collect_live_detections(service)
    asyncio.run(asyncio.wait_for(service.run(), timeout=120))
    bundle = spec.build_session().run(spec.duration_us).bundle
    offline = api.analyze(bundle)
    assert len(offline.windows) == 11
    assert canonical_detections(live[spec.name]) == canonical_detections(
        offline.windows
    )


# -- snapshots ----------------------------------------------------------------------


def test_snapshot_roundtrip_and_dashboard(tmp_path, short_bundle):
    from repro.live.aggregator import FleetSnapshot

    path = str(tmp_path / "snap.json")
    service = LiveRcaService(
        [ReplaySource(short_bundle, session_id="s0", profile="amarisoft")],
        snapshot_path=path,
    )
    final = asyncio.run(service.run())
    import json

    with open(path) as handle:
        loaded = FleetSnapshot.from_json(json.load(handle))
    assert loaded.n_sessions == final.n_sessions
    assert loaded.windows == final.windows
    assert [s.session_id for s in loaded.sessions] == ["s0"]
    text = render_snapshot(loaded)
    assert "live fleet" in text
    assert "s0" in text
    assert "rtf" in text


class _PacedSource:
    """Ten empty batches, 30 ms apart: a feed spanning many ticks."""

    session_id = "paced"
    profile = "scripted"
    impairment = "none"
    gnb_log_available = False

    async def batches(self):
        for i in range(1, 11):
            await asyncio.sleep(0.03)
            yield TelemetryBatch(watermark_us=i * 100_000)


def test_snapshot_publish_survives_missing_directory(tmp_path):
    """A snapshot path whose directory is missing costs the failed
    publishes (logged and counted), not the housekeeping loop: once the
    directory appears, the next tick's snapshot lands."""
    from repro.obs.metrics import get_registry

    path = tmp_path / "later" / "snap.json"
    errors = get_registry().counter("repro_snapshot_publish_errors_total")
    errors_before = errors.value(sink="file")
    landed = []

    def on_snapshot(snapshot):
        landed.append(path.exists())
        path.parent.mkdir(exist_ok=True)

    service = LiveRcaService(
        [_PacedSource()],
        snapshot_every_s=0.02,
        snapshot_path=str(path),
        on_snapshot=on_snapshot,
    )
    final = asyncio.run(asyncio.wait_for(service.run(), timeout=30))
    assert landed[0] is False
    assert errors.value(sink="file") == errors_before + 1
    # A housekeeping tick, not only the final snapshot, wrote the file.
    assert any(landed[1:-1])
    assert api.read_snapshot(str(path)).seq == final.seq


def test_duplicate_session_ids_rejected(short_bundle):
    with pytest.raises(ValueError):
        LiveRcaService(
            [
                ReplaySource(short_bundle, session_id="dup"),
                ReplaySource(short_bundle, session_id="dup"),
            ]
        )


# -- watch --follow trend view ---------------------------------------------------


def _fake_snapshot(seq, windows, detected, chain_totals):
    from repro.live.aggregator import FleetSnapshot

    return FleetSnapshot(
        seq=seq,
        wall_s=float(seq),
        n_sessions=1,
        n_running=1,
        n_done=0,
        n_evicted=0,
        n_failed=0,
        total_minutes=seq / 60.0,
        windows=windows,
        detected_windows=detected,
        lag_events=0,
        degradation_events_per_min=0.0,
        chain_totals=chain_totals,
    )


def test_snapshot_history_ring_is_bounded():
    from repro.live.dashboard import SnapshotHistory

    history = SnapshotHistory(maxlen=3)
    for seq in range(5):
        history.add(_fake_snapshot(seq, seq, 0, {}))
    assert len(history) == 3
    assert [s.seq for s in history] == [2, 3, 4]
    assert history.latest.seq == 4
    with pytest.raises(ValueError):
        SnapshotHistory(maxlen=1)


def test_render_trend_deltas_and_sparklines():
    from repro.live.dashboard import SnapshotHistory, render_trend, sparkline

    assert sparkline([]) == ""
    assert sparkline([0.0, 0.0]) == "▁▁"
    line = sparkline([0, 1, 2, 4])
    assert len(line) == 4 and line[-1] == "█"

    history = SnapshotHistory()
    history.add(_fake_snapshot(1, 10, 2, {"a --> b": 1}))
    assert "waiting" in render_trend(history)
    history.add(_fake_snapshot(2, 14, 3, {"a --> b": 3, "c --> d": 1}))
    history.add(_fake_snapshot(3, 20, 5, {"a --> b": 4, "c --> d": 1}))
    text = render_trend(history)
    assert "Trend (last 3 snapshots" in text
    assert "+6 last" in text  # windows delta 14→20
    assert "a --> b" in text and "(4 episodes)" in text
    assert "c --> d" in text
    assert any(ch in text for ch in "▁▂▃▄▅▆▇█")


def test_fleet_snapshot_chain_totals_roundtrip(short_bundle):
    """chain_totals ride snapshots (and their JSON round-trip), feeding
    the trend view the raw counts rates cannot provide."""
    from repro.live.aggregator import FleetSnapshot

    service = LiveRcaService(
        [ReplaySource(short_bundle, session_id="s0", profile="amarisoft")]
    )
    final = asyncio.run(service.run())
    assert final.chain_totals == {
        chain: count
        for chain, count in sorted(
            service.aggregator.fleet().fleet_chain_totals().items()
        )
    }
    loaded = FleetSnapshot.from_json(final.to_json())
    assert loaded.chain_totals == final.chain_totals


def test_a_finished_service_is_freed_without_the_cycle_collector(
    replay_bundle,
):
    """No reference cycle outlives run(): dropping the service frees its
    sessions at once, not at the next full cyclic collection."""
    import gc
    import weakref

    service = LiveRcaService(
        [ReplaySource(replay_bundle, session_id="s0", profile="amarisoft")]
    )
    asyncio.run(service.run())
    refs = [weakref.ref(service), weakref.ref(service.supervisors[0].stream)]
    gc.disable()
    try:
        del service
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
