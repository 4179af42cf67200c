"""The distributed cluster (repro.cluster): protocol, planes, chaos."""

import asyncio
import json
import logging
import math
import random
import socket

import pytest

from repro import api, schema
from repro.cluster import (
    ClusterCoordinator,
    ClusterWorker,
    CoordinatorControl,
    DetectionForwarder,
    iter_snapshots,
    replay_journal,
)
from repro.cluster import protocol
from repro.cluster.journal import CAMPAIGN_CLOSED, OUTCOME_SETTLED
from repro.cluster.protocol import (
    ACK,
    BYE,
    CANCEL,
    DETECTION,
    DISPATCH,
    FETCH,
    FRAME_TYPES,
    Frame,
    HEARTBEAT,
    HELLO,
    MAX_FRAME_BYTES,
    OUTCOME,
    PROTOCOL_VERSION,
    SNAPSHOT,
    STATUS,
    SUBMIT,
    decode_frame,
    encode_frame,
    hello_payload,
    read_frame,
    send_frame,
)
from repro.core.detector import DetectorConfig, DominoDetector, WindowDetection
from repro.errors import ClusterError, ClusterProtocolError, SchemaError
from repro.fleet.scenarios import ImpairmentSpec, ScenarioMatrix, ScenarioSpec
from repro.live.service import LiveRcaService, canonical_detections
from repro.live.sources import ReplaySource
from repro.obs.metrics import get_registry
from repro.store import RcaStore

#: Four 8 s scenarios across two cells — enough for every worker to see
#: work and for a killed worker to leave scenarios behind.
_MATRIX = ScenarioMatrix(
    name="cluster",
    profiles=("tmobile_fdd", "amarisoft"),
    durations_s=(8.0,),
    repetitions=2,
)


@pytest.fixture(scope="module")
def scenarios():
    return _MATRIX.expand()


@pytest.fixture(scope="module")
def local_outcomes(scenarios):
    return api.campaign(scenarios)


# -- frame protocol ------------------------------------------------------------


def test_frame_roundtrip_all_types():
    payloads = {
        HELLO: {"version": PROTOCOL_VERSION, "role": "worker", "slots": 4},
        HEARTBEAT: {"t": 12.5},
        DISPATCH: {"index": 3, "spec": {"name": "s"}},
        OUTCOME: {"index": 3, "outcome": {"scenario": "s"}},
        DETECTION: {"session_id": "x", "detections": [], "chains": []},
        SNAPSHOT: {"snapshot": {"seq": 1}},
        SUBMIT: {"req": 1, "scenarios": []},
        STATUS: {"req": 2},
        CANCEL: {"req": 3, "campaign_id": "c"},
        FETCH: {"req": 4, "campaign_id": "c"},
        ACK: {"req": 1, "ok": True},
        BYE: {"reason": "done"},
    }
    assert set(payloads) == set(FRAME_TYPES)
    for frame_type, payload in payloads.items():
        wire = encode_frame(Frame(frame_type, payload))
        decoded = decode_frame(wire[protocol.LENGTH_BYTES :])
        assert decoded == Frame(frame_type, payload)


def test_frame_floats_roundtrip_bit_exact():
    values = [0.1 + 0.2, 1e-300, math.pi, float("nan"), -0.0]
    wire = encode_frame(Frame(HEARTBEAT, {"v": values}))
    out = decode_frame(wire[protocol.LENGTH_BYTES :]).payload["v"]
    assert [repr(v) for v in out] == [repr(v) for v in values]


def test_decode_frame_fuzz_rejects_garbage():
    rng = random.Random(0)
    for _ in range(300):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(64)))
        with pytest.raises(ClusterProtocolError):
            decode_frame(blob)


def test_decode_frame_rejects_wrong_shapes():
    for body in (b"[1,2]", b'"HELLO"', b'{"type":"NOPE"}',
                 b'{"type":"HELLO","payload":[]}'):
        with pytest.raises(ClusterProtocolError):
            decode_frame(body)


def _reader_for(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def test_read_frame_stream_semantics():
    async def main():
        # Clean EOF at a boundary → None.
        assert await read_frame(_reader_for(b"")) is None
        # Two concatenated frames stream in order, then EOF.
        wire = encode_frame(Frame(HELLO, {"version": 1})) + encode_frame(
            Frame(BYE, {})
        )
        reader = _reader_for(wire)
        assert (await read_frame(reader)).type == HELLO
        assert (await read_frame(reader)).type == BYE
        assert await read_frame(reader) is None
        # Truncated length prefix / truncated body / oversized length.
        with pytest.raises(ClusterProtocolError):
            await read_frame(_reader_for(b"\x00\x00"))
        with pytest.raises(ClusterProtocolError):
            await read_frame(
                _reader_for((10).to_bytes(4, "big") + b"12345")
            )
        with pytest.raises(ClusterProtocolError):
            await read_frame(
                _reader_for(
                    (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}"
                )
            )

    asyncio.run(main())


def test_read_frame_fuzz_never_hangs():
    """Arbitrary byte chunks either parse or raise — no hang, no crash."""
    rng = random.Random(1)
    wire = encode_frame(Frame(HEARTBEAT, {"t": 1.0}))

    async def feed(blob):
        reader = _reader_for(blob)
        while True:
            try:
                if await read_frame(reader) is None:
                    return
            except ClusterProtocolError:
                return

    async def main():
        for _ in range(100):
            cut = rng.randrange(len(wire) + 1)
            blob = wire[:cut] + bytes(
                rng.randrange(256) for _ in range(rng.randrange(16))
            )
            await asyncio.wait_for(feed(blob), timeout=5)

    asyncio.run(main())


def test_spec_and_config_codecs_roundtrip(scenarios):
    spec = ScenarioSpec(
        name="codec",
        profile="tmobile_fdd",
        seed=7,
        duration_s=9.5,
        impairment=ImpairmentSpec(
            name="mix",
            rrc_releases_s=(1.0, 2.5),
            ul_fades=((1.0, 0.5, 10.0),),
            dl_bursts=((2.0, 1.0, 120),),
            pushback_enabled=False,
        ),
    )
    # Through actual JSON text, as the wire does.
    data = json.loads(json.dumps(schema.scenario_spec_to_wire(spec)))
    assert schema.scenario_spec_from_wire(data) == spec

    config = DetectorConfig(window_us=4_000_000, step_us=250_000)
    data = json.loads(json.dumps(schema.detector_config_to_wire(config)))
    assert schema.detector_config_from_wire(data) == config
    assert schema.detector_config_from_wire(None) is None

    detection = WindowDetection(
        start_us=0,
        end_us=5_000_000,
        features={"a": 1.5, "b": float("nan")},
        consequences=["x"],
        causes=["y"],
        chain_ids=[0, 2],
    )
    data = json.loads(json.dumps(schema.detections_to_wire([detection])))
    [back] = schema.detections_from_wire(data)
    assert canonical_detections([back]) == canonical_detections([detection])

    chains = [("a", "b"), ("c",)]
    assert (
        schema.chains_from_wire(
            json.loads(json.dumps(schema.chains_to_wire(chains)))
        )
        == chains
    )


def test_malformed_spec_and_batch_rejected():
    with pytest.raises(SchemaError):
        schema.scenario_spec_from_wire({"name": "x"})
    with pytest.raises(SchemaError):
        schema.detections_from_wire([{"nope": 1}])


# -- batch plane ---------------------------------------------------------------


def test_cluster_campaign_byte_identical_to_local(
    scenarios, local_outcomes, outcome_bytes, with_cluster, two_workers
):
    """The acceptance bar: loopback workers produce outcomes
    byte-identical to single-host execution, in scenario order."""
    outcomes = asyncio.run(
        with_cluster(two_workers, lambda c: c.run_campaign(scenarios))
    )
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)


class _DyingWorker(ClusterWorker):
    """Takes its first dispatch, then drops dead without answering."""

    async def _handle_dispatch(self, payload):
        self._writer.transport.abort()


def test_worker_killed_mid_campaign_requeues(
    scenarios, local_outcomes, outcome_bytes, with_cluster
):
    """Chaos: a worker that dies holding a scenario costs nothing — the
    coordinator requeues its in-flight work (excluding the dead worker)
    and the final aggregate is byte-identical to a single-host run."""

    def workers(port):
        return [
            ClusterWorker("127.0.0.1", port, slots=1, name="survivor"),
            _DyingWorker("127.0.0.1", port, slots=1, name="victim"),
        ]

    async def run(coordinator):
        outcomes = await coordinator.run_campaign(scenarios)
        return outcomes, coordinator.requeues

    outcomes, requeues = asyncio.run(with_cluster(workers, run))
    assert requeues >= 1
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)


class _CorruptWorker(ClusterWorker):
    """Answers every dispatch with a malformed OUTCOME payload (valid
    campaign echo, unparseable outcome body)."""

    async def _run_one(self, payload):
        await self._send(
            OUTCOME,
            {
                "campaign": payload.get("campaign"),
                "index": payload.get("index"),
                "outcome": {"nope": 1},
            },
        )


def test_malformed_outcome_requeues_not_loses(
    scenarios, local_outcomes, outcome_bytes, with_cluster
):
    """A worker answering garbage is dropped and its scenario requeued
    (parsed-before-settled), so the campaign still completes exactly."""

    def workers(port):
        return [
            ClusterWorker("127.0.0.1", port, slots=1, name="survivor"),
            _CorruptWorker("127.0.0.1", port, slots=1, name="corrupt"),
        ]

    async def run(coordinator):
        outcomes = await coordinator.run_campaign(scenarios)
        return outcomes, coordinator.requeues

    outcomes, requeues = asyncio.run(with_cluster(workers, run))
    assert requeues >= 1
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)


def test_malformed_detection_frame_does_not_kill_live_fold():
    """One bad live-plane frame (wrong watermark type) is dropped and
    counted; the fold keeps serving later well-formed frames."""
    rejected = get_registry().counter("repro_cluster_rejected_total")
    rejected_before = rejected.value(what="detection_frame")

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
                {"version": PROTOCOL_VERSION, "role": "live"},
            )
            assert (await read_frame(reader)).type == HELLO
            await send_frame(
                writer,
                DETECTION,
                {
                    "session_id": "s0",
                    "detections": [],
                    "chains": [],
                    "watermark_us": "not-a-number",
                },
            )
            await send_frame(
                writer,
                DETECTION,
                {
                    "session_id": "s0",
                    "profile": "p",
                    "detections": [],
                    "chains": [],
                    "watermark_us": 2_000_000,
                },
            )
            for _ in range(500):
                outcomes = coordinator.live.session_outcomes()
                if outcomes and outcomes[0].duration_s == 2.0:
                    break
                await asyncio.sleep(0.01)
            [outcome] = coordinator.live.session_outcomes()
            assert outcome.duration_s == 2.0
            assert outcome.profile == "p"
            assert rejected.value(what="detection_frame") == (
                rejected_before + 1
            )
            writer.close()
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_scenario_error_reported_not_fatal(with_cluster):
    """A scenario that raises on the worker comes back as a campaign
    error (scenario name included), not a dead worker."""
    bad = ScenarioSpec(
        name="bad",
        profile="wired",
        seed=1,
        duration_s=8.0,
        # RAN-only impairment on a baseline profile → build_session
        # raises on the worker.
        impairment=ImpairmentSpec(name="fade", ul_fades=((1.0, 0.5, 10.0),)),
    )

    def workers(port):
        return [ClusterWorker("127.0.0.1", port, slots=1)]

    with pytest.raises(ClusterError, match="bad"):
        asyncio.run(
            with_cluster(workers, lambda c: c.run_campaign([bad]))
        )


def test_sequential_campaigns_on_one_coordinator(
    scenarios, local_outcomes, outcome_bytes, with_cluster
):
    """A standing coordinator serves campaigns back to back; each gets
    its own epoch, so nothing leaks across."""

    def workers(port):
        return [ClusterWorker("127.0.0.1", port, slots=2, name="w")]

    async def run(coordinator):
        first = await coordinator.run_campaign(scenarios[:2])
        second = await coordinator.run_campaign(scenarios[2:])
        return first, second

    first, second = asyncio.run(with_cluster(workers, run))
    assert outcome_bytes(first + second) == outcome_bytes(local_outcomes)


def _campaign_with_threaded_worker(scenarios, **backend_kwargs):
    """``api.campaign`` on a loopback :class:`ClusterBackend`, with one
    worker (on its own thread and event loop) joining the address the
    backend announces."""
    import threading

    address = {}
    listening = threading.Event()

    def on_listening(host, port):
        address["host"], address["port"] = host, port
        listening.set()

    def serve_worker():
        listening.wait(timeout=60)

        async def _run():
            worker = ClusterWorker(
                address["host"],
                address["port"],
                slots=2,
                connect_timeout_s=60,
            )
            await worker.run()

        asyncio.run(_run())

    thread = threading.Thread(target=serve_worker, daemon=True)
    thread.start()
    outcomes = api.campaign(
        scenarios,
        backend=api.ClusterBackend(
            port=0, on_listening=on_listening, **backend_kwargs
        ),
    )
    thread.join(timeout=60)
    assert not thread.is_alive()  # the worker left with the coordinator
    return outcomes


def test_run_campaign_cluster_dispatch_api(
    scenarios, local_outcomes, outcome_bytes
):
    """`api.campaign(backend=ClusterBackend(...))` is API-compatible:
    same call site, workers join the announced address, identical
    outcomes."""
    outcomes = _campaign_with_threaded_worker(scenarios)
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)


def test_one_worker_cluster_backend_returns_once_settled(
    monkeypatch, scenarios, local_outcomes, outcome_bytes
):
    """A one-worker ``ClusterBackend`` campaign hands its outcomes back
    as soon as the campaign settles: the one-shot coordinator starts
    closing right after, with nothing waiting on further workers."""
    import time

    stamps = {}
    finalize = ClusterCoordinator._finalize
    close = ClusterCoordinator.close

    async def timed_finalize(self, campaign, reason):
        await finalize(self, campaign, reason)
        stamps["settled"] = time.monotonic()

    async def timed_close(self):
        stamps["closing"] = time.monotonic()
        await close(self)

    monkeypatch.setattr(ClusterCoordinator, "_finalize", timed_finalize)
    monkeypatch.setattr(ClusterCoordinator, "close", timed_close)
    outcomes = _campaign_with_threaded_worker(scenarios[:1])
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes[:1])
    assert 0.0 <= stamps["closing"] - stamps["settled"] < 1.0


def test_journaled_cluster_backend_rerun_replays_without_workers(
    tmp_path, scenarios, local_outcomes, outcome_bytes
):
    """A ``ClusterBackend(journal_path=...)`` campaign settles into its
    journal; after a crash that lost only the close record, rerunning
    it on the same journal with no worker at all replays byte-identical
    outcomes."""
    journal_path = str(tmp_path / "backend.journal")
    first = _campaign_with_threaded_worker(
        scenarios[:2], journal_path=journal_path
    )
    assert outcome_bytes(first) == outcome_bytes(local_outcomes[:2])
    assert len(_settled_pairs(journal_path)) == 2
    # The journal is a prefix of the truth after any crash: drop the
    # trailing close record, as a coordinator killed after the last
    # settle would leave it.
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    assert json.loads(lines[-1])["type"] == CAMPAIGN_CLOSED
    with open(journal_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:-1])
    # No worker joins: a rerun that dispatched anything would never
    # settle.
    import threading

    again = []
    rerun = threading.Thread(
        target=lambda: again.extend(
            api.campaign(
                scenarios[:2],
                backend=api.ClusterBackend(journal_path=journal_path),
            )
        ),
        daemon=True,
    )
    rerun.start()
    rerun.join(timeout=5.0)
    assert not rerun.is_alive()
    assert outcome_bytes(again) == outcome_bytes(first)
    assert len(_settled_pairs(journal_path)) == 2


def test_version_mismatch_refused():
    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port
            )
            await send_frame(
                writer, HELLO, {"version": 999, "role": "worker"}
            )
            frame = await read_frame(reader)
            assert frame is not None and frame.type == BYE
            assert "version" in frame.payload["reason"]
            assert await read_frame(reader) is None  # server hung up
            writer.close()
        finally:
            await coordinator.close()

    asyncio.run(main())


# -- live plane ----------------------------------------------------------------


def _tally_fields(outcome):
    return (
        outcome.scenario,
        outcome.n_windows,
        outcome.n_detected_windows,
        outcome.chain_counts,
        outcome.cause_counts,
        outcome.consequence_counts,
    )


def test_forwarder_mirrors_live_service_to_coordinator(private_bundle):
    """A live service forwarding over the socket leaves the central
    aggregator with exactly the tallies the local aggregator has."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        try:
            forwarder = DetectionForwarder("127.0.0.1", coordinator.port)
            await forwarder.start()
            forwarder.register("s0", "amarisoft", "none")
            service = LiveRcaService(
                [
                    ReplaySource(
                        private_bundle,
                        session_id="s0",
                        profile="amarisoft",
                    )
                ],
                detection_sink=forwarder.sink,
            )
            await service.run()
            await forwarder.close()  # flushes the send queue
            local = service.aggregator.session_outcomes()[0]
            for _ in range(500):  # wait out the coordinator's fold task
                remote = coordinator.live.session_outcomes()
                if remote and _tally_fields(remote[0]) == _tally_fields(
                    local
                ):
                    break
                await asyncio.sleep(0.01)
            [remote] = coordinator.live.session_outcomes()
            assert _tally_fields(remote) == _tally_fields(local)
            assert remote.profile == "amarisoft"
            # And the offline detector agrees the session had activity.
            offline = DominoDetector().analyze(private_bundle)
            assert remote.n_detected_windows == len(
                offline.windows_with_detections()
            )
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_forwarder_close_survives_dead_coordinator():
    """close() must stay bounded when the coordinator died mid-session
    and the send queue is full — shed-put sentinel, no deadlock."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        forwarder = DetectionForwarder(
            "127.0.0.1", coordinator.port, queue_frames=4
        )
        await forwarder.start()
        await coordinator.close()
        await asyncio.sleep(0.05)  # let the sender hit the dead socket
        for i in range(20):  # keep the queue topped up past its bound
            forwarder.sink(f"s{i}", [], [], 1_000)
        await asyncio.wait_for(forwarder.close(), timeout=15)

    asyncio.run(main())


def _windows(n):
    """*n* one-chain detections, a second apart."""
    return [
        WindowDetection(
            start_us=i * 1_000_000,
            end_us=i * 1_000_000 + 5_000_000,
            features={"a": float(i)},
            consequences=[],
            causes=[],
            chain_ids=[0],
        )
        for i in range(n)
    ]


def test_forwarder_counts_every_frame_a_dead_coordinator_never_got(caplog):
    """Without reconnect, a closed coordinator ends the sender: the frame
    it was sending and the frames still queued all count as lag, and
    close() leaves the queue empty."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        forwarder = DetectionForwarder(
            "127.0.0.1", coordinator.port, queue_frames=8
        )
        await forwarder.start()
        await coordinator.close()
        await _until(forwarder._reader.at_eof)
        forwarder.sink("s0", _windows(1), [], 1_000)
        for _ in range(3):
            forwarder.sink("s0", _windows(2), [], 2_000)
        await _until(forwarder._sender.done)
        await asyncio.wait_for(forwarder.close(), timeout=15)
        assert forwarder.lag_events == 7
        assert forwarder._queue.empty()

    with caplog.at_level(logging.WARNING, logger="repro.cluster.client"):
        asyncio.run(main())
    assert "dropping 3 frame(s) (6 detection record(s))" in caplog.text


# -- durability & hardened links -----------------------------------------------


class _CountingWorker(ClusterWorker):
    """Records every scenario index it actually executes."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ran = []

    async def _run_one(self, payload):
        self.ran.append(payload.get("index"))
        await super()._run_one(payload)


def _settled_pairs(journal_path):
    """Every (campaign_id, index) OUTCOME_SETTLED pair, raw, in order."""
    pairs = []
    with open(journal_path, encoding="utf-8") as handle:
        for line in handle:
            data = json.loads(line)
            if data.get("type") == OUTCOME_SETTLED:
                pairs.append((data["campaign_id"], data["index"]))
    return pairs


def test_journal_resume_byte_identity(
    tmp_path, scenarios, local_outcomes, outcome_bytes
):
    """The tentpole: kill the coordinator mid-campaign, restart it on
    the same journal, and the resumed campaign (a) never re-executes a
    settled scenario and (b) returns outcomes byte-identical to an
    uninterrupted run."""
    journal_path = str(tmp_path / "campaigns.journal")

    async def crash_phase():
        coordinator = ClusterCoordinator(journal_path=journal_path)
        await coordinator.start()
        worker = ClusterWorker("127.0.0.1", coordinator.port, slots=1)
        task = asyncio.create_task(worker.run())
        try:
            await coordinator.wait_for_workers(1, timeout_s=60)
            cid = await coordinator.submit_campaign(scenarios)
            while True:  # let part of the campaign settle, then "crash"
                status = coordinator.queue_status()
                if status and status[0]["done"] >= 2:
                    break
                await asyncio.sleep(0.02)
            return cid
        finally:
            # close() without campaign completion == crash to the
            # journal: no CAMPAIGN_CLOSED record is written.
            await coordinator.close()
            await asyncio.gather(task, return_exceptions=True)

    cid = asyncio.run(crash_phase())
    replayed = replay_journal(journal_path)[cid]
    assert not replayed.closed
    settled_before = set(replayed.settled) | set(replayed.errors)
    assert len(settled_before) >= 2

    async def resume_phase():
        coordinator = ClusterCoordinator(journal_path=journal_path)
        await coordinator.start()
        worker = _CountingWorker("127.0.0.1", coordinator.port, slots=1)
        task = asyncio.create_task(worker.run())
        try:
            await coordinator.wait_for_workers(1, timeout_s=60)
            # Same scenarios → same derived campaign id → resume.
            return await coordinator.run_campaign(scenarios), worker.ran
        finally:
            await coordinator.close()
            await asyncio.gather(task, return_exceptions=True)

    outcomes, ran = asyncio.run(resume_phase())
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)
    # No settled scenario was executed a second time ...
    assert not settled_before.intersection(ran)
    # ... and the journal settles every (campaign, index) exactly once.
    pairs = _settled_pairs(journal_path)
    assert len(pairs) == len(set(pairs)) == len(scenarios)
    # The completed campaign is closed in the journal: a fresh replay
    # reports it complete, nothing left to resume.
    final = replay_journal(journal_path)[cid]
    assert final.closed and final.close_reason == "completed"
    assert final.complete


def test_wrong_auth_token_refused(scenarios):
    """A coordinator with an auth token BYEs peers presenting a wrong
    (or no) token at HELLO, before serving them anything."""

    async def main():
        coordinator = ClusterCoordinator(auth_token="sesame")
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port
            )
            await send_frame(
                writer,
                HELLO,
                hello_payload(role="worker", slots=1, token="wrong"),
            )
            frame = await read_frame(reader)
            assert frame is not None and frame.type == BYE
            assert "auth token" in frame.payload["reason"]
            assert await read_frame(reader) is None  # server hung up
            writer.close()

            # The worker client surfaces the refusal as a clear error...
            bad = ClusterWorker(
                "127.0.0.1", coordinator.port, auth_token="wrong"
            )
            with pytest.raises(ClusterError, match="auth token"):
                await bad.run()
            # ...and the right token is let through.
            good = ClusterWorker(
                "127.0.0.1", coordinator.port, auth_token="sesame"
            )
            task = asyncio.create_task(good.run())
            await coordinator.wait_for_workers(1, timeout_s=60)
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_concurrent_campaigns_fair_dispatch(
    scenarios, local_outcomes, outcome_bytes, with_cluster
):
    """Two campaigns queued concurrently both complete under the
    round-robin dispatcher, each byte-identical to its local slice."""

    def workers(port):
        return [ClusterWorker("127.0.0.1", port, slots=2, name="w")]

    async def run(coordinator):
        return await asyncio.gather(
            coordinator.run_campaign(scenarios[:2]),
            coordinator.run_campaign(scenarios[2:]),
        )

    first, second = asyncio.run(with_cluster(workers, run))
    assert outcome_bytes(first + second) == outcome_bytes(local_outcomes)


def test_control_plane_submit_status_fetch_cancel(
    scenarios, local_outcomes, outcome_bytes
):
    """The queue CLI's engine: a control peer submits a campaign,
    watches it in status, fetches its outcomes, and cancels queued
    work."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        worker = ClusterWorker("127.0.0.1", coordinator.port, slots=2)
        task = asyncio.create_task(worker.run())
        try:
            await coordinator.wait_for_workers(1, timeout_s=60)
            async with CoordinatorControl(
                "127.0.0.1", coordinator.port
            ) as control:
                cid = await control.submit(scenarios[:2])
                while True:
                    entries = {
                        e["campaign_id"]: e for e in await control.status()
                    }
                    if entries[cid]["state"] != "active":
                        break
                    await asyncio.sleep(0.02)
                assert entries[cid]["state"] == "completed"
                assert entries[cid]["done"] == 2
                result = await control.fetch(cid)
                assert result["state"] == "completed"
                assert outcome_bytes(result["outcomes"]) == outcome_bytes(
                    local_outcomes[:2]
                )
                # Cancelling a finished campaign is a clean no.
                assert not await control.cancel(cid)
                # An unknown fetch is a clear error, not a hang.
                with pytest.raises(ClusterError, match="unknown"):
                    await control.fetch("nope")
        finally:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await coordinator.close()

    asyncio.run(main())


def test_cancel_active_campaign():
    """Cancelling a queued campaign (no workers yet) frees its waiters
    with a ClusterError and shows up as cancelled in the queue."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        try:
            specs = _MATRIX.expand()[:1]
            cid = await coordinator.submit_campaign(specs)
            waiter = asyncio.create_task(coordinator.wait_campaign(cid))
            await asyncio.sleep(0)  # let the waiter attach
            assert await coordinator.cancel_campaign(cid)
            with pytest.raises(ClusterError, match="cancelled"):
                await asyncio.wait_for(waiter, timeout=10)
            [entry] = [
                e
                for e in coordinator.queue_status()
                if e["campaign_id"] == cid
            ]
            assert entry["state"] == "cancelled"
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_worker_graceful_stop_mid_campaign(
    scenarios, local_outcomes, outcome_bytes
):
    """request_stop() (the SIGTERM path) finishes in-flight scenarios,
    sends BYE, and exits cleanly; a replacement worker completes the
    campaign byte-identically."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        try:
            first = ClusterWorker(
                "127.0.0.1", coordinator.port, slots=1, name="draining"
            )
            first_task = asyncio.create_task(first.run())
            await coordinator.wait_for_workers(1, timeout_s=60)
            campaign = asyncio.create_task(
                coordinator.run_campaign(scenarios)
            )
            while True:  # let at least one outcome land
                status = coordinator.queue_status()
                if status and status[0].get("done", 0) >= 1:
                    break
                await asyncio.sleep(0.02)
            first.request_stop()
            await asyncio.wait_for(first_task, timeout=60)  # clean exit
            second = ClusterWorker(
                "127.0.0.1", coordinator.port, slots=1, name="relief"
            )
            second_task = asyncio.create_task(second.run())
            outcomes = await campaign
            second_task.cancel()
            await asyncio.gather(second_task, return_exceptions=True)
            return outcomes
        finally:
            await coordinator.close()

    outcomes = asyncio.run(main())
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)


@pytest.fixture(scope="module")
def tls_cert(tmp_path_factory):
    """Self-signed loopback certificate (the pinned-cert deployment)."""
    import subprocess

    cert_dir = tmp_path_factory.mktemp("tls")
    cert = str(cert_dir / "cert.pem")
    key = str(cert_dir / "key.pem")
    proc = subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "rsa:2048",
            "-keyout", key, "-out", cert, "-days", "1", "-nodes",
            "-subj", "/CN=127.0.0.1",
        ],
        capture_output=True,
    )
    if proc.returncode != 0:
        pytest.skip("openssl unavailable for certificate generation")
    return cert, key


def test_tls_cluster_campaign(
    tls_cert, scenarios, local_outcomes, outcome_bytes
):
    """A TLS listener serves a token-authenticated worker end to end;
    a plaintext peer cannot complete a handshake against it."""
    cert, key = tls_cert

    async def main():
        coordinator = ClusterCoordinator(
            auth_token="sesame",
            ssl_context=protocol.server_ssl_context(cert, key),
        )
        await coordinator.start()
        worker = ClusterWorker(
            "127.0.0.1",
            coordinator.port,
            slots=2,
            auth_token="sesame",
            ssl_context=protocol.client_ssl_context(cert),
        )
        task = asyncio.create_task(worker.run())
        try:
            await coordinator.wait_for_workers(1, timeout_s=60)
            return await coordinator.run_campaign(scenarios[:2])
        finally:
            task.cancel()
            await asyncio.gather(task, return_exceptions=True)
            await coordinator.close()

    outcomes = asyncio.run(main())
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes[:2])


def test_worker_reconnects_to_restarted_coordinator(
    tmp_path, scenarios, local_outcomes, outcome_bytes
):
    """The full outage story: coordinator dies mid-campaign, a
    reconnect-enabled worker redials the restarted coordinator, and the
    journal-resumed campaign completes byte-identically."""
    journal_path = str(tmp_path / "campaigns.journal")
    with socket.socket() as probe:  # stable port across the restart
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]

    async def main():
        worker = ClusterWorker(
            "127.0.0.1",
            port,
            slots=1,
            reconnect=True,
            connect_timeout_s=60,
        )
        worker_task = asyncio.create_task(worker.run())
        coordinator = ClusterCoordinator(
            port=port, journal_path=journal_path
        )
        await coordinator.start()
        await coordinator.wait_for_workers(1, timeout_s=60)
        await coordinator.submit_campaign(scenarios)
        while True:  # partial progress, then "crash"
            status = coordinator.queue_status()
            if status and status[0]["done"] >= 1:
                break
            await asyncio.sleep(0.02)
        await coordinator.close()

        restarted = ClusterCoordinator(
            port=port, journal_path=journal_path
        )
        await restarted.start()
        try:
            # The worker redials on its own — no new worker process.
            await restarted.wait_for_workers(1, timeout_s=60)
            outcomes = await restarted.run_campaign(scenarios)
        finally:
            worker.request_stop()
            await asyncio.gather(worker_task, return_exceptions=True)
            await restarted.close()
        return outcomes

    outcomes = asyncio.run(main())
    assert outcome_bytes(outcomes) == outcome_bytes(local_outcomes)
    pairs = _settled_pairs(journal_path)
    assert len(pairs) == len(set(pairs)) == len(scenarios)


def test_watch_stream_serves_snapshots(private_bundle):
    """A watch-role peer receives the initial snapshot immediately and
    periodic pushes after (fleet-wide `repro watch --connect`)."""

    async def main():
        coordinator = ClusterCoordinator(snapshot_every_s=0.05)
        await coordinator.start()
        try:
            received = []
            async for snapshot in iter_snapshots(
                "127.0.0.1", coordinator.port
            ):
                received.append(snapshot)
                if len(received) >= 3:
                    break
            assert [s.seq for s in received] == sorted(
                s.seq for s in received
            )
            assert received[0].n_sessions == 0
        finally:
            await coordinator.close()

    asyncio.run(main())


# -- live plane: publishing, shedding, control errors --------------------------


class _PausedFoldCoordinator(ClusterCoordinator):
    """Holds the live fold until ``fold_gate`` is set, so a drop_oldest
    queue sheds a known set of frames."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fold_gate = asyncio.Event()

    async def _fold_live(self):
        await self.fold_gate.wait()
        await super()._fold_live()


def _detection_frame(session_id, n_windows, watermark_us):
    return {
        "session_id": session_id,
        "profile": "p",
        "impairment": "none",
        "detections": schema.detections_to_wire(_windows(n_windows)),
        "chains": [["a", "b"]],
        "watermark_us": watermark_us,
    }


def _rollup(snapshot):
    return (
        snapshot.n_sessions,
        snapshot.windows,
        snapshot.detected_windows,
        snapshot.total_minutes,
        snapshot.lag_events,
        snapshot.degradation_events_per_min,
        snapshot.top_chains,
        snapshot.cause_rates,
        snapshot.consequence_rates,
        snapshot.chain_totals,
        [(s.session_id, s.windows) for s in snapshot.sessions],
    )


async def _until(predicate, attempts=500):
    for _ in range(attempts):
        if predicate():
            return
        await asyncio.sleep(0.01)


def test_coordinator_publishes_snapshots_and_counts_shed_detections(
    tmp_path,
):
    """A coordinator with every publishing sink set writes the snapshot
    file, tees the store and fires the callback; a flooded one-frame
    drop_oldest queue counts exactly the shed detections as lag."""
    snapshot_path = str(tmp_path / "snap.json")
    store_dir = str(tmp_path / "store")
    published = []
    lag_counter = get_registry().counter("repro_live_lag_records_total")
    lag_before = lag_counter.value()

    async def main():
        coordinator = _PausedFoldCoordinator(
            snapshot_path=snapshot_path,
            store_dir=store_dir,
            on_snapshot=published.append,
            live_backpressure="drop_oldest",
            live_queue_frames=1,
            snapshot_every_s=0.02,
        )
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port
            )
            await send_frame(writer, HELLO, hello_payload(role="live"))
            assert (await read_frame(reader)).type == HELLO
            # 2 + 3 + 4 detections: the first frame fills the queue, the
            # second sheds it (2), the third sheds the second (3).
            for n_windows in (2, 3, 4):
                await send_frame(
                    writer,
                    DETECTION,
                    _detection_frame("s0", n_windows, n_windows * 1_000_000),
                )
            await _until(lambda: coordinator.lag_events >= 5)
            await asyncio.sleep(0.05)  # nothing more may be shed
            assert coordinator.lag_events == 5
            assert lag_counter.value() - lag_before == 5
            coordinator.fold_gate.set()
            await _until(lambda: published and published[-1].windows == 4)
            live = coordinator.live_snapshot()
            assert live.windows == 4
            assert live.lag_events == 5
            assert _rollup(api.read_snapshot(snapshot_path)) == _rollup(live)
            await send_frame(writer, BYE, {"reason": "done"})
            writer.close()
        finally:
            await coordinator.close()

    asyncio.run(main())
    assert published, "on_snapshot never fired"
    assert published[-1].windows == 4
    store = RcaStore.open(store_dir, create=False)
    try:
        assert store.rows_total()["snapshots"] >= 1
    finally:
        store.close()


def test_drop_oldest_refuses_frame_without_detection_list():
    """Under drop_oldest, a frame whose detections are not a list is
    refused and counted at the seam (shedding it would raise); the
    connection keeps serving and a later good frame folds."""
    rejected = get_registry().counter("repro_cluster_rejected_total")
    rejected_before = rejected.value(what="detection_frame")

    async def main():
        coordinator = _PausedFoldCoordinator(
            live_backpressure="drop_oldest", live_queue_frames=1
        )
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port
            )
            await send_frame(writer, HELLO, hello_payload(role="live"))
            assert (await read_frame(reader)).type == HELLO
            bad = dict(_detection_frame("s0", 1, 1_000_000), detections=5)
            await send_frame(writer, DETECTION, bad)
            await send_frame(
                writer, DETECTION, _detection_frame("s0", 2, 2_000_000)
            )
            await _until(
                lambda: rejected.value(what="detection_frame")
                > rejected_before
            )
            coordinator.fold_gate.set()
            await _until(lambda: coordinator.live_snapshot().windows == 2)
            assert coordinator.live_snapshot().windows == 2
            assert coordinator.lag_events == 0
            assert rejected.value(what="detection_frame") == (
                rejected_before + 1
            )
            await send_frame(writer, BYE, {"reason": "done"})
            writer.close()
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_malformed_submit_gets_refusal_ack_and_connection_survives():
    """A SUBMIT whose spec does not decode is answered ``ok: False``;
    the same control connection then answers STATUS."""

    async def main():
        coordinator = ClusterCoordinator()
        await coordinator.start()
        try:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", coordinator.port
            )
            await send_frame(writer, HELLO, hello_payload(role="control"))
            assert (await read_frame(reader)).type == HELLO
            await send_frame(
                writer, SUBMIT, {"req": 1, "scenarios": [{"name": "x"}]}
            )
            refused = await read_frame(reader)
            assert refused.type == ACK
            assert refused.payload["req"] == 1
            assert refused.payload["ok"] is False
            assert refused.payload["error"]
            await send_frame(writer, STATUS, {"req": 2})
            status = await read_frame(reader)
            assert status.type == ACK
            assert status.payload == {"ok": True, "queue": [], "req": 2}
            writer.close()
        finally:
            await coordinator.close()

    asyncio.run(main())


def test_coordinator_snapshot_publish_survives_missing_directory(tmp_path):
    """A snapshot path whose directory is missing costs the failed
    publishes (logged and counted), not the snapshot loop: once the
    directory appears, a later snapshot lands."""
    snapshot_path = tmp_path / "later" / "snap.json"
    errors = get_registry().counter("repro_snapshot_publish_errors_total")
    errors_before = errors.value(sink="file")

    async def main():
        coordinator = ClusterCoordinator(
            snapshot_path=str(snapshot_path), snapshot_every_s=0.02
        )
        await coordinator.start()
        try:
            await _until(lambda: errors.value(sink="file") > errors_before)
            assert errors.value(sink="file") > errors_before
            snapshot_path.parent.mkdir()
            await _until(snapshot_path.exists)
            assert api.read_snapshot(str(snapshot_path)).n_sessions == 0
        finally:
            await coordinator.close()

    asyncio.run(main())
