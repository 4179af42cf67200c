"""The cluster coordinator: one listener, three planes, a durable queue.

:class:`ClusterCoordinator` is the central analysis plane of a
multi-host deployment.  A single asyncio TCP listener (optionally TLS,
optionally auth-token gated at HELLO) serves every kind of peer the
protocol knows:

* **batch plane** — :class:`~repro.cluster.worker.ClusterWorker` peers
  announce slots; the coordinator round-robins queued
  :class:`~repro.fleet.scenarios.ScenarioSpec` dispatches across every
  *active campaign* at them and folds the returned
  :class:`~repro.fleet.executor.SessionOutcome` records into
  per-campaign state.  Outcomes are indexed by scenario position, so a
  finished campaign is returned in scenario order and — because every
  scenario is a deterministic function of its spec — byte-identical to
  local execution.
* **control plane** — ``control``-role peers
  (:class:`~repro.cluster.client.CoordinatorControl`, the CLI's
  ``repro cluster queue|status|cancel``) submit campaigns into the
  queue, inspect it, cancel campaigns, and fetch finished outcomes.
* **live plane** — remote supervisors (via
  :class:`~repro.cluster.client.DetectionForwarder`) stream
  ``(session_id, detections, chains, watermark)`` frames that fold into
  one central :class:`~repro.live.aggregator.LiveAggregator`; periodic
  :class:`~repro.live.aggregator.FleetSnapshot` rollups are written for
  ``repro watch`` and pushed to ``watch``-role connections.

Durability: with a ``journal_path``, every campaign transition is
written ahead to a :class:`~repro.cluster.journal.CampaignJournal`
(CAMPAIGN_OPEN before the campaign is queued, OUTCOME_SETTLED before an
outcome is recorded in memory, CAMPAIGN_CLOSED when it finishes).  A
restarted coordinator replays the journal on :meth:`start`; a campaign
resubmitted under its journaled id (or revived wholesale via
:meth:`resume_pending_campaigns`) preloads its settled outcomes and
dispatches only the unsettled remainder — the completed campaign is
byte-identical to an uninterrupted run because the settled outcomes
*are* the originals, replayed from disk.  A journal write failure
(disk full, permission flip) logs an error and degrades the
coordinator to in-memory operation rather than killing the planes.

Fault model: a worker that disconnects or stops heartbeating has its
in-flight scenarios requeued (front of their campaign's queue,
excluding the dead worker), so a killed worker costs latency, never
outcomes.  A worker that later turns out merely slow can still
deliver; duplicate outcomes are idempotent because outcomes are
deterministic.  Live-plane ingest runs behind a bounded queue with the
live service's backpressure semantics: ``block`` pauses the socket
reader (TCP backpressure all the way to the remote supervisor),
``drop_oldest`` sheds the oldest batch and counts its records as lag.
"""

from __future__ import annotations

import asyncio
import itertools
import ssl as ssl_module
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    AsyncIterator,
    Awaitable,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro import schema
from repro.core.detector import DetectorConfig
from repro.errors import ClusterError, ClusterProtocolError, ConfigError, SchemaError
from repro.fleet.executor import SessionOutcome
from repro.fleet.scenarios import ScenarioSpec
from repro.live.aggregator import FleetSnapshot, LiveAggregator
from repro.live.service import SnapshotPublisher
from repro.live.supervisor import RUNNING, SessionSnapshot, put_drop_oldest
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.spans import new_span_id, span
from repro.obs.trace import ABANDONED, TraceContext, TraceSpan
from repro.cluster import protocol
from repro.cluster.journal import CampaignJournal, ReplayedCampaign, campaign_id_for
from repro.cluster.protocol import (
    ACK,
    BYE,
    CANCEL,
    DETECTION,
    DISPATCH,
    FETCH,
    HEARTBEAT,
    HELLO,
    OUTCOME,
    ROLE_CONTROL,
    ROLE_LIVE,
    ROLE_WATCH,
    ROLE_WORKER,
    SNAPSHOT,
    STATUS,
    SUBMIT,
    Frame,
    check_hello,
    count_rejected,
    read_frame,
    send_frame,
)

#: on_progress(done, total, requeues) after every recorded outcome.
ProgressCallback = Callable[[int, int, int], None]

#: Finished campaigns kept around for STATUS/FETCH before being forgotten.
_HISTORY_LIMIT = 32

logger = get_logger(__name__)


async def _frames(reader: asyncio.StreamReader) -> AsyncIterator[Frame]:
    """A peer's frames up to EOF or its BYE."""
    while True:
        frame = await read_frame(reader)
        if frame is None or frame.type == BYE:
            return
        yield frame


async def _send_or_abort(
    writer: asyncio.StreamWriter, send: Awaitable[None], timeout_s: float
) -> bool:
    """Await a send for at most *timeout_s*, aborting the peer on
    failure: a wedged peer must not stall what every other one is owed."""
    try:
        await asyncio.wait_for(send, timeout=timeout_s)
        return True
    except (asyncio.TimeoutError, OSError, ClusterProtocolError):
        writer.transport.abort()
        return False


@dataclass(eq=False)
class _WorkerConn:
    """Coordinator-side state for one connected worker."""

    worker_id: int
    name: str
    slots: int
    writer: asyncio.StreamWriter
    last_seen: float
    #: (campaign_id, scenario index) pairs currently on this worker.
    in_flight: Set[Tuple[str, int]] = field(default_factory=set)
    closed: bool = False
    send_lock: asyncio.Lock = field(default_factory=asyncio.Lock)

    async def send(self, frame_type: str, payload: dict) -> None:
        async with self.send_lock:
            await send_frame(self.writer, frame_type, payload)


class _Campaign:
    """One queued/in-progress distributed campaign."""

    def __init__(
        self,
        campaign_id: str,
        scenarios: Sequence[ScenarioSpec],
        trace_dir: Optional[str],
        cache_dir: Optional[str],
        fail_fast: bool,
        detector_config: Optional[DetectorConfig],
        on_progress: Optional[ProgressCallback],
        client_trace: object = None,
    ) -> None:
        #: Journal key and DISPATCH/OUTCOME correlation id; a late
        #: outcome from another campaign can never be recorded into this
        #: one at the same index because ids never collide across
        #: campaigns.
        self.campaign_id = campaign_id
        self.scenarios = list(scenarios)
        self.trace_dir = trace_dir
        self.cache_dir = cache_dir
        self.fail_fast = fail_fast
        self.detector_config = detector_config
        self.on_progress = on_progress
        self.pending: Deque[int] = deque(range(len(self.scenarios)))
        #: scenario index → worker ids it must not be dispatched to
        #: (workers that died while running it).
        self.excluded: Dict[int, Set[int]] = {}
        self.outcomes: List[Optional[SessionOutcome]] = [None] * len(
            self.scenarios
        )
        self.errors: Dict[int, str] = {}
        #: Indices ever requeued — only these can have a duplicate copy
        #: sitting in pending when an outcome arrives, so only these
        #: pay the O(pending) deque removal; the rest are on their
        #: first dispatch.
        self.requeued: Set[int] = set()
        self.n_done = 0
        self.requeues = 0
        self.cancelled = False
        self.close_reason: Optional[str] = None
        self.done = asyncio.Event()
        #: Per-scenario trace roots, made at submission.  Each scenario
        #: gets its own trace, tagged with the campaign id, so a retried
        #: scenario lands in the same trace as its abandoned first
        #: attempt.
        self.submitted_ts = time.time()
        self.traces = [
            TraceContext.new(campaign_id=campaign_id, scenario=spec.name)
            for spec in self.scenarios
        ]
        #: Collected spans — coordinator-built plus worker-streamed.
        self.trace_spans: List[TraceSpan] = []
        #: scenario index → (dispatch span id, sent ts, worker name) for
        #: the dispatch currently in flight; popped when the outcome
        #: settles or the worker dies (abandoned span).
        self.dispatch_inflight: Dict[int, Tuple[str, float, str]] = {}
        #: Trace id of the submitting client's ambient context (from the
        #: SUBMIT frame's ``trace`` field), stamped onto queue spans so
        #: a client-side trace can be joined to the campaign's traces.
        self.client_trace_id = (
            str(client_trace.get("trace_id", ""))
            if isinstance(client_trace, dict)
            else ""
        )

    def settled(self, index: int) -> bool:
        return self.outcomes[index] is not None or index in self.errors

    def unsettled(self, index: object) -> bool:
        """True for an in-range scenario index not settled yet."""
        return (
            isinstance(index, int)
            and 0 <= index < len(self.scenarios)
            and not self.settled(index)
        )

    def settle(
        self,
        index: object,
        outcome: Optional[SessionOutcome] = None,
        error: Optional[object] = None,
    ) -> None:
        """Record one scenario's outcome or error (first settle wins)."""
        if not self.unsettled(index):
            return
        if error is not None:
            self.errors[index] = str(error)
            if self.fail_fast:
                self.pending.clear()
        else:
            self.outcomes[index] = outcome
        self.n_done += 1

    def preload(self, replayed: ReplayedCampaign) -> int:
        """Adopt a journal replay's settled records; queue the rest."""
        for index, outcome in replayed.settled.items():
            self.settle(index, outcome=outcome)
        for index, error in replayed.errors.items():
            self.settle(index, error=error)
        self.pending = deque(
            index
            for index in range(len(self.scenarios))
            if not self.settled(index)
        )
        if self.fail_fast and self.errors:
            self.pending.clear()
        return self.n_done

    def close_dispatch(self, index: int, end_ts: float, status: str) -> str:
        """Close the scenario's in-flight dispatch span; return its id
        (``""`` when none was in flight).

        A dead worker's dispatch closes :data:`ABANDONED`: it stays in
        the trace as a first attempt that never settled, and the
        requeued dispatch opens a fresh span under the same trace.
        """
        inflight = self.dispatch_inflight.pop(index, None)
        if inflight is None:
            return ""
        span_id, sent_ts, worker_name = inflight
        self.trace_spans.append(
            self.traces[index].span(
                "cluster.dispatch",
                span_id=span_id,
                ts_s=sent_ts,
                duration_s=end_ts - sent_ts,
                service="coordinator",
                status=status,
                attrs={"worker": worker_name},
            )
        )
        return span_id

    def finished_state(self) -> Optional[str]:
        """``None`` while work remains, else the terminal state name."""
        if self.cancelled:
            return "cancelled"
        if self.fail_fast and self.errors:
            return "failed"
        if self.n_done >= len(self.scenarios):
            return "failed" if self.errors else "completed"
        return None


class ClusterCoordinator:
    """Serve workers, control clients, and live supervisors.

    Args:
        host / port: listen address (``port=0`` binds an ephemeral port,
            readable from :attr:`port` after :meth:`start`).
        detector_config: Domino configuration shipped with every
            dispatch (campaigns may override per submission) so all
            workers analyze identically.
        heartbeat_s: keepalive interval advertised to peers.
        worker_timeout_s: declare a worker dead after this long without
            any frame (default ``5 × heartbeat_s``) and requeue its
            in-flight scenarios.
        live_queue_frames: bound of the live-plane ingest queue.
        live_backpressure: ``"block"`` or ``"drop_oldest"`` (the live
            service's bounded-queue semantics; see module docstring).
        snapshot_path: write each periodic fleet snapshot there
            (atomically) for ``repro watch``.
        snapshot_every_s: snapshot/watch push interval.
        store_dir: also tee each periodic fleet snapshot into the
            historical store at this directory (created on first
            write) — the ``--store`` retention path.
        on_snapshot: callback invoked with each periodic snapshot.
        journal_path: write-ahead campaign journal file; replayed on
            :meth:`start` so interrupted campaigns can resume.
        auth_token: when set, every HELLO must carry a matching
            ``token`` field or the peer is refused with BYE.
        ssl_context: serve TLS on the listener (see
            :func:`~repro.cluster.protocol.server_ssl_context`).

    Every scenario runs under its own distributed trace, rooted at
    submission: DISPATCH frames carry the context, workers stream their
    spans back on OUTCOME, and finished campaigns' spans are ingested
    into ``store_dir`` (when set) for ``repro obs trace``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        detector_config: Optional[DetectorConfig] = None,
        heartbeat_s: float = 2.0,
        worker_timeout_s: Optional[float] = None,
        live_queue_frames: int = 256,
        live_backpressure: str = "block",
        snapshot_path: Optional[str] = None,
        snapshot_every_s: float = 1.0,
        store_dir: Optional[str] = None,
        on_snapshot: Optional[Callable[[FleetSnapshot], None]] = None,
        journal_path: Optional[str] = None,
        auth_token: Optional[str] = None,
        ssl_context: Optional[ssl_module.SSLContext] = None,
    ) -> None:
        if live_backpressure not in ("block", "drop_oldest"):
            raise ConfigError(
                "live_backpressure must be 'block' or 'drop_oldest', "
                f"not {live_backpressure!r}"
            )
        self.host = host
        self.port = port
        self.detector_config = detector_config
        self.heartbeat_s = heartbeat_s
        self.worker_timeout_s = (
            worker_timeout_s
            if worker_timeout_s is not None
            else heartbeat_s * 5.0
        )
        self.live_backpressure = live_backpressure
        self.snapshot_every_s = snapshot_every_s
        #: Periodic fleet snapshots' file/store/callback sinks; its
        #: store also receives finished campaigns' trace spans.
        self.publisher = SnapshotPublisher(
            path=snapshot_path, store_dir=store_dir, on_snapshot=on_snapshot
        )
        self.journal_path = journal_path
        self.auth_token = auth_token
        self.ssl_context = ssl_context

        #: Central rollup of live detections.
        self.live = LiveAggregator()
        #: Live-plane records shed by drop_oldest backpressure.
        self.lag_events = 0
        #: Total scenario requeues caused by dead workers (all campaigns).
        self.requeues = 0

        self._workers: Dict[int, _WorkerConn] = {}
        self._worker_ids = itertools.count()
        self._worker_joined = asyncio.Condition()
        self._work_available = asyncio.Condition()
        #: Active campaigns by id, plus the round-robin dispatch order.
        self._campaigns: Dict[str, _Campaign] = {}
        self._rotation: Deque[str] = deque()
        #: Finished campaigns kept for STATUS/FETCH (insertion order,
        #: trimmed to _HISTORY_LIMIT).
        self._history: Dict[str, _Campaign] = {}
        #: Every campaign id this coordinator has ever seen (including
        #: journal-replayed ones): a straggler OUTCOME for one of these
        #: is ignored, one for a truly unknown id is a protocol offence.
        self._known_ids: Set[str] = set()
        self._journal: Optional[CampaignJournal] = None
        self._replayed: Dict[str, ReplayedCampaign] = {}
        self._live_queue: asyncio.Queue = asyncio.Queue(
            maxsize=live_queue_frames
        )
        #: session_id → loop time its first frame folded, so dashboard
        #: realtime factors reflect each session's own forwarding span
        #: rather than coordinator uptime.
        self._live_started: Dict[str, float] = {}
        self._watchers: List[asyncio.StreamWriter] = []
        self._server: Optional[asyncio.base_events.Server] = None
        self._tasks: List[asyncio.Task] = []
        self._conn_tasks: Set[asyncio.Task] = set()
        self._seq = 0
        self._started_at: Optional[float] = None

    # -- lifecycle --------------------------------------------------------------

    async def start(self) -> "ClusterCoordinator":
        """Replay the journal (if any), bind, start background tasks."""
        if self.journal_path is not None:
            self._journal = CampaignJournal(self.journal_path)
            replayed = self._journal.replay()
            self._known_ids.update(replayed)
            # Interrupted mid-campaign: resumable.
            self._replayed = {
                cid: campaign
                for cid, campaign in replayed.items()
                if not campaign.closed
            }
            if self._replayed:
                logger.info(
                    "journal %s: %d interrupted campaign(s) ready to "
                    "resume (%s)",
                    self.journal_path,
                    len(self._replayed),
                    ", ".join(sorted(self._replayed)),
                )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.host,
            self.port,
            ssl=self.ssl_context,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        self._started_at = loop.time()
        self._tasks = [
            asyncio.create_task(self._watchdog(), name="cluster:watchdog"),
            asyncio.create_task(self._fold_live(), name="cluster:live-fold"),
            asyncio.create_task(
                self._snapshot_loop(), name="cluster:snapshots"
            ),
        ]
        return self

    async def close(self) -> None:
        """Stop serving: close the listener and every connection.

        Unfinished campaigns are *not* closed in the journal — a close
        with work outstanding is indistinguishable from a crash on
        replay, which is exactly what makes them resumable.
        """
        for task in self._tasks:
            task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        await asyncio.gather(
            *self._tasks, *self._conn_tasks, return_exceptions=True
        )
        self._tasks = []
        if self._journal is not None:
            self._journal.close()
        self.publisher.close()

    async def wait_for_workers(
        self, count: int, timeout_s: Optional[float] = None
    ) -> None:
        """Block until at least *count* workers are connected."""

        async def _wait() -> None:
            async with self._worker_joined:
                await self._worker_joined.wait_for(
                    lambda: len(self._workers) >= count
                )

        await asyncio.wait_for(_wait(), timeout_s)

    # -- journal plumbing -------------------------------------------------------

    def _journal_op(self, op: str, *args: object, **kwargs: object) -> None:
        """Best-effort journal write: a failing disk degrades, not kills."""
        if self._journal is None:
            return
        try:
            getattr(self._journal, op)(*args, **kwargs)
        except OSError as exc:
            logger.error(
                "campaign journal write failed (%s: %s); disabling the "
                "journal — coordinator continues in memory only",
                op,
                exc,
            )
            try:
                self._journal.close()
            except OSError:
                pass
            self._journal = None

    # -- campaign API (batch plane) ---------------------------------------------

    async def submit_campaign(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        campaign_id: Optional[str] = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
        detector_config: Optional[DetectorConfig] = None,
        on_progress: Optional[ProgressCallback] = None,
        client_trace: Optional[dict] = None,
    ) -> str:
        """Queue a campaign; return its id immediately.

        The id defaults to the deterministic digest of the scenario
        specs + detector config (:func:`campaign_id_for`), which is
        what lets a restarted coordinator match a resubmission against
        its journal and resume from the settled records instead of
        re-running them.  An id colliding with an *active* campaign
        gets a ``-N`` suffix (or raises, when the id was explicit).
        """
        config = detector_config or self.detector_config
        base = campaign_id or campaign_id_for(scenarios, config)
        cid = base
        suffix = 1
        while cid in self._campaigns:
            if campaign_id is not None:
                raise ClusterError(
                    f"campaign {campaign_id!r} is already queued"
                )
            suffix += 1
            cid = f"{base}-{suffix}"
        campaign = _Campaign(
            cid,
            scenarios,
            trace_dir,
            cache_dir,
            fail_fast,
            config,
            on_progress,
            client_trace,
        )
        replayed = self._replayed.pop(cid, None)
        if replayed is not None:
            preloaded = campaign.preload(replayed)
            logger.info(
                "campaign %s resumed from journal: %d/%d scenario(s) "
                "already settled",
                cid,
                preloaded,
                len(campaign.scenarios),
            )
        else:
            self._journal_op(
                "open_campaign",
                cid,
                campaign.scenarios,
                detector_config=config,
                trace_dir=trace_dir,
                cache_dir=cache_dir,
                fail_fast=fail_fast,
            )
        self._known_ids.add(cid)
        self._campaigns[cid] = campaign
        self._rotation.append(cid)
        self._set_gauges()
        state = campaign.finished_state()
        if state is not None:
            # Nothing left to dispatch (empty submission, or the
            # journal already holds every outcome).
            await self._finalize(campaign, state)
        else:
            async with self._work_available:
                self._work_available.notify_all()
        return cid

    async def wait_campaign(self, campaign_id: str) -> List[SessionOutcome]:
        """Await a campaign; return its outcomes in scenario order.

        Raises :class:`ClusterError` carrying the first failing
        scenario's error (in scenario order), or on cancellation.
        """
        campaign = self._campaign(campaign_id)
        await campaign.done.wait()
        if campaign.cancelled:
            raise ClusterError(f"campaign {campaign_id!r} was cancelled")
        if campaign.errors:
            index = min(campaign.errors)
            raise ClusterError(
                f"scenario {campaign.scenarios[index].name!r} failed: "
                f"{campaign.errors[index]}"
            )
        return [outcome for outcome in campaign.outcomes if outcome]

    async def run_campaign(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
        on_progress: Optional[ProgressCallback] = None,
        campaign_id: Optional[str] = None,
    ) -> List[SessionOutcome]:
        """Submit *scenarios* and wait for their outcomes.

        Returns outcomes in scenario order (byte-identical to a local
        :func:`repro.api.campaign`).  Concurrent calls
        interleave fairly: the dispatcher round-robins across every
        active campaign.  Dispatch waits for workers — a campaign
        submitted before any worker connects simply idles until one
        joins.
        """
        if not scenarios:
            return []
        cid = await self.submit_campaign(
            scenarios,
            campaign_id=campaign_id,
            trace_dir=trace_dir,
            cache_dir=cache_dir,
            fail_fast=fail_fast,
            on_progress=on_progress,
        )
        return await self.wait_campaign(cid)

    async def cancel_campaign(self, campaign_id: str) -> bool:
        """Cancel an active campaign; ``False`` if it is not active."""
        campaign = self._campaigns.get(campaign_id)
        if campaign is None:
            return False
        campaign.cancelled = True
        campaign.pending.clear()
        await self._finalize(campaign, "cancelled")
        logger.info("campaign %s cancelled", campaign_id)
        return True

    async def resume_pending_campaigns(self) -> List[str]:
        """Requeue every journal-replayed campaign that never closed.

        The standing-coordinator entry point (``repro cluster
        coordinator --journal ...``): after a crash, the restarted
        process picks its interrupted campaigns back up without any
        client resubmitting them.
        """
        resumed = []
        for cid, replayed in sorted(self._replayed.items()):
            await self.submit_campaign(
                replayed.scenarios,
                campaign_id=cid,
                trace_dir=replayed.trace_dir,
                cache_dir=replayed.cache_dir,
                fail_fast=replayed.fail_fast,
                detector_config=replayed.detector_config,
            )
            resumed.append(cid)
        return resumed

    def _campaign(self, campaign_id: object) -> _Campaign:
        """An active or recently finished campaign by id."""
        campaign = self._campaigns.get(campaign_id) or self._history.get(
            campaign_id
        )
        if campaign is None:
            raise ClusterError(f"unknown campaign {campaign_id!r}")
        return campaign

    def _set_gauges(self) -> None:
        """The one writer of the campaign and worker gauges."""
        registry = get_registry()
        registry.gauge(
            "repro_campaigns_active",
            help="Campaigns currently queued or dispatching.",
        ).set(len(self._campaigns))
        registry.gauge(
            "repro_cluster_workers",
            help="Workers currently connected to the coordinator.",
        ).set(len(self._workers))

    def queue_status(self) -> List[dict]:
        """Queue introspection: active campaigns first, then history."""
        entries = [(self._campaigns[cid], "active") for cid in self._rotation]
        entries += [
            (campaign, campaign.close_reason or "completed")
            for campaign in self._history.values()
        ]
        return [
            {
                "campaign_id": campaign.campaign_id,
                "state": state,
                "total": len(campaign.scenarios),
                "done": campaign.n_done,
                "errors": len(campaign.errors),
                "requeues": campaign.requeues,
            }
            for campaign, state in entries
        ]

    async def _finalize(self, campaign: _Campaign, reason: str) -> None:
        """Move a campaign out of the active queue; wake its waiters."""
        if campaign.done.is_set():
            return
        campaign.close_reason = reason
        self._journal_op("close_campaign", campaign.campaign_id, reason)
        self._campaigns.pop(campaign.campaign_id, None)
        try:
            self._rotation.remove(campaign.campaign_id)
        except ValueError:
            pass
        self._history[campaign.campaign_id] = campaign
        while len(self._history) > _HISTORY_LIMIT:
            self._history.pop(next(iter(self._history)))
        self._set_gauges()
        # Scenarios still on workers belong to the finished campaign
        # (fail_fast, cancel, or a duplicate settled first); their
        # OUTCOME frames will be ignored as stragglers, so free the
        # slots now for the remaining campaigns.
        async with self._work_available:
            for worker in self._workers.values():
                worker.in_flight = {
                    item
                    for item in worker.in_flight
                    if item[0] != campaign.campaign_id
                }
            self._work_available.notify_all()
        self._ingest_trace_spans(campaign)
        campaign.done.set()

    def _ingest_trace_spans(self, campaign: _Campaign) -> None:
        """Land a finished campaign's trace into the historical store."""
        if not self.publisher.store_dir or not campaign.trace_spans:
            return
        try:
            self.publisher.store().ingest_trace_spans(
                campaign.trace_spans, ts=time.time()
            )
        except Exception as exc:  # pragma: no cover - disk/store faults
            logger.error(
                "trace-span store ingest failed for campaign %s "
                "(%s: %s); spans remain fetchable from history",
                campaign.campaign_id,
                type(exc).__name__,
                exc,
            )

    def trace_spans_for(self, campaign_id: str) -> List[TraceSpan]:
        """All collected spans for an active or recent campaign."""
        return list(self._campaign(campaign_id).trace_spans)

    # -- connection handling ----------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            try:
                hello = check_hello(
                    await read_frame(reader), expect_role=True
                )
                if not protocol.auth_ok(self.auth_token, hello.get("token")):
                    get_registry().counter(
                        "repro_cluster_auth_failures_total",
                        help="Peers refused for a missing or wrong auth "
                        "token.",
                    ).inc()
                    logger.warning(
                        "refused %s peer: auth token missing or wrong",
                        hello.get("role"),
                    )
                    raise ClusterProtocolError("auth token rejected")
            except ClusterProtocolError as exc:
                # Tell well-formed-but-incompatible peers why; a peer
                # not speaking the protocol at all may not parse it.
                try:
                    await send_frame(writer, BYE, {"reason": str(exc)})
                except (ConnectionError, ClusterProtocolError):
                    pass
                return
            await send_frame(
                writer,
                HELLO,
                protocol.hello_payload(
                    server="repro-cluster", heartbeat_s=self.heartbeat_s
                ),
            )
            role = hello["role"]
            if role == ROLE_WORKER:
                await self._serve_worker(reader, writer, hello)
            elif role == ROLE_CONTROL:
                await self._serve_control(reader, writer)
            elif role == ROLE_LIVE:
                await self._serve_live(reader, writer)
            elif role == ROLE_WATCH:
                await self._serve_watch(reader, writer)
        except (
            ConnectionError,
            ClusterProtocolError,
            asyncio.IncompleteReadError,
        ):
            pass  # peer vanished or spoke garbage; its state is cleaned up
        except asyncio.CancelledError:
            pass  # coordinator shutting down; swallowing ends the task
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass

    # -- batch plane: workers ---------------------------------------------------

    async def _serve_worker(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        hello: dict,
    ) -> None:
        loop = asyncio.get_running_loop()
        worker_id = next(self._worker_ids)
        try:
            slots = int(hello.get("slots", 1))
        except (TypeError, ValueError):
            raise ClusterProtocolError(
                f"malformed HELLO slots {hello.get('slots')!r}"
            )
        worker = _WorkerConn(
            worker_id,
            name=str(hello.get("name") or f"worker-{worker_id}"),
            slots=max(1, slots),
            writer=writer,
            last_seen=loop.time(),
        )
        self._workers[worker_id] = worker
        self._set_gauges()
        async with self._worker_joined:
            self._worker_joined.notify_all()
        dispatcher = asyncio.create_task(
            self._dispatch_loop(worker), name=f"cluster:dispatch:{worker_id}"
        )
        try:
            async for frame in _frames(reader):
                worker.last_seen = loop.time()
                if frame.type == OUTCOME:
                    await self._record_outcome(worker, frame.payload)
                elif frame.type != HEARTBEAT:
                    raise ClusterProtocolError(
                        f"unexpected {frame.type} frame from worker"
                    )
        finally:
            dispatcher.cancel()
            # return_exceptions: the dispatcher may already have died
            # with a ConnectionError (send to a reset socket) — that
            # must not short-circuit past the requeue below.
            await asyncio.gather(dispatcher, return_exceptions=True)
            await self._drop_worker(worker)

    async def _dispatch_loop(self, worker: _WorkerConn) -> None:
        """Push queued scenarios at one worker while it has free slots."""
        while True:
            async with self._work_available:
                while True:
                    if worker.closed:
                        return
                    claimed = self._claim(worker)
                    if claimed is not None:
                        break
                    # No claimable work (idle, slots full, or every
                    # pending scenario excludes this worker): block
                    # until the next state change rather than re-spin.
                    await self._work_available.wait()
            campaign, index = claimed
            spec = campaign.scenarios[index]
            ctx = campaign.traces[index]
            sent_ts = time.time()
            dispatch_span_id = new_span_id()
            if index not in campaign.requeued:
                # First dispatch: record the queue wait.  A requeue gets
                # no second one; its abandoned dispatch covers the gap.
                campaign.trace_spans.append(
                    ctx.span(
                        "cluster.queue",
                        ts_s=campaign.submitted_ts,
                        duration_s=sent_ts - campaign.submitted_ts,
                        service="coordinator",
                        attrs=(
                            {"client_trace_id": campaign.client_trace_id}
                            if campaign.client_trace_id
                            else {}
                        ),
                    )
                )
            campaign.dispatch_inflight[index] = (
                dispatch_span_id,
                sent_ts,
                worker.name,
            )
            payload = {
                "campaign": campaign.campaign_id,
                "index": index,
                "spec": schema.scenario_spec_to_wire(spec),
                "detector_config": schema.detector_config_to_wire(
                    campaign.detector_config
                ),
                "trace_dir": campaign.trace_dir,
                "cache_dir": campaign.cache_dir,
                "trace": ctx.child(dispatch_span_id).to_wire(),
                "sent_ts": sent_ts,
            }
            with span(
                "cluster.dispatch", scenario=spec.name, worker=worker.name
            ):
                await worker.send(DISPATCH, payload)
            get_registry().counter(
                "repro_cluster_dispatches_total",
                help="Scenario dispatches pushed to cluster workers.",
            ).inc()

    def _claim(
        self, worker: _WorkerConn
    ) -> Optional[Tuple[_Campaign, int]]:
        """Claim the next scenario, round-robining across campaigns.

        The rotation deque advances one campaign per successful claim,
        so two queued campaigns each get every other free slot — fair
        dispatch regardless of submission order or size.  A fruitless
        pass rotates it all the way round, back to where it was.  Only
        campaigns with pending work are scanned (active campaigns are
        few): every recorded outcome wakes every dispatcher.
        """
        if len(worker.in_flight) >= worker.slots:
            return None
        for _ in range(len(self._rotation)):
            cid = self._rotation[0]
            self._rotation.rotate(-1)
            campaign = self._campaigns.get(cid)
            if campaign is None or not campaign.pending:
                continue
            for _ in range(len(campaign.pending)):
                index = campaign.pending.popleft()
                if worker.worker_id in campaign.excluded.get(index, ()):
                    campaign.pending.append(index)
                    continue
                worker.in_flight.add((cid, index))
                return campaign, index
        return None

    async def _record_outcome(
        self, worker: _WorkerConn, payload: dict
    ) -> None:
        index = payload.get("index")
        cid = payload.get("campaign")
        campaign = self._campaigns.get(cid)
        if campaign is None:
            if cid in self._known_ids:
                # A straggler for a campaign that already finished
                # (fail_fast abandon, cancel, or a requeued duplicate
                # settled first): free the slot, touch nothing else.
                await self._free_slot(worker, cid, index)
                return
            # Not a campaign this coordinator has ever queued: the
            # worker is confused, and silently ignoring would wedge its
            # in-flight scenario.  Raising drops the worker and
            # requeues that scenario.
            raise ClusterProtocolError(f"OUTCOME for unknown campaign {cid!r}")
        recv_ts = time.time()
        error = payload.get("error")
        outcome = None
        if error is not None:
            error = str(error)
        else:
            # Parse before touching any dispatch state: a malformed
            # frame raises here, the serve loop drops the worker, and
            # the still-in-flight scenario gets requeued — not lost.
            try:
                outcome = SessionOutcome.from_json(payload["outcome"])
            except (KeyError, SchemaError) as exc:
                raise ClusterProtocolError(f"malformed OUTCOME frame: {exc}")
        await self._free_slot(worker, cid, index)
        if not campaign.unsettled(index):
            return  # late duplicate from a worker we declared dead
        # Write-ahead: the journal records the settle before memory
        # does, so a crash between the two re-settles identically on
        # replay instead of losing the outcome.
        self._journal_op("settle", cid, index, outcome=outcome, error=error)
        self._collect_trace(campaign, index, payload, error, recv_ts)
        # Only a requeued index can have a duplicate copy sitting in
        # pending (outcomes are deterministic, so whichever worker
        # answered first settles it); gating on the set keeps outcome
        # recording O(1) instead of an O(pending) scan per outcome.
        if index in campaign.requeued:
            try:
                campaign.pending.remove(index)
            except ValueError:
                pass
        campaign.settle(index, outcome, error)
        if campaign.on_progress is not None:
            campaign.on_progress(
                campaign.n_done, len(campaign.scenarios), campaign.requeues
            )
        state = campaign.finished_state()
        if state is not None:
            await self._finalize(campaign, state)

    async def _free_slot(
        self, worker: _WorkerConn, cid: object, index: object
    ) -> None:
        worker.in_flight.discard((cid, index))
        async with self._work_available:
            self._work_available.notify_all()

    def _collect_trace(
        self,
        campaign: _Campaign,
        index: int,
        payload: dict,
        error: Optional[object],
        recv_ts: float,
    ) -> None:
        """Fold one settling OUTCOME's trace material into the campaign.

        Closes the in-flight dispatch span, derives the ``net.outcome``
        network hop from the worker's send stamp, adopts the worker's
        streamed spans, and stamps a settle span covering the
        parse + journal work on this side.
        """
        ctx = campaign.traces[index]
        status = "error" if error is not None else "ok"
        hop = ctx.hop(
            "net.outcome",
            payload.get("sent_ts"),
            recv_ts,
            service="coordinator",
            parent_span_id=campaign.close_dispatch(index, recv_ts, status),
        )
        if hop is not None:
            campaign.trace_spans.append(hop)
        spans = payload.get("trace_spans")
        if isinstance(spans, list):
            for item in spans:
                try:
                    campaign.trace_spans.append(TraceSpan.from_json(item))
                except SchemaError as exc:
                    count_rejected("trace_span", exc)
        campaign.trace_spans.append(
            ctx.span(
                "cluster.settle",
                ts_s=recv_ts,
                duration_s=time.time() - recv_ts,
                service="coordinator",
                status=status,
            )
        )

    async def _drop_worker(self, worker: _WorkerConn) -> None:
        """Unregister a worker; requeue whatever it was running."""
        worker.closed = True
        self._workers.pop(worker.worker_id, None)
        self._set_gauges()
        requeued_here = 0
        async with self._work_available:
            # Front of the queue, lowest index first: a crashed worker's
            # scenarios are the oldest work in flight, finish them first.
            for cid, index in sorted(worker.in_flight, reverse=True):
                campaign = self._campaigns.get(cid)
                if campaign is None or campaign.settled(index):
                    continue
                campaign.excluded.setdefault(index, set()).add(
                    worker.worker_id
                )
                campaign.pending.appendleft(index)
                campaign.requeued.add(index)
                campaign.requeues += 1
                self.requeues += 1
                requeued_here += 1
                campaign.close_dispatch(index, time.time(), ABANDONED)
            worker.in_flight.clear()
            self._work_available.notify_all()
        if requeued_here:
            get_registry().counter(
                "repro_cluster_requeues_total",
                help="Scenarios requeued after losing their worker.",
            ).inc(requeued_here)
            logger.warning(
                "worker %r dropped with %d scenario(s) in flight; requeued",
                worker.name,
                requeued_here,
            )

    async def _watchdog(self) -> None:
        """Heartbeat workers; declare silent ones dead."""
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_s)
            now = loop.time()
            heartbeats = get_registry().counter(
                "repro_cluster_heartbeats_total",
                help="Heartbeat frames sent to cluster workers.",
            )
            for worker in list(self._workers.values()):
                if now - worker.last_seen > self.worker_timeout_s:
                    # Abort the transport: the serve loop's read fails,
                    # which funnels into _drop_worker and the requeue.
                    logger.warning(
                        "worker %r silent for %.1fs (timeout %.1fs); "
                        "declaring it dead",
                        worker.name,
                        now - worker.last_seen,
                        self.worker_timeout_s,
                    )
                    worker.writer.transport.abort()
                    continue
                if await _send_or_abort(
                    worker.writer,
                    worker.send(HEARTBEAT, {"t": now}),
                    self.heartbeat_s,
                ):
                    heartbeats.inc()
                else:
                    logger.warning(
                        "heartbeat to worker %r failed; aborted its "
                        "connection",
                        worker.name,
                    )

    # -- control plane: queue management ----------------------------------------

    async def _serve_control(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer SUBMIT/STATUS/CANCEL/FETCH requests with ACKs."""
        async for frame in _frames(reader):
            if frame.type == HEARTBEAT:
                continue
            payload = frame.payload
            reply: dict
            try:
                if frame.type == SUBMIT:
                    scenarios = [
                        schema.scenario_spec_from_wire(spec)
                        for spec in payload.get("scenarios", ())
                    ]
                    if not scenarios:
                        raise ClusterError("SUBMIT carries no scenarios")
                    cid = await self.submit_campaign(
                        scenarios,
                        campaign_id=payload.get("campaign_id"),
                        trace_dir=payload.get("trace_dir"),
                        cache_dir=payload.get("cache_dir"),
                        fail_fast=bool(payload.get("fail_fast", False)),
                        detector_config=schema.detector_config_from_wire(
                            payload.get("detector_config")
                        ),
                        client_trace=payload.get("trace"),
                    )
                    reply = {"ok": True, "campaign_id": cid}
                elif frame.type == STATUS:
                    reply = {"ok": True, "queue": self.queue_status()}
                elif frame.type == CANCEL:
                    cid = payload.get("campaign_id")
                    cancelled = await self.cancel_campaign(cid)
                    reply = {"ok": True, "cancelled": cancelled}
                elif frame.type == FETCH:
                    reply = self._fetch_reply(payload.get("campaign_id"))
                else:
                    raise ClusterProtocolError(
                        f"unexpected {frame.type} frame from control client"
                    )
            except (ClusterError, SchemaError) as exc:
                reply = {"ok": False, "error": str(exc)}
            reply["req"] = payload.get("req")
            await send_frame(writer, ACK, reply)

    def _fetch_reply(self, campaign_id: object) -> dict:
        campaign = self._campaign(campaign_id)
        if not campaign.done.is_set():
            raise ClusterError(
                f"campaign {campaign_id!r} is still running "
                f"({campaign.n_done}/{len(campaign.scenarios)})"
            )
        reply = {
            "ok": True,
            "state": campaign.close_reason or "completed",
            "outcomes": [
                outcome.to_json()
                for outcome in campaign.outcomes
                if outcome is not None
            ],
            "errors": {
                str(index): error
                for index, error in campaign.errors.items()
            },
        }
        if campaign.trace_spans:
            # Clients can land the spans in a local store without
            # coordinator-side disk.
            reply["trace_spans"] = [
                item.to_json() for item in campaign.trace_spans
            ]
        return reply

    # -- live plane: remote supervisors and watchers ----------------------------

    async def _serve_live(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        async for frame in _frames(reader):
            if frame.type == HEARTBEAT:
                continue
            if frame.type != DETECTION:
                raise ClusterProtocolError(
                    f"unexpected {frame.type} frame from live supervisor"
                )
            # Shedding counts a queued frame's detections, so a frame
            # without a detection list is refused here, not in the fold.
            detections = frame.payload.get("detections", [])
            if not isinstance(detections, list):
                count_rejected(
                    "detection_frame",
                    f"detections is a {type(detections).__name__}, "
                    "not a list",
                )
                continue
            if self.live_backpressure == "block":
                # Pausing this reader applies TCP backpressure all the
                # way back to the remote supervisor's forwarder queue.
                await self._live_queue.put(frame.payload)
                continue
            shed = sum(
                len(dropped.get("detections", ()))
                for dropped in put_drop_oldest(self._live_queue, frame.payload)
            )
            if shed:
                self.lag_events += shed
                get_registry().counter(
                    "repro_live_lag_records_total",
                    help="Records shed by drop_oldest backpressure.",
                ).inc(shed)

    async def _fold_live(self) -> None:
        """Single consumer folding live-plane frames into the rollups."""
        while True:
            payload = await self._live_queue.get()
            # Broad except around the whole fold: this task lives for
            # the coordinator's lifetime, and a peer's malformed frame
            # (bad watermark type, unfoldable detection fields, ...)
            # must cost that one frame, never the live plane.
            try:
                session_id = str(payload["session_id"])
                detections = schema.detections_from_wire(
                    payload.get("detections", ())
                )
                chains = schema.chains_from_wire(payload.get("chains", ()))
                watermark = payload.get("watermark_us")
                if watermark is not None:
                    watermark = int(watermark)
                if session_id not in self._live_started:
                    self._live_started[session_id] = (
                        asyncio.get_running_loop().time()
                    )
                    self.live.register(
                        session_id,
                        profile=str(payload.get("profile", "")),
                        impairment=str(payload.get("impairment", "none")),
                    )
                self.live.update(session_id, detections, chains, watermark)
            except Exception as exc:
                count_rejected(
                    "detection_frame", f"{type(exc).__name__}: {exc}"
                )

    async def _serve_watch(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        await send_frame(
            writer, SNAPSHOT, {"snapshot": self.live_snapshot().to_json()}
        )
        self._watchers.append(writer)
        try:
            async for _ in _frames(reader):
                pass
        finally:
            if writer in self._watchers:
                self._watchers.remove(writer)

    def live_snapshot(self) -> FleetSnapshot:
        """Fleet-wide rollup of everything the live plane has folded."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:
            now = self._started_at or 0.0
        started = self._started_at if self._started_at is not None else now
        sessions = []
        for outcome in self.live.session_outcomes():
            wall_s = max(
                now - self._live_started.get(outcome.scenario, now), 1e-9
            )
            sessions.append(
                SessionSnapshot(
                    session_id=outcome.scenario,
                    profile=outcome.profile,
                    impairment=outcome.impairment,
                    # Remote: liveness is the supervisor's call.
                    state=RUNNING,
                    watermark_s=outcome.duration_s,
                    wall_s=wall_s,
                    realtime_factor=outcome.duration_s / wall_s,
                    lag_events=0,
                    queue_depth=0,
                    buffered_records=0,
                    pending_records=0,
                    eviction_watermark_s=0.0,
                    windows=outcome.n_windows,
                    detected_windows=outcome.n_detected_windows,
                )
            )
        self._seq += 1
        return self.live.snapshot(
            seq=self._seq,
            wall_s=max(now - started, 1e-9),
            sessions=sessions,
            lag_events=self.lag_events,
            health={
                "workers_alive": float(len(self._workers)),
                "requeues": float(self.requeues),
                "live_queue_depth": float(self._live_queue.qsize()),
                "lag_records": float(self.lag_events),
                "campaigns_active": float(len(self._campaigns)),
                "journal_records": float(
                    getattr(self._journal, "records_total", 0)
                ),
            },
        )

    async def _snapshot_loop(self) -> None:
        while True:
            await asyncio.sleep(self.snapshot_every_s)
            if not (self.publisher.active or self._watchers):
                continue
            snapshot = self.live_snapshot()
            self.publisher.publish(snapshot)
            payload = {"snapshot": snapshot.to_json()}
            for writer in list(self._watchers):
                if not await _send_or_abort(
                    writer,
                    send_frame(writer, SNAPSHOT, payload),
                    self.snapshot_every_s,
                ) and writer in self._watchers:
                    self._watchers.remove(writer)


__all__ = ["ClusterCoordinator"]
