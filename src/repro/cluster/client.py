"""Client-side cluster helpers: forward detections, watch, control.

:class:`DetectionForwarder` bridges the local live service to a remote
coordinator's live plane.  Its :meth:`sink` matches the
:data:`~repro.live.supervisor.DetectionSink` signature exactly, so a
:class:`~repro.live.service.LiveRcaService` (or a bare supervisor) can
hand every completed detection batch to the forwarder *in addition to*
its local aggregator — making ``repro watch`` on the coordinator a
fleet-wide dashboard spanning hosts.  The sink never blocks the
detector loop: frames go onto a bounded queue drained by a background
sender, and when the queue is full the oldest frame is shed and its
records counted in :attr:`lag_events` — the same drop-oldest semantics
the live service's own backpressure uses.  With ``reconnect=True`` a
dropped link is redialed with jittered exponential backoff and the
in-hand frame resent, so a coordinator restart costs at most the
frames shed while the queue backed up.

:func:`iter_snapshots` is the other direction: subscribe to a
coordinator as a ``watch`` peer and yield each pushed
:class:`~repro.live.aggregator.FleetSnapshot` (``repro watch
--connect``).

:class:`CoordinatorControl` is the queue-management client behind
``repro cluster queue|status|cancel``: a ``control``-role peer that
submits campaigns, inspects the queue, cancels campaigns, and fetches
finished outcomes over simple request/ACK exchanges.

All three present the coordinator's auth token at HELLO when given one
and dial TLS when given an :class:`ssl.SSLContext` (see
:func:`~repro.cluster.protocol.client_ssl_context`).
"""

from __future__ import annotations

import asyncio
import itertools
import ssl as ssl_module
from typing import (
    AsyncIterator,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro import schema
from repro.core.detector import DetectorConfig, WindowDetection
from repro.errors import ClusterError, ClusterProtocolError, SchemaError
from repro.fleet.executor import SessionOutcome
from repro.fleet.scenarios import ScenarioSpec
from repro.live.aggregator import FleetSnapshot
from repro.live.supervisor import put_drop_oldest
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.spans import get_trace_context
from repro.obs.trace import TraceSpan
from repro.cluster.protocol import (
    ACK,
    BYE,
    CANCEL,
    DETECTION,
    FETCH,
    HEARTBEAT,
    ROLE_CONTROL,
    ROLE_LIVE,
    ROLE_WATCH,
    SNAPSHOT,
    STATUS,
    SUBMIT,
    Backoff,
    count_rejected,
    dial,
    read_frame,
    send_frame,
)

logger = get_logger(__name__)


def _ambient_trace() -> Optional[dict]:
    """The caller's active trace context as a wire dict, if any.

    Attached to outgoing SUBMIT/FETCH/DETECTION frames so a client-side
    trace can be joined to coordinator-side spans; ``None`` when no
    trace is active.
    """
    ctx = get_trace_context()
    to_wire = getattr(ctx, "to_wire", None)
    return to_wire() if callable(to_wire) else None


class DetectionForwarder:
    """Ship (session_id, detections, chains, watermark) to a coordinator.

    Args:
        host / port: coordinator address.
        queue_frames: bound of the outgoing frame queue; a slow or
            distant coordinator sheds oldest frames past this depth.
        heartbeat_s: keepalive interval while idle.
        drain_timeout_s: how long :meth:`close` waits for the sender to
            flush queued frames before dropping them (with a logged
            count).
        auth_token: presented at HELLO when the coordinator requires one.
        ssl_context: dial the coordinator over TLS.
        reconnect: redial a dropped link (jittered exponential backoff
            from ``retry_s`` up to ``reconnect_max_s``) instead of
            silently stopping to forward.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        queue_frames: int = 256,
        heartbeat_s: float = 2.0,
        drain_timeout_s: float = 10.0,
        auth_token: Optional[str] = None,
        ssl_context: Optional[ssl_module.SSLContext] = None,
        reconnect: bool = False,
        retry_s: float = 0.2,
        reconnect_max_s: float = 30.0,
    ) -> None:
        self.host = host
        self.port = port
        self.heartbeat_s = heartbeat_s
        self.drain_timeout_s = drain_timeout_s
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self.reconnect = reconnect
        self.retry_s = retry_s
        self.reconnect_max_s = reconnect_max_s
        #: Detection records shed because the send queue was full (or
        #: dropped undelivered at close).
        self.lag_events = 0
        self._meta: Dict[str, Tuple[str, str]] = {}
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_frames)
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._send_lock = asyncio.Lock()
        self._sender: Optional[asyncio.Task] = None
        self._heartbeat: Optional[asyncio.Task] = None
        self._closing = False

    async def _dial(self) -> None:
        self._reader, self._writer, self.heartbeat_s = await dial(
            self.host,
            self.port,
            ROLE_LIVE,
            auth_token=self.auth_token,
            ssl_context=self.ssl_context,
            heartbeat_s=self.heartbeat_s,
        )

    async def start(self) -> "DetectionForwarder":
        """Connect and handshake as a live-plane peer."""
        await self._dial()
        self._sender = asyncio.create_task(self._send_loop())
        self._heartbeat = asyncio.create_task(self._heartbeat_loop())
        return self

    def register(
        self, session_id: str, profile: str = "", impairment: str = "none"
    ) -> None:
        """Attach rollup labels to a session's future frames."""
        self._meta[session_id] = (profile, impairment)

    def sink(
        self,
        session_id: str,
        detections: Sequence[WindowDetection],
        chains: Sequence[Tuple[str, ...]],
        watermark_us: int,
    ) -> None:
        """DetectionSink-compatible enqueue (synchronous, never blocks)."""
        if self._closing:
            # close() already queued the shutdown sentinel, and the
            # sender stops there: a frame behind it would never leave.
            self.lag_events += len(detections)
            return
        profile, impairment = self._meta.get(session_id, ("", "none"))
        payload = {
            "session_id": session_id,
            "profile": profile,
            "impairment": impairment,
            "detections": schema.detections_to_wire(detections),
            "chains": schema.chains_to_wire(chains),
            "watermark_us": watermark_us,
        }
        trace = _ambient_trace()
        if trace is not None:
            payload["trace"] = trace
        shed = put_drop_oldest(self._queue, payload)
        self.lag_events += sum(len(frame["detections"]) for frame in shed)

    async def _send_frame_locked(self, frame_type: str, payload: dict) -> None:
        # Sender and heartbeat share the socket; the lock keeps their
        # frames from interleaving mid-write.
        async with self._send_lock:
            if self._reader.at_eof():
                # The coordinator sends nothing after HELLO, so EOF means
                # it closed its end: a write would still succeed locally
                # and the frame would vanish uncounted.
                raise ConnectionResetError("coordinator closed the connection")
            await send_frame(self._writer, frame_type, payload)

    def _drop(self, frames: Sequence[Optional[dict]], why: str) -> None:
        """Count undelivered *frames* in :attr:`lag_events`, logged."""
        frames = [frame for frame in frames if frame is not None]
        if not frames:
            return
        records = sum(len(frame.get("detections", ())) for frame in frames)
        self.lag_events += records
        logger.warning(
            "forwarder %s: dropping %d frame(s) (%d detection record(s))",
            why,
            len(frames),
            records,
        )

    async def _send_loop(self) -> None:
        while True:
            payload = await self._queue.get()
            if payload is None:
                return
            while True:
                try:
                    await self._send_frame_locked(DETECTION, payload)
                    break
                except ClusterProtocolError:
                    # Unsendable frame (e.g. a batch over
                    # MAX_FRAME_BYTES): shed it — redialing would just
                    # fail on the same frame forever.
                    self._drop([payload], "cannot send a frame")
                    break
                except Exception:
                    # Coordinator gone.  Without reconnect, forwarding
                    # stops with this frame undelivered; the local
                    # service keeps running and sheds into lag_events,
                    # and close() counts what is left queued.
                    if (
                        not self.reconnect
                        or self._closing
                        or not await self._redial()
                    ):
                        self._drop([payload], "lost the coordinator")
                        return

    async def _redial(self) -> bool:
        """Backoff-redial until connected, closing, or cancelled."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        backoff = Backoff(self.retry_s, self.reconnect_max_s)
        while not self._closing:
            try:
                await self._dial()
            except (OSError, ClusterError):
                await backoff.sleep()
                continue
            get_registry().counter(
                "repro_forwarder_reconnects_total",
                help="Times a detection forwarder redialed its coordinator.",
            ).inc()
            logger.info(
                "forwarder reconnected to %s:%d", self.host, self.port
            )
            return True
        return False

    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_s)
            try:
                await self._send_frame_locked(HEARTBEAT, {"t": loop.time()})
            except (ConnectionError, ClusterError, OSError):
                if not self.reconnect:
                    return
                # The sender owns redialing; keep ticking so keepalives
                # resume on the fresh link.
                continue

    async def close(self) -> None:
        """Flush queued frames, say BYE, and disconnect.

        Never blocks indefinitely: the sender gets ``drain_timeout_s``
        to flush.  Whatever is still queued after that, or after a lost
        coordinator ended the sender early, is dropped with a logged
        count (and folded into :attr:`lag_events`) rather than silently
        discarded.
        """
        self._closing = True
        if self._sender is not None:
            if not self._sender.done():
                # Sentinel: drain, then stop.  A dead or slow consumer
                # with a full queue sheds its oldest frame for it.
                shed = put_drop_oldest(self._queue, None)
                self.lag_events += sum(
                    len(frame["detections"]) for frame in shed
                )
            why = "sender stopped early"
            try:
                await asyncio.wait_for(
                    self._sender, timeout=self.drain_timeout_s
                )
            except (asyncio.TimeoutError, asyncio.CancelledError):
                # wait_for cancelled the wedged sender.
                why = f"drain timed out after {self.drain_timeout_s:.1f}s"
            except Exception:
                pass  # the sender's stored failure; close() stays quiet
            left = []
            while not self._queue.empty():
                left.append(self._queue.get_nowait())
            self._drop(left, why)
            self._sender = None
        if self._heartbeat is not None:
            self._heartbeat.cancel()
            try:
                await self._heartbeat
            except asyncio.CancelledError:
                pass
            self._heartbeat = None
        if self._writer is not None:
            try:
                await send_frame(self._writer, BYE, {"reason": "done"})
            except (ConnectionError, OSError):
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None


async def iter_snapshots(
    host: str,
    port: int,
    *,
    auth_token: Optional[str] = None,
    ssl_context: Optional[ssl_module.SSLContext] = None,
) -> AsyncIterator[FleetSnapshot]:
    """Subscribe to a coordinator's snapshot stream (``watch`` role).

    Yields each pushed fleet snapshot until the coordinator closes the
    connection.
    """
    reader, writer, _ = await dial(
        host, port, ROLE_WATCH, auth_token=auth_token, ssl_context=ssl_context
    )
    try:
        while True:
            frame = await read_frame(reader)
            if frame is None or frame.type == BYE:
                return
            if frame.type == SNAPSHOT:
                data = frame.payload.get("snapshot")
                if not isinstance(data, dict):
                    raise ClusterProtocolError(
                        "SNAPSHOT frame carries no snapshot object"
                    )
                # Decodes through repro.schema: a coordinator writing a
                # different schema version fails with a clear "schema
                # version X vs Y" error, not a KeyError mid-decode.
                yield FleetSnapshot.from_json(data)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


class CoordinatorControl:
    """Queue-management client: submit / status / cancel / fetch.

    Async context manager::

        async with CoordinatorControl(host, port) as control:
            cid = await control.submit(scenarios)
            print(await control.status())

    Every request carries a client-side ``req`` id echoed in the ACK,
    so replies can never be mis-paired even with heartbeats interleaved.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        auth_token: Optional[str] = None,
        ssl_context: Optional[ssl_module.SSLContext] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._req_ids = itertools.count(1)

    async def start(self) -> "CoordinatorControl":
        self._reader, self._writer, _ = await dial(
            self.host,
            self.port,
            ROLE_CONTROL,
            auth_token=self.auth_token,
            ssl_context=self.ssl_context,
        )
        return self

    async def __aenter__(self) -> "CoordinatorControl":
        return await self.start()

    async def __aexit__(self, *exc_info: object) -> None:
        await self.close()

    async def _call(self, frame_type: str, payload: dict) -> dict:
        if self._writer is None or self._reader is None:
            raise ClusterError("control client is not connected")
        req = next(self._req_ids)
        await send_frame(
            self._writer, frame_type, dict(payload, req=req)
        )
        while True:
            frame = await read_frame(self._reader)
            if frame is None or frame.type == BYE:
                raise ClusterError(
                    "coordinator closed the control connection"
                )
            if frame.type == HEARTBEAT:
                continue
            if frame.type != ACK:
                raise ClusterProtocolError(
                    f"unexpected {frame.type} frame on control connection"
                )
            if frame.payload.get("req") != req:
                continue  # stale reply from an interrupted exchange
            if not frame.payload.get("ok", False):
                raise ClusterError(
                    str(frame.payload.get("error", "request refused"))
                )
            return frame.payload

    async def submit(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        campaign_id: Optional[str] = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
        detector_config: Optional[DetectorConfig] = None,
    ) -> str:
        """Queue a campaign; return its id without waiting for it."""
        reply = await self._call(
            SUBMIT,
            {
                "scenarios": [
                    schema.scenario_spec_to_wire(spec) for spec in scenarios
                ],
                "campaign_id": campaign_id,
                "trace_dir": trace_dir,
                "cache_dir": cache_dir,
                "fail_fast": fail_fast,
                "detector_config": schema.detector_config_to_wire(
                    detector_config
                ),
                "trace": _ambient_trace(),
            },
        )
        return str(reply["campaign_id"])

    async def status(self) -> List[dict]:
        """The coordinator's queue: active campaigns, then history."""
        reply = await self._call(STATUS, {})
        queue = reply.get("queue", [])
        return list(queue) if isinstance(queue, list) else []

    async def cancel(self, campaign_id: str) -> bool:
        """Cancel an active campaign; False if it was not active."""
        reply = await self._call(CANCEL, {"campaign_id": campaign_id})
        return bool(reply.get("cancelled"))

    async def fetch(self, campaign_id: str) -> dict:
        """Fetch a finished campaign's results.

        Returns ``{"state", "outcomes" (decoded SessionOutcomes),
        "errors" (index → message), "trace_spans" (decoded
        TraceSpans)}``; raises
        :class:`ClusterError` while the campaign is still running or
        when it is unknown.
        """
        reply = await self._call(
            FETCH,
            {"campaign_id": campaign_id, "trace": _ambient_trace()},
        )
        spans = []
        for data in reply.get("trace_spans", ()):
            try:
                spans.append(TraceSpan.from_json(data))
            except SchemaError as exc:
                count_rejected("trace_span", exc)
        return {
            "state": reply.get("state", "completed"),
            "outcomes": [
                SessionOutcome.from_json(data)
                for data in reply.get("outcomes", ())
            ],
            "errors": dict(reply.get("errors", {})),
            "trace_spans": spans,
        }

    async def close(self) -> None:
        if self._writer is not None:
            try:
                await send_frame(self._writer, BYE, {"reason": "done"})
            except (ConnectionError, OSError):
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._writer = None
        self._reader = None


__all__ = ["CoordinatorControl", "DetectionForwarder", "iter_snapshots"]
