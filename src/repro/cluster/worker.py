"""The cluster worker: dispatched scenarios on a local process pool.

A :class:`ClusterWorker` is the execution half of the batch plane: it
connects to a :class:`~repro.cluster.coordinator.ClusterCoordinator`
(optionally over TLS, optionally presenting an auth token at HELLO),
announces how many scenario *slots* it offers, and runs every
``DISPATCH`` it receives through the exact same
:func:`~repro.fleet.executor.run_scenario` the local process-pool
executor uses — one :class:`~concurrent.futures.ProcessPoolExecutor`
sized to its slot count, so simulation never blocks the event loop and
heartbeats keep flowing while scenarios run.  Each finished scenario is
answered with an ``OUTCOME`` frame; a scenario that raises is answered
with an error outcome rather than killing the worker.

The worker is stateless between dispatches: everything a scenario needs
rides in the frame (spec, detector config, trace/cache dirs), which is
what makes coordinator-side requeueing safe — any worker can pick up
any scenario at any time and produce the identical outcome.  The same
property makes ``reconnect=True`` safe: a worker that loses its
coordinator (restart, network blip) redials with jittered exponential
backoff and simply starts taking dispatches again under a fresh worker
id; an outcome finished across the gap is either recorded (first
settle) or ignored as a duplicate.

Shutdown is graceful by design: :meth:`request_stop` (the CLI wires it
to SIGTERM/SIGINT) lets in-flight scenarios finish and deliver their
outcomes, sends ``BYE``, and returns — so draining a host never costs
the campaign completed work.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import ssl as ssl_module
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Set

from repro import schema
from repro.errors import ClusterError, ClusterProtocolError, ConfigError
from repro.fleet.executor import run_scenario_traced
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.spans import new_span_id, span
from repro.obs.trace import TraceContext
from repro.cluster.protocol import (
    BYE,
    DISPATCH,
    HEARTBEAT,
    OUTCOME,
    ROLE_WORKER,
    Backoff,
    dial,
    read_frame,
    send_frame,
)

logger = get_logger(__name__)


class ClusterWorker:
    """Run dispatched scenarios for a coordinator until told to stop.

    Args:
        host / port: coordinator address.
        slots: concurrent scenarios this worker offers (process-pool
            size).
        name: label in coordinator logs; defaults to a coordinator-
            assigned id.
        heartbeat_s: keepalive interval.
        connect_timeout_s: give up the *initial* connection after this
            long.
        retry_s: initial delay between connection attempts; attempts
            back off exponentially (jittered) from here up to
            ``reconnect_max_s``.
        trace_dir / cache_dir: worker-local overrides; when ``None``
            the dispatch frame's values (the coordinator's settings)
            apply.  Paths are interpreted on the *worker's* filesystem.
        auth_token: presented in HELLO; must match the coordinator's
            token when it requires one.
        ssl_context: dial the coordinator over TLS (see
            :func:`~repro.cluster.protocol.client_ssl_context`).
        reconnect: when the established connection drops, redial
            instead of exiting (a deliberate BYE or
            :meth:`request_stop` still exits).
        reconnect_max_s: backoff delay cap between redial attempts.
        reconnect_timeout_s: give up redialing after this long per
            outage (``None`` = keep trying until stopped).
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        slots: int = 1,
        name: Optional[str] = None,
        heartbeat_s: float = 2.0,
        connect_timeout_s: float = 20.0,
        retry_s: float = 0.2,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        auth_token: Optional[str] = None,
        ssl_context: Optional[ssl_module.SSLContext] = None,
        reconnect: bool = False,
        reconnect_max_s: float = 30.0,
        reconnect_timeout_s: Optional[float] = None,
    ) -> None:
        if slots < 1:
            raise ConfigError("slots must be >= 1")
        self.host = host
        self.port = port
        self.slots = slots
        self.name = name
        self.heartbeat_s = heartbeat_s
        self.connect_timeout_s = connect_timeout_s
        self.retry_s = retry_s
        self.trace_dir = trace_dir
        self.cache_dir = cache_dir
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self.reconnect = reconnect
        self.reconnect_max_s = reconnect_max_s
        self.reconnect_timeout_s = reconnect_timeout_s
        self.scenarios_run = 0
        self._writer: Optional[asyncio.StreamWriter] = None
        self._send_lock = asyncio.Lock()
        self._pool: Optional[ProcessPoolExecutor] = None
        self._jobs: Set[asyncio.Task] = set()
        self._stop = False
        self._stop_event: Optional[asyncio.Event] = None

    # -- lifecycle --------------------------------------------------------------

    def request_stop(self) -> None:
        """Ask the worker to finish in-flight scenarios, BYE, and exit.

        Safe to call from a signal handler registered with
        ``loop.add_signal_handler`` (it runs on the event loop); the
        CLI wires SIGTERM and SIGINT here so draining a worker host
        never abandons completed work.
        """
        self._stop = True
        if self._stop_event is not None:
            self._stop_event.set()

    # -- connection -------------------------------------------------------------

    async def _connect(
        self, timeout_s: Optional[float]
    ) -> asyncio.StreamReader:
        """Dial until the coordinator says HELLO.

        Transport errors and EOF before its HELLO (a coordinator caught
        restarting) are retried with backoff until *timeout_s*; a BYE
        or a version mismatch is final.
        """
        loop = asyncio.get_running_loop()
        deadline = None if timeout_s is None else loop.time() + timeout_s
        backoff = Backoff(self.retry_s, self.reconnect_max_s)
        while True:
            if self._stop:
                raise ClusterError("worker stop requested")
            try:
                reader, self._writer, self.heartbeat_s = await dial(
                    self.host,
                    self.port,
                    ROLE_WORKER,
                    auth_token=self.auth_token,
                    ssl_context=self.ssl_context,
                    heartbeat_s=self.heartbeat_s,
                    slots=self.slots,
                    name=self.name,
                )
                return reader
            except OSError:
                pass
            if deadline is not None and loop.time() >= deadline:
                raise ClusterError(
                    f"could not reach coordinator at "
                    f"{self.host}:{self.port} within {timeout_s:.0f}s"
                )
            await backoff.sleep()

    async def _send(self, frame_type: str, payload: dict) -> None:
        if self._writer is None:
            raise ClusterError("worker is not connected")
        async with self._send_lock:
            await send_frame(self._writer, frame_type, payload)

    async def _close_writer(self) -> None:
        if self._writer is None:
            return
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass
        self._writer = None

    # -- main loop --------------------------------------------------------------

    async def run(self) -> None:
        """Serve dispatches until disconnected (or stopped/reconnecting)."""
        self._stop_event = asyncio.Event()
        if self._stop:
            self._stop_event.set()
        # Spawn, not fork: forked pool children would inherit every open
        # socket fd (this worker's coordinator connection — and, when a
        # loopback cluster runs in one process, the coordinator's
        # listener and accepted connections too), keeping TCP sessions
        # half-alive after their owner closes them.  Spawned children
        # start from a fresh interpreter and inherit nothing.
        self._pool = ProcessPoolExecutor(
            max_workers=self.slots,
            mp_context=multiprocessing.get_context("spawn"),
        )
        first = True
        try:
            while not self._stop:
                reader = await self._connect(
                    self.connect_timeout_s
                    if first
                    else self.reconnect_timeout_s
                )
                if not first:
                    get_registry().counter(
                        "repro_worker_reconnects_total",
                        help="Times this worker redialed its coordinator.",
                    ).inc()
                    logger.info(
                        "reconnected to coordinator at %s:%d",
                        self.host,
                        self.port,
                    )
                first = False
                heartbeat = asyncio.create_task(self._heartbeat_loop())
                try:
                    deliberate = await self._serve(reader)
                finally:
                    heartbeat.cancel()
                    await asyncio.gather(heartbeat, return_exceptions=True)
                    await self._close_writer()
                if deliberate or not self.reconnect:
                    return
                logger.warning(
                    "lost coordinator connection; redialing %s:%d",
                    self.host,
                    self.port,
                )
        except ClusterError:
            if self._stop:
                return  # stop requested mid-redial: a clean exit
            raise
        finally:
            for job in list(self._jobs):
                job.cancel()
            await asyncio.gather(*self._jobs, return_exceptions=True)
            self._pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None
            await self._close_writer()

    async def _serve(self, reader: asyncio.StreamReader) -> bool:
        """Serve one connection; True means a deliberate end (stop/BYE).

        False means the link died (EOF or reset) — reconnectable.
        """
        stop_wait = asyncio.create_task(self._stop_event.wait())
        try:
            while True:
                frame_task = asyncio.create_task(read_frame(reader))
                await asyncio.wait(
                    {frame_task, stop_wait},
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if self._stop_event.is_set():
                    # Graceful shutdown: drop the pending read (an
                    # undelivered DISPATCH just gets requeued when the
                    # coordinator sees us go), finish what's running,
                    # say goodbye.
                    frame_task.cancel()
                    await asyncio.gather(frame_task, return_exceptions=True)
                    await self._graceful_bye()
                    return True
                try:
                    frame = frame_task.result()
                except ConnectionError:
                    return False
                if frame is None:
                    return False  # EOF: coordinator went away
                if frame.type == BYE:
                    return True
                if frame.type == DISPATCH:
                    await self._handle_dispatch(frame.payload)
                elif frame.type == HEARTBEAT:
                    continue
                else:
                    raise ClusterProtocolError(
                        f"unexpected {frame.type} frame from coordinator"
                    )
        finally:
            stop_wait.cancel()
            await asyncio.gather(stop_wait, return_exceptions=True)

    async def _graceful_bye(self) -> None:
        """Let in-flight scenarios deliver, then take leave politely."""
        if self._jobs:
            logger.info(
                "stop requested; finishing %d in-flight scenario(s)",
                len(self._jobs),
            )
            await asyncio.gather(*self._jobs, return_exceptions=True)
        try:
            await self._send(BYE, {"reason": "worker shutting down"})
        except (ConnectionError, ClusterError, OSError):
            pass

    async def _heartbeat_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.heartbeat_s)
            try:
                await self._send(HEARTBEAT, {"t": loop.time()})
            except (ConnectionError, ClusterError, OSError):
                return  # the read loop will notice the dead socket

    async def _handle_dispatch(self, payload: dict) -> None:
        """Start one dispatched scenario without blocking the reader."""
        job = asyncio.create_task(self._run_one(payload))
        self._jobs.add(job)
        job.add_done_callback(self._jobs.discard)

    async def _run_one(self, payload: dict) -> None:
        recv_ts = time.time()
        # The DISPATCH's trace context roots this worker's spans: a
        # net.dispatch hop (frame send → receipt), its own
        # cluster.scenario span, and — via the executor seam — every
        # span the pool child records.  A DISPATCH without one is
        # served untraced.
        ctx = TraceContext.from_wire(payload.get("trace"))
        trace_spans: List[dict] = []
        hop = None if ctx is None else ctx.hop(
            "net.dispatch", payload.get("sent_ts"), recv_ts, service="worker"
        )
        if hop is not None:
            trace_spans.append(hop.to_json())
        scenario_span_id = new_span_id()
        reply = {
            "campaign": payload.get("campaign"),
            "index": payload.get("index"),
        }
        status, attrs = "ok", {}
        try:
            spec = schema.scenario_spec_from_wire(payload["spec"])
            config = schema.detector_config_from_wire(
                payload.get("detector_config")
            )
            loop = asyncio.get_running_loop()
            with span("cluster.scenario", scenario=spec.name):
                outcome, child_spans = await loop.run_in_executor(
                    self._pool,
                    functools.partial(
                        run_scenario_traced,
                        spec,
                        config,
                        self.trace_dir or payload.get("trace_dir"),
                        self.cache_dir or payload.get("cache_dir"),
                        None
                        if ctx is None
                        else ctx.child(scenario_span_id).to_wire(),
                    ),
                )
            trace_spans.extend(child_spans)
            reply["outcome"] = outcome.to_json()
            self.scenarios_run += 1
        except asyncio.CancelledError:
            raise
        except BaseException as exc:
            # Report instead of dying: one bad scenario (or a broken
            # pool process) must not cost the worker its other slots.
            spec_payload = payload.get("spec")
            logger.warning(
                "scenario %r failed on this worker: %s: %s",
                (
                    spec_payload.get("name", reply["index"])
                    if isinstance(spec_payload, dict)
                    else reply["index"]
                ),
                type(exc).__name__,
                exc,
            )
            get_registry().counter(
                "repro_cluster_scenario_errors_total",
                help="Dispatched scenarios that raised on this worker.",
            ).inc()
            reply["error"] = f"{type(exc).__name__}: {exc}"
            status, attrs = "error", {"error": type(exc).__name__}
        if ctx is not None:
            trace_spans.append(
                ctx.span(
                    "cluster.scenario",
                    span_id=scenario_span_id,
                    ts_s=recv_ts,
                    duration_s=time.time() - recv_ts,
                    service="worker",
                    status=status,
                    attrs=attrs,
                ).to_json()
            )
        reply["trace_spans"] = trace_spans
        reply["sent_ts"] = time.time()
        try:
            await self._send(OUTCOME, reply)
        except (ConnectionError, ClusterError, OSError):
            pass  # coordinator gone; it will requeue this scenario


__all__ = ["ClusterWorker"]
