"""Per-session supervision: one StreamingDomino behind a bounded queue.

A :class:`SessionSupervisor` owns one session's pipeline: a pump task
drains the session's :class:`~repro.live.sources.TelemetrySource` into a
bounded ingest queue, and a consume task feeds each batch into a
:class:`~repro.core.streaming.StreamingDomino`, advances it to the
batch watermark, and hands the completed window detections to the
service's aggregator.  Every batch is one advance: the stream ingests
only the bins that batch made final, so a window's detection arrives
one ingest batch after its data.

Backpressure policy is explicit:

* ``"block"`` (default) — the pump awaits queue space, pausing the
  source; nothing is ever dropped, so a replayed trace yields
  detections byte-identical to the offline detector.
* ``"drop_oldest"`` — the pump never blocks; when the queue is full the
  oldest batch is discarded and its records are counted in
  :attr:`SessionSupervisor.lag_events`.  The mode for wall-clock
  sources where falling behind is worse than losing telemetry.

The supervisor/aggregator split mirrors a worker/coordinator layout: a
supervisor only needs its own feed and detector, so supervisors could
move to other processes or hosts with the aggregator folding their
detections exactly as it does in-process today.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.core.detector import DetectorConfig, WindowDetection
from repro.core.streaming import StreamingDomino
from repro.errors import ConfigError
from repro.live.sources import TelemetryBatch, TelemetrySource
from repro.obs.metrics import get_registry
from repro.obs.spans import span

#: Supervisor lifecycle states, in order of appearance.
RUNNING, DONE, EVICTED, FAILED = "running", "done", "evicted", "failed"

#: on_detections(session_id, detections, chains, watermark_us)
DetectionSink = Callable[
    [str, List[WindowDetection], List[Tuple[str, ...]], int], None
]


@dataclass
class SessionSnapshot:
    """One session's line in a fleet snapshot (JSON-serializable)."""

    session_id: str
    profile: str
    impairment: str
    state: str
    watermark_s: float  # telemetry time processed
    wall_s: float  # wall time since the supervisor started
    realtime_factor: float  # watermark_s / wall_s
    lag_events: int  # records dropped by backpressure
    queue_depth: int
    buffered_records: int  # records fed but not yet ingested
    pending_records: int  # the same count: nothing else is held
    eviction_watermark_s: float  # start of the retained timeline bins
    windows: int
    detected_windows: int

    def to_json(self) -> dict:
        # Canonical serde lives in repro.schema; the import is lazy
        # because schema's registry imports this module's dataclass.
        from repro.schema import session_snapshot_to_wire

        return session_snapshot_to_wire(self)

    @classmethod
    def from_json(cls, data: dict) -> "SessionSnapshot":
        from repro.schema import session_snapshot_from_wire

        return session_snapshot_from_wire(data)


class SessionSupervisor:
    """Supervise one live session end to end.

    Args:
        source: the session's telemetry feed.
        detector_config: Domino configuration for this session.
        queue_batches: ingest queue bound (batches, not records).
        backpressure: ``"block"`` or ``"drop_oldest"`` (see module
            docstring).
        on_detections: sink invoked with every non-empty detection
            batch, typically ``LiveAggregator.update`` via the service.
    """

    def __init__(
        self,
        source: TelemetrySource,
        detector_config: Optional[DetectorConfig] = None,
        *,
        queue_batches: int = 64,
        backpressure: str = "block",
        on_detections: Optional[DetectionSink] = None,
    ) -> None:
        if backpressure not in ("block", "drop_oldest"):
            raise ConfigError(
                "backpressure must be 'block' or 'drop_oldest', "
                f"not {backpressure!r}"
            )
        self.source = source
        self.stream = StreamingDomino(
            config=detector_config or DetectorConfig(),
            gnb_log_available=source.gnb_log_available,
        )
        self.backpressure = backpressure
        self.on_detections = on_detections
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=queue_batches)
        self.lag_events = 0
        self.watermark_us = 0
        self._feed_watermark_us = 0
        self.detected_windows = 0
        self.state = RUNNING
        self.error: Optional[BaseException] = None
        self._started_at: Optional[float] = None
        self.last_progress_at: Optional[float] = None
        self._tasks: List[asyncio.Task] = []

    # -- identity ---------------------------------------------------------------

    @property
    def session_id(self) -> str:
        return self.source.session_id

    @property
    def done(self) -> bool:
        return self.state in (DONE, EVICTED, FAILED)

    # -- pipeline ---------------------------------------------------------------

    async def _enqueue(self, batch: Optional[TelemetryBatch]) -> None:
        if batch is not None:
            self._feed_watermark_us = max(
                self._feed_watermark_us, batch.watermark_us
            )
        if self.backpressure == "block":
            await self._queue.put(batch)
            return
        while True:
            try:
                self._queue.put_nowait(batch)
                return
            except asyncio.QueueFull:
                dropped = self._queue.get_nowait()
                if dropped is not None:
                    self.lag_events += len(dropped.records)
                    get_registry().counter(
                        "repro_live_lag_records_total",
                        help="Records shed by drop_oldest backpressure.",
                    ).inc(len(dropped.records))
            # Yield so the consumer can run between forced drops.
            await asyncio.sleep(0)

    async def _pump(self) -> None:
        async for batch in self.source.batches():
            await self._enqueue(batch)
        await self._enqueue(None)  # end of feed

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self._queue.get()
            if batch is None:
                # End of feed.  Flush to the feed's final watermark:
                # drop-oldest may have discarded late batches (their
                # records are lost and counted as lag), but the tail
                # windows they would have completed must still emit.
                self._flush(self._feed_watermark_us)
                break
            with span(
                "live.drain",
                session=self.session_id,
                n_records=len(batch.records),
            ):
                for record in batch.records:
                    self.stream.feed(record)
            self.last_progress_at = loop.time()
            self._flush(batch.watermark_us)
            # One batch per loop turn: keep 64 sessions interleaving.
            await asyncio.sleep(0)

    def _flush(self, watermark_us: int) -> None:
        """Advance the stream and hand completed windows downstream."""
        with span("live.advance", session=self.session_id):
            detections = self.stream.advance(watermark_us)
        self.watermark_us = max(self.watermark_us, watermark_us)
        if detections:
            self.detected_windows += sum(
                1 for w in detections if w.chain_ids
            )
            if self.on_detections is not None:
                self.on_detections(
                    self.session_id,
                    detections,
                    self.stream.chains,
                    watermark_us,
                )

    async def run(self) -> None:
        """Run the session to completion (or until evicted/cancelled)."""
        if self.done:
            return
        loop = asyncio.get_running_loop()
        self._started_at = self.last_progress_at = loop.time()
        pump = asyncio.create_task(self._pump())
        consume = asyncio.create_task(self._consume())
        self._tasks = [pump, consume]
        try:
            await asyncio.gather(pump, consume)
        except asyncio.CancelledError:
            if self.state == RUNNING:
                self.state = EVICTED
            raise
        except BaseException as exc:
            self.state = FAILED
            self.error = exc
            for task in self._tasks:
                task.cancel()
            raise
        else:
            if self.state == RUNNING:
                self.state = DONE

    def evict(self) -> None:
        """Cancel the session's tasks and mark it evicted (idle feed)."""
        if self.done:
            return
        self.state = EVICTED
        for task in self._tasks:
            task.cancel()

    # -- reporting --------------------------------------------------------------

    def idle_for_s(self, now: float) -> float:
        """Seconds since the consumer last made progress."""
        if self.last_progress_at is None:
            return 0.0
        return now - self.last_progress_at

    def snapshot(self, now: float) -> SessionSnapshot:
        wall_s = max(
            now - (self._started_at if self._started_at is not None else now),
            1e-9,
        )
        return SessionSnapshot(
            session_id=self.session_id,
            profile=self.source.profile,
            impairment=self.source.impairment,
            state=self.state,
            watermark_s=self.watermark_us / 1e6,
            wall_s=wall_s,
            realtime_factor=self.watermark_us / 1e6 / wall_s,
            lag_events=self.lag_events,
            queue_depth=self._queue.qsize(),
            buffered_records=self.stream.buffered_records,
            pending_records=self.stream.buffered_records,
            eviction_watermark_s=self.stream.eviction_watermark_us / 1e6,
            windows=self.stream.windows_emitted,
            detected_windows=self.detected_windows,
        )


__all__ = [
    "DONE",
    "EVICTED",
    "FAILED",
    "RUNNING",
    "SessionSnapshot",
    "SessionSupervisor",
]
