"""Streaming telemetry feeds the live RCA service multiplexes.

A :class:`TelemetrySource` is an async producer of time-ordered record
batches, each stamped with a *watermark*: a promise that every record
timestamped before it has been delivered.  The watermark is what lets a
:class:`~repro.live.supervisor.SessionSupervisor` call
``StreamingDomino.advance(watermark)`` and emit exactly the windows the
offline detector would — record order *within* a batch is free (the
stream sorts internally), but a record arriving after a watermark that
already passed it would change detections.

Two implementations:

* :class:`ReplaySource` — streams a recorded trace (an in-memory
  :class:`~repro.telemetry.records.TelemetryBundle` or a JSONL path) at
  a configurable speed multiplier, or as fast as possible.  JSONL paths
  are streamed through :func:`repro.telemetry.io.iter_records` — one
  lazy pass per record type merged by timestamp — so a trace far larger
  than memory replays in bounded space.
* :class:`SimSource` — drives a :class:`~repro.ran.simulator` session
  live, draining the telemetry collector as simulated time advances.
"""

from __future__ import annotations

import asyncio
import heapq
from dataclasses import dataclass, field
from typing import AsyncIterator, Iterable, Iterator, List, Optional, Protocol

from repro.fleet.scenarios import ScenarioSpec
from repro.telemetry.io import TraceHeader, iter_records
from repro.telemetry.records import TelemetryBundle, record_time_us


@dataclass
class TelemetryBatch:
    """One slice of a session's telemetry feed.

    Attributes:
        records: telemetry records, any type mix, any order within the
            batch.
        watermark_us: every record timestamped strictly before this has
            been delivered (in this batch or an earlier one).  A feed's
            last batch carries the session's full duration, so every
            remaining window completes.
    """

    records: List[object] = field(default_factory=list)
    watermark_us: int = 0


class TelemetrySource(Protocol):
    """What the live service needs from a per-session telemetry feed."""

    session_id: str
    profile: str
    impairment: str
    gnb_log_available: bool

    def batches(self) -> AsyncIterator[TelemetryBatch]:
        """Yield watermark-stamped record batches, in watermark order."""
        ...


async def _pace(speed: float, batch_us: int) -> None:
    """Sleep one batch interval at *speed*× realtime (0 = free-run).

    Even the free-running case yields to the event loop once per batch,
    so a multi-session service interleaves sources instead of letting
    one session's feed monopolize the loop.
    """
    if speed > 0:
        await asyncio.sleep(batch_us / 1e6 / speed)
    else:
        await asyncio.sleep(0)


class ReplaySource:
    """Replay a recorded trace as a live telemetry feed.

    Args:
        trace: a :class:`TelemetryBundle`, or a path to a JSONL trace
            written by :func:`repro.telemetry.io.save_bundle`.
        session_id: label for this session in snapshots; defaults to the
            trace's session name.
        speed: realtime multiplier — ``1.0`` replays a 30 s trace in
            30 s of wall time, ``10.0`` in 3 s, ``0`` (default) as fast
            as the consumer keeps up.
        batch_us: telemetry time per emitted batch (the delivery
            granularity a collector tailing live feeds would have).
        profile / impairment: labels for fleet rollups.
    """

    def __init__(
        self,
        trace,
        session_id: Optional[str] = None,
        speed: float = 0.0,
        batch_us: int = 1_000_000,
        profile: str = "",
        impairment: str = "none",
    ) -> None:
        if batch_us <= 0:
            raise ValueError("batch_us must be positive")
        self._trace = trace
        self.speed = speed
        self.batch_us = batch_us
        self.profile = profile
        self.impairment = impairment
        if isinstance(trace, TelemetryBundle):
            self.session_id = session_id or trace.session_name
            self.gnb_log_available = trace.gnb_log_available
            self.duration_us = trace.duration_us
        else:
            header = next(iter_records(trace, kinds=()))
            if not isinstance(header, TraceHeader):
                raise TypeError("trace file does not start with a header")
            self.session_id = session_id or header.session_name
            self.gnb_log_available = header.gnb_log_available
            self.duration_us = header.duration_us

    # -- record stream ---------------------------------------------------------

    def _merged_records(self) -> Iterator[object]:
        """All records in timestamp order, lazily.

        A bundle holds four per-type lists already sorted by timestamp;
        a JSONL trace holds four per-type sorted runs.  Either way a
        heap merge of four sorted iterators yields a globally
        time-ordered stream without materializing the trace.
        """
        if isinstance(self._trace, TelemetryBundle):
            runs: Iterable[Iterable[object]] = (
                self._trace.dci,
                self._trace.gnb_log,
                self._trace.packets,
                self._trace.webrtc_stats,
            )
        else:
            runs = (
                self._typed_run("dci"),
                self._typed_run("gnb"),
                self._typed_run("pkt"),
                self._typed_run("webrtc"),
            )
        return heapq.merge(*runs, key=record_time_us)

    def _typed_run(self, kind: str) -> Iterator[object]:
        for item in iter_records(self._trace, kinds=(kind,)):
            if not isinstance(item, TraceHeader):
                yield item

    async def batches(self) -> AsyncIterator[TelemetryBatch]:
        # Watermarks clamp to the trace's declared duration: the offline
        # detector only analyzes windows inside it, so a stray record at
        # or past the duration must not open extra windows live.
        cursor_us = self.batch_us
        pending: List[object] = []
        for record in self._merged_records():
            while record_time_us(record) >= cursor_us:
                yield TelemetryBatch(
                    pending, watermark_us=min(cursor_us, self.duration_us)
                )
                await _pace(self.speed, self.batch_us)
                pending = []
                cursor_us += self.batch_us
            pending.append(record)
        # Whatever remains, plus empty tail batches up to the trace's
        # duration when paced (a live feed keeps ticking after the last
        # record), collapsed into the final batch when free-running.
        if self.speed > 0:
            while cursor_us < self.duration_us:
                yield TelemetryBatch(pending, watermark_us=cursor_us)
                await _pace(self.speed, self.batch_us)
                pending = []
                cursor_us += self.batch_us
        yield TelemetryBatch(pending, watermark_us=self.duration_us)


class SimSource:
    """Drive a simulated call live and stream its telemetry.

    Steps the :class:`~repro.rtc.session.TwoPartySession` a scenario
    describes in *batch_us* slices of simulated time, draining the
    telemetry collector behind a *settle_us* horizon so packet records
    are emitted only after their receive side had time to join (the
    collector mutates packet records in place when the far capture point
    reports them; ``settle_us`` plays the role of the trace-join delay a
    real two-point capture pipeline has).

    Args:
        spec: the scenario to simulate.
        session_id: snapshot label; defaults to the scenario name.
        speed: realtime multiplier for emission pacing (0 = as fast as
            the simulation runs).
        batch_us: simulated time per step/batch.
        settle_us: emission lag behind the simulation clock.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        session_id: Optional[str] = None,
        speed: float = 0.0,
        batch_us: int = 1_000_000,
        settle_us: int = 2_000_000,
    ) -> None:
        if batch_us <= 0:
            raise ValueError("batch_us must be positive")
        if settle_us < 0:
            raise ValueError("settle_us must be >= 0")
        self._session = spec.build_session()
        self.session_id = session_id or spec.name
        self.profile = spec.profile
        self.impairment = spec.impairment.name
        self.speed = speed
        self.batch_us = batch_us
        self.settle_us = settle_us
        self.duration_us = spec.duration_us
        self.gnb_log_available = self._session.collector.gnb_log_available

    async def batches(self) -> AsyncIterator[TelemetryBatch]:
        session = self._session
        collector = session.collector
        while session.now_us < self.duration_us:
            now = session.advance_to(
                min(session.now_us + self.batch_us, self.duration_us)
            )
            horizon = now - self.settle_us
            if horizon > 0:
                yield TelemetryBatch(
                    collector.drain(horizon), watermark_us=horizon
                )
            await _pace(self.speed, self.batch_us)
        yield TelemetryBatch(
            collector.drain(self.duration_us), watermark_us=self.duration_us
        )


__all__ = [
    "ReplaySource",
    "SimSource",
    "TelemetryBatch",
    "TelemetrySource",
    "record_time_us",
]
