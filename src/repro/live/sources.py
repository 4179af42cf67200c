"""Streaming telemetry feeds the live RCA service multiplexes.

A :class:`TelemetrySource` is an async producer of time-ordered
batches of per-source column slices, each stamped with a *watermark*: a
promise that every row timestamped before it has been delivered.  The
watermark is what lets a
:class:`~repro.live.supervisor.SessionSupervisor` call
``StreamingDomino.advance(watermark)`` and emit exactly the windows the
offline detector would — row order *within* a batch is free (the
stream sorts internally), but a row arriving after a watermark that
already passed it would change detections.

Two implementations:

* :class:`ReplaySource` — streams a recorded trace (an in-memory
  :class:`~repro.telemetry.records.TelemetryBundle` or a JSONL path) at
  a configurable speed multiplier, or as fast as possible.  Each source
  is a stream of column chunks cut with ``searchsorted``: a bundle's
  source is one chunk, and a JSONL path streams through
  :func:`repro.telemetry.io.iter_chunks`, one pass per record type, so
  a trace far larger than memory replays in bounded space.
* :class:`SimSource` — drives a :class:`~repro.ran.simulator` session
  live, draining the telemetry collector as simulated time advances.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import AsyncIterator, Iterator, Optional, Protocol

import numpy as np

from repro.fleet.scenarios import ScenarioSpec
from repro.telemetry.columns import (
    SCHEMAS,
    RecordColumns,
    Schema,
    typed_sources,
)
from repro.telemetry.io import TraceHeader, iter_chunks, iter_records
from repro.telemetry.records import TelemetryBundle


@dataclass
class TelemetryBatch:
    """One slice of a session's telemetry feed.

    Attributes:
        dci / gnb_log / packets / webrtc_stats: each source's slice, as
            typed columns (record lists are converted at construction),
            in any order within the batch.
        watermark_us: every row timestamped strictly before this has
            been delivered (in this batch or an earlier one).  A feed's
            last batch carries the session's full duration, so every
            remaining window completes.
    """

    dci: RecordColumns = field(default_factory=list)
    gnb_log: RecordColumns = field(default_factory=list)
    packets: RecordColumns = field(default_factory=list)
    webrtc_stats: RecordColumns = field(default_factory=list)
    watermark_us: int = 0

    def __post_init__(self) -> None:
        typed_sources(self)

    @property
    def n_records(self) -> int:
        """Rows in the batch, over all sources."""
        return sum(len(getattr(self, s.source)) for s in SCHEMAS.values())


class TelemetrySource(Protocol):
    """What the live service needs from a per-session telemetry feed."""

    session_id: str
    profile: str
    impairment: str
    gnb_log_available: bool

    def batches(self) -> AsyncIterator[TelemetryBatch]:
        """Yield watermark-stamped batches, in watermark order."""
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
            header = next(iter_records(trace))
            if not isinstance(header, TraceHeader):
                raise TypeError("trace file does not start with a header")
            self.session_id = session_id or header.session_name
            self.gnb_log_available = header.gnb_log_available
            self.duration_us = header.duration_us

    async def batches(self) -> AsyncIterator[TelemetryBatch]:
        # Watermarks clamp to the trace's declared duration: the offline
        # detector only analyzes windows inside it, so a stray row at or
        # past the duration must not open extra windows live.
        runs = [
            _Run(
                schema,
                iter([getattr(self._trace, schema.source)])
                if isinstance(self._trace, TelemetryBundle)
                else _file_chunks(self._trace, schema),
            )
            for schema in SCHEMAS.values()
        ]
        cursor_us = self.batch_us
        while True:
            parts = {run.schema.source: run.cut(cursor_us) for run in runs}
            if all(run.done for run in runs):
                break
            yield TelemetryBatch(
                **parts, watermark_us=min(cursor_us, self.duration_us)
            )
            await _pace(self.speed, self.batch_us)
            cursor_us += self.batch_us
        # The last rows, plus empty tail batches up to the trace's
        # duration when paced (a live feed keeps ticking after the last
        # row), collapsed into the final batch when free-running.
        if self.speed > 0:
            while cursor_us < self.duration_us:
                yield TelemetryBatch(**parts, watermark_us=cursor_us)
                await _pace(self.speed, self.batch_us)
                parts = {}
                cursor_us += self.batch_us
        yield TelemetryBatch(**parts, watermark_us=self.duration_us)


def _file_chunks(path, schema: Schema) -> Iterator[RecordColumns]:
    """The column chunks of one source of a JSONL trace, read in one
    pass over the file."""
    for _, parts in iter_chunks(path, schema.kind):
        if schema.kind in parts:
            yield parts[schema.kind]


class _Run:
    """One source's rows, a stream of column chunks in feed order, cut
    into batches with ``searchsorted`` (each chunk in time order)."""

    def __init__(
        self, schema: Schema, chunks: Iterator[RecordColumns]
    ) -> None:
        self.schema = schema
        self._chunks = map(RecordColumns.in_time_order, chunks)
        self._pull()

    def _pull(self) -> None:
        self._rows, self._start = next(self._chunks, None), 0

    @property
    def done(self) -> bool:
        return self._rows is None

    def cut(self, before_us: int) -> RecordColumns:
        """The next rows stamped before *before_us*."""
        parts = []
        while self._rows is not None:
            start = self._start
            self._start = int(np.searchsorted(self._rows.times, before_us))
            parts.append(self._rows.take(slice(start, self._start)))
            if self._start < len(self._rows):
                break
            self._pull()
        return self.schema.concat(parts)


class SimSource:
    """Drive a simulated call live and stream its telemetry.

    Steps the :class:`~repro.rtc.session.TwoPartySession` a scenario
    describes in *batch_us* slices of simulated time, draining the
    telemetry collector behind a *settle_us* horizon so packet rows are
    emitted only after their receive side had time to join (a drained
    packet carries its receive time as of the drain, and a packet still
    in flight comes out lost; ``settle_us`` plays the role of the
    trace-join delay a real two-point capture pipeline has).

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
                    **collector.drain(horizon), watermark_us=horizon
                )
            await _pace(self.speed, self.batch_us)
        yield TelemetryBatch(
            **collector.drain(self.duration_us), watermark_us=self.duration_us
        )


__all__ = [
    "ReplaySource",
    "SimSource",
    "TelemetryBatch",
    "TelemetrySource",
]
