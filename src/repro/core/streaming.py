"""Near-real-time streaming detection.

§1 positions Domino for telemetry "network operators can provide on a
continuous, near real-time basis".  :class:`StreamingDomino` consumes
telemetry incrementally: feed it batches of typed columns (or single
records, each buffered as a one-row batch) as they arrive, call
:meth:`advance` with the feed's watermark, and receive detections for
every window whose data is complete.

The stream owns one append-only :class:`~repro.telemetry.timeline.Timeline`
in session time.  Each advance ingests the bins the watermark made
final exactly once (``Timeline.from_bundle(..., after=timeline)``
carries forward-fill state across the seam), appends them, runs the
same :class:`~repro.core.detector.DominoDetector` batch engine as
offline analysis over only the newly completable windows, and drops
bins no future window reads.  Every per-bin value therefore equals the
offline timeline's, so detections are byte-identical to
``DominoDetector.analyze`` over the same records by construction, at
any advance cadence.  Memory stays bounded: rows are held only until
their bin is ingested, and bins only until the next window starts past
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.core.detector import DetectorConfig, DominoDetector, WindowDetection
from repro.core.features import window_step_bins
from repro.obs.metrics import get_registry
from repro.telemetry.columns import (
    GNB_LOG,
    RECORD_SCHEMAS,
    SCHEMAS,
    RecordColumns,
    Schema,
)
from repro.telemetry.records import TelemetryBundle
from repro.telemetry.timeline import Timeline


@dataclass
class StreamingDomino:
    """Incremental Domino over a live telemetry feed.

    Args:
        config: detector configuration (window, step, thresholds, chains).
        cellular_client / wired_client: client-name labels for the
            WebRTC stats feed.
        gnb_log_available: whether gNB records should be kept (when
            False they are ignored, as the telemetry collector does).
    """

    config: DetectorConfig = field(default_factory=DetectorConfig)
    cellular_client: str = "cellular"
    wired_client: str = "wired"
    gnb_log_available: bool = True

    def __post_init__(self) -> None:
        self._detector = DominoDetector(self.config)
        self._window_bins, self._step_bins = window_step_bins(
            self.config.window_us, self.config.step_us, self.config.dt_us
        )
        # Retained bins, [eviction watermark, ingested horizon).
        self._timeline: Optional[Timeline] = None
        self._ingested_bin = 0
        self._next_window_bin = 0
        # Per source, by bundle attribute: column chunks awaiting
        # ingest in feed order (argsorted only when out of order, and
        # cut with searchsorted at each ingest).
        self._chunks = {schema.source: [] for schema in SCHEMAS.values()}
        self._kept = [
            schema
            for schema in SCHEMAS.values()
            if schema is not GNB_LOG or self.gnb_log_available
        ]
        self.windows_emitted = 0
        self.sorts_performed = 0
        self.late_records = 0

    # -- ingestion ---------------------------------------------------------------

    def _count_late(self, n: int) -> None:
        self.late_records += n
        get_registry().counter(
            "repro_stream_late_records_total",
            help="Records fed behind the streaming ingest horizon.",
        ).inc(n)

    def feed(self, record) -> None:
        """Buffer one telemetry record of any type, as a one-row batch
        of its source (see :meth:`feed_batch`)."""
        schema = RECORD_SCHEMAS.get(type(record))
        if schema is None:
            raise TypeError(f"not a telemetry record: {record!r}")
        if schema in self._kept:
            self._buffer(schema, schema.from_rows([schema.row(record)]))

    def feed_batch(self, batch) -> None:
        """Buffer every source of *batch* (a live ``TelemetryBatch`` or
        a ``TelemetryBundle``), rows in any order."""
        for schema in self._kept:
            self._buffer(schema, getattr(batch, schema.source))

    def _buffer(self, schema: Schema, rows: RecordColumns) -> None:
        """Buffer one source's *rows*.

        A row timestamped before the ingested horizon (a late row, or a
        re-feed of one already ingested) cannot change a final bin: it
        is counted in :attr:`late_records` and not buffered.
        """
        late = rows.times < self._ingested_bin * self.config.dt_us
        if late.any():
            self._count_late(int(np.count_nonzero(late)))
            rows = rows.take(~late)
        if len(rows):
            self._chunks[schema.source].append(rows)

    def _cut(self, schema: Schema, end_us: int) -> RecordColumns:
        """The buffered rows of one source stamped before *end_us*, in
        time order; the rest stay buffered as one ordered chunk."""
        rows = schema.concat(self._chunks[schema.source])
        ordered = rows.in_time_order()
        if ordered is not rows:
            self.sorts_performed += 1
        cut = int(np.searchsorted(ordered.times, end_us))
        rest = ordered.take(slice(cut, None))
        self._chunks[schema.source] = [rest] if len(rest) else []
        return ordered.take(slice(None, cut))

    # -- processing ----------------------------------------------------------------

    def advance(self, now_us: int) -> List[WindowDetection]:
        """Process every window that ends at or before *now_us*.

        *now_us* is the feed's watermark: every record timestamped
        before it has been fed.  Returns newly completed window
        detections, in order.
        """
        dt_us = self.config.dt_us
        end_bin = now_us // dt_us
        if end_bin > self._ingested_bin:
            self._ingest(end_bin)
        out: List[WindowDetection] = []
        if self._ingested_bin - self._next_window_bin >= self._window_bins:
            report = self._detector.analyze_timeline(
                self._timeline.since(self._next_window_bin * dt_us)
            )
            out = report.windows
            self._next_window_bin += len(out) * self._step_bins
            self.windows_emitted += len(out)
        # Keep the bins the next window reads, and at least the last
        # one: the next segment's forward-fill continues from it.
        keep_us = min(self._next_window_bin, self._ingested_bin - 1) * dt_us
        if self._timeline is not None and keep_us > self._timeline.start_us:
            self._timeline = self._timeline.since(keep_us)
        return out

    def _ingest(self, end_bin: int) -> None:
        """Append the bins [ingested horizon, *end_bin*) to the timeline."""
        dt_us = self.config.dt_us
        end_us = end_bin * dt_us
        bundle = TelemetryBundle(
            session_name="stream",
            duration_us=end_us,
            cellular_client=self.cellular_client,
            wired_client=self.wired_client,
            gnb_log_available=self.gnb_log_available,
            **{
                schema.source: self._cut(schema, end_us)
                for schema in SCHEMAS.values()
            },
        )
        segment = Timeline.from_bundle(bundle, dt_us, after=self._timeline)
        if self._timeline is None:
            self._timeline = segment
        else:
            self._timeline.extend(segment)
        self._ingested_bin = end_bin

    @property
    def chains(self) -> List[Tuple[str, ...]]:
        """The chain tuples detections' ``chain_ids`` index into."""
        return self._detector.chains

    @property
    def buffered_records(self) -> int:
        """Records fed but not yet ingested (at or past the horizon)."""
        return sum(map(len, itertools.chain(*self._chunks.values())))

    @property
    def eviction_watermark_us(self) -> int:
        """Start of the retained bins: nothing older is held, because no
        future window can reference it."""
        return self._timeline.start_us if self._timeline is not None else 0

    @property
    def frontier_us(self) -> int:
        """Start of the next window advance() will complete."""
        return self._next_window_bin * self.config.dt_us
