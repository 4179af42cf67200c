"""Near-real-time streaming detection.

§1 positions Domino for telemetry "network operators can provide on a
continuous, near real-time basis".  :class:`StreamingDomino` consumes
records incrementally: feed it telemetry as it arrives, call
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
any advance cadence.  Memory stays bounded: records are held only until
their bin is ingested, and bins only until the next window starts past
them.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.detector import DetectorConfig, DominoDetector, WindowDetection
from repro.core.features import window_step_bins
from repro.obs.metrics import get_registry
from repro.telemetry.records import (
    DciRecord,
    GnbLogRecord,
    PacketRecord,
    TelemetryBundle,
    WebRtcStatsRecord,
    record_time_us,
)
from repro.telemetry.timeline import Timeline

#: Record types the stream accepts, in TelemetryBundle field order.
_RECORD_TYPES = (DciRecord, GnbLogRecord, PacketRecord, WebRtcStatsRecord)


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
        # Records awaiting ingest as (ts, seq, record); feed() appends
        # and the next advance() sorts once, so the ingest cut is a
        # bisect.  seq keeps the sort stable for equal timestamps
        # (records never get compared).
        self._records: List[Tuple[int, int, object]] = []
        self._n_sorted = 0
        self._seq = 0
        self.windows_emitted = 0
        self.sorts_performed = 0
        self.late_records = 0

    # -- ingestion ---------------------------------------------------------------

    def feed_dci(self, record: DciRecord) -> None:
        self.feed(record)

    def feed_gnb_log(self, record: GnbLogRecord) -> None:
        self.feed(record)

    def feed_packet(self, record: PacketRecord) -> None:
        self.feed(record)

    def feed_webrtc_stats(self, record: WebRtcStatsRecord) -> None:
        self.feed(record)

    def feed(self, record) -> None:
        """Type-dispatching convenience ingester.

        A record timestamped before the ingested horizon (a late record,
        or a re-feed of one already ingested) cannot change a final bin:
        it is counted in :attr:`late_records` and not buffered.
        """
        if type(record) not in _RECORD_TYPES:
            raise TypeError(f"not a telemetry record: {record!r}")
        if isinstance(record, GnbLogRecord) and not self.gnb_log_available:
            return
        ts = record_time_us(record)
        if ts < self._ingested_bin * self.config.dt_us:
            self.late_records += 1
            get_registry().counter(
                "repro_stream_late_records_total",
                help="Records fed behind the streaming ingest horizon.",
            ).inc()
            return
        entry = (ts, self._seq, record)
        # In-order feeds (the common live case: a collector tailing
        # time-ordered sources) keep the buffer sorted as they append,
        # so advance() never has to re-sort; only a genuinely
        # out-of-order arrival invalidates the sorted prefix.
        if self._n_sorted == len(self._records) and (
            not self._records or self._records[-1] <= entry
        ):
            self._n_sorted += 1
        self._records.append(entry)
        self._seq += 1

    def _ensure_sorted(self) -> None:
        if self._n_sorted < len(self._records):
            self._records.sort()
            self._n_sorted = len(self._records)
            self.sorts_performed += 1

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
        self._ensure_sorted()
        cut = bisect.bisect_left(self._records, (end_bin * dt_us,))
        by_type = {kind: [] for kind in _RECORD_TYPES}
        for _, _, record in self._records[:cut]:
            by_type[type(record)].append(record)
        del self._records[:cut]
        self._n_sorted -= cut
        dci, gnb_log, packets, webrtc_stats = by_type.values()
        bundle = TelemetryBundle(
            session_name="stream",
            duration_us=end_bin * dt_us,
            cellular_client=self.cellular_client,
            wired_client=self.wired_client,
            gnb_log_available=self.gnb_log_available,
            dci=dci,
            gnb_log=gnb_log,
            packets=packets,
            webrtc_stats=webrtc_stats,
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
        return len(self._records)

    @property
    def eviction_watermark_us(self) -> int:
        """Start of the retained bins: nothing older is held, because no
        future window can reference it."""
        return self._timeline.start_us if self._timeline is not None else 0

    @property
    def frontier_us(self) -> int:
        """Start of the next window advance() will complete."""
        return self._next_window_bin * self.config.dt_us
