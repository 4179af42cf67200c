"""The live RCA service: N concurrent sessions, one rolling fleet view.

:class:`LiveRcaService` multiplexes many
:class:`~repro.live.supervisor.SessionSupervisor` pipelines on one
asyncio loop, folds their detections through a shared
:class:`~repro.live.aggregator.LiveAggregator`, and emits periodic
:class:`~repro.live.aggregator.FleetSnapshot` rollups — to a callback,
and optionally to a JSON file `repro watch` renders.  Housekeeping
evicts sessions whose feed has gone idle, so a wedged source cannot pin
its queue and detector state forever.  Every supervisor advances its
stream once per ingest batch, so detections trail the feed by one batch
and equal offline analysis of the same records by construction.

The service is the coordinator half of a worker/coordinator seam:
supervisors only touch their own source and detector, the aggregator
only consumes (session_id, detections, chains, watermark) tuples — the
shape a multi-host dispatch layer would ship over the wire.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Callable, List, Optional, Sequence

from repro.core.detector import DetectorConfig, WindowDetection
from repro.errors import ConfigError
from repro.live.aggregator import FleetSnapshot, LiveAggregator
from repro.live.sources import TelemetrySource
from repro.live.supervisor import SessionSupervisor
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry, write_metrics_file
from repro.obs.spans import span_quantile_s

logger = get_logger(__name__)


def canonical_detections(detections: Sequence[WindowDetection]) -> str:
    """Canonical serialization of a detection list.

    Byte-for-byte stable across runs for identical detections (floats
    round-trip exactly through ``repr``; feature keys are sorted), so
    equality of two canonical strings is the "byte-identical
    detections" bar the live==offline tests assert.
    """
    return json.dumps(
        [
            {
                "start_us": w.start_us,
                "end_us": w.end_us,
                "features": {
                    name: repr(value)
                    for name, value in sorted(w.features.items())
                },
                "consequences": w.consequences,
                "causes": w.causes,
                "chain_ids": w.chain_ids,
            }
            for w in detections
        ],
        sort_keys=True,
    )


class SnapshotPublisher:
    """Where each fleet snapshot goes, for both live planes.

    The live service and the cluster coordinator each build one
    snapshot per tick and hand it here.  It lands, in order, as an
    atomic versioned file (what ``repro watch`` and
    ``api.read_snapshot`` read), a tee into the historical store
    (opened on first use), a Prometheus-text metrics file, and the
    callback.  A failing sink (missing directory, full disk) is logged
    and counted in ``repro_snapshot_publish_errors_total{sink=...}``,
    and the next snapshot tries it again: a publish problem degrades
    that sink, never the plane publishing it.
    """

    def __init__(
        self,
        *,
        path: Optional[str] = None,
        store_dir: Optional[str] = None,
        metrics_path: Optional[str] = None,
        on_snapshot: Optional[Callable[[FleetSnapshot], None]] = None,
    ) -> None:
        self.path = path
        self.store_dir = store_dir
        self.metrics_path = metrics_path
        self.on_snapshot = on_snapshot
        self._store = None

    @property
    def active(self) -> bool:
        """Whether publishing a snapshot reaches anything at all."""
        return bool(
            self.path or self.store_dir or self.metrics_path or self.on_snapshot
        )

    def store(self):
        """The historical store at ``store_dir``, opened on first use
        (``None`` without one)."""
        if self._store is None and self.store_dir:
            from repro.store import RcaStore

            self._store = RcaStore.open(self.store_dir)
        return self._store

    def publish(self, snapshot: FleetSnapshot) -> None:
        # Lazy: repro.schema's registry imports this package's types.
        from repro.schema import save_snapshot

        if self.path:
            self._guard("file", save_snapshot, snapshot, self.path)
        if self.store_dir:
            self._guard(
                "store",
                lambda: self.store().ingest_snapshot(snapshot, ts=time.time()),
            )
        if self.metrics_path:
            self._guard(
                "metrics", write_metrics_file, get_registry(), self.metrics_path
            )
        if self.on_snapshot is not None:
            self.on_snapshot(snapshot)

    @staticmethod
    def _guard(sink: str, write: Callable, *args: object) -> None:
        try:
            write(*args)
        except Exception as exc:
            get_registry().counter(
                "repro_snapshot_publish_errors_total",
                help="Fleet snapshot publishes that failed (retried on "
                "the next snapshot).",
            ).inc(sink=sink)
            logger.warning(
                "snapshot %s publish failed (%s: %s); retrying on the "
                "next snapshot",
                sink,
                type(exc).__name__,
                exc,
            )

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None


class LiveRcaService:
    """Run many live sessions and aggregate their RCA continuously.

    Args:
        sources: one telemetry feed per session.
        detector_config: Domino configuration shared by all sessions.
        queue_batches / backpressure: per-supervisor knobs (see
            :class:`~repro.live.supervisor.SessionSupervisor`).
        snapshot_every_s: periodic rollup interval.
        idle_timeout_s: evict a session after this long without feed
            progress (None = never evict).
        snapshot_path: write each snapshot there as JSON (atomically),
            for `repro watch`.
        metrics_path: flush a Prometheus-text snapshot of the process
            metrics registry there (atomically) on every fleet
            snapshot — the `--metrics-file` exposition path.
        store_dir: also tee every fleet snapshot into the historical
            store at this directory (created on first write) — the
            `--store` retention path.  Purely additive: detections and
            snapshots are byte-identical with the tee on or off.
        on_snapshot: callback invoked with each periodic snapshot.
        detection_sink: extra sink invoked with every detection batch
            *in addition to* the local aggregator — the hook a
            :class:`~repro.cluster.client.DetectionForwarder` plugs
            into to mirror this service's detections onto a remote
            cluster coordinator.
    """

    def __init__(
        self,
        sources: Sequence[TelemetrySource],
        detector_config: Optional[DetectorConfig] = None,
        *,
        queue_batches: int = 64,
        backpressure: str = "block",
        snapshot_every_s: float = 0.5,
        idle_timeout_s: Optional[float] = None,
        snapshot_path: Optional[str] = None,
        metrics_path: Optional[str] = None,
        store_dir: Optional[str] = None,
        on_snapshot: Optional[Callable[[FleetSnapshot], None]] = None,
        detection_sink=None,
    ) -> None:
        if not sources:
            raise ConfigError("need at least one telemetry source")
        ids = [source.session_id for source in sources]
        if len(set(ids)) != len(ids):
            raise ConfigError("session ids must be unique")
        self.aggregator = LiveAggregator()
        self.detection_sink = detection_sink
        self.supervisors: List[SessionSupervisor] = []
        for source in sources:
            self.aggregator.register(
                source.session_id, source.profile, source.impairment
            )
            self.supervisors.append(
                SessionSupervisor(
                    source,
                    detector_config,
                    queue_batches=queue_batches,
                    backpressure=backpressure,
                    on_detections=self._fold_detections,
                )
            )
        self.snapshot_every_s = snapshot_every_s
        self.idle_timeout_s = idle_timeout_s
        self.publisher = SnapshotPublisher(
            path=snapshot_path,
            store_dir=store_dir,
            metrics_path=metrics_path,
            on_snapshot=on_snapshot,
        )
        self._seq = 0
        self._started_at: Optional[float] = None
        self._last_now = 0.0

    def _fold_detections(self, session_id, detections, chains, watermark_us):
        """Aggregate locally, then mirror to the extra sink (if any)."""
        self.aggregator.update(session_id, detections, chains, watermark_us)
        if self.detection_sink is not None:
            self.detection_sink(session_id, detections, chains, watermark_us)

    # -- snapshots --------------------------------------------------------------

    def snapshot(self) -> FleetSnapshot:
        """Build the current fleet rollup (incremental, O(sessions))."""
        try:
            now = asyncio.get_running_loop().time()
        except RuntimeError:  # outside the loop (after run() returned)
            now = self._last_now
        self._last_now = now
        started = self._started_at if self._started_at is not None else now
        sessions = []
        for supervisor in self.supervisors:
            # Keep each session's processed-duration clock fresh even
            # when its recent windows held no detections.
            self.aggregator.note_watermark(
                supervisor.session_id, supervisor.watermark_us
            )
            sessions.append(supervisor.snapshot(now))
        self._seq += 1
        snapshot = self.aggregator.snapshot(
            seq=self._seq,
            wall_s=now - started,
            sessions=sessions,
            lag_events=sum(s.lag_events for s in sessions),
            health=self._health(sessions),
        )
        self.publisher.publish(snapshot)
        return snapshot

    @staticmethod
    def _health(sessions) -> dict:
        """Pipeline-health metrics piggybacked on every snapshot.

        The `repro watch` fleet-health pane renders exactly this dict,
        so anything added here shows up on every watcher for free.
        """
        depths = [s.queue_depth for s in sessions]
        health = {
            "sessions_lagging": float(
                sum(1 for s in sessions if s.lag_events)
            ),
            "lag_records": float(sum(s.lag_events for s in sessions)),
            "queue_depth_max": float(max(depths, default=0)),
            "queue_depth_mean": (
                float(sum(depths)) / len(depths) if depths else 0.0
            ),
        }
        for label, q in (("p50", 0.50), ("p99", 0.99)):
            quantile = span_quantile_s("live.advance", q)
            if quantile is not None:
                health[f"advance_{label}_ms"] = quantile * 1e3
        return health

    # -- main loop --------------------------------------------------------------

    async def _housekeeping(self) -> None:
        loop = asyncio.get_running_loop()
        while not all(s.done for s in self.supervisors):
            await asyncio.sleep(self.snapshot_every_s)
            if self.idle_timeout_s is not None:
                now = loop.time()
                for supervisor in self.supervisors:
                    if (
                        not supervisor.done
                        and supervisor.idle_for_s(now) > self.idle_timeout_s
                    ):
                        supervisor.evict()
            self.snapshot()

    async def run(self) -> FleetSnapshot:
        """Run every session to completion; return the final snapshot.

        A failed session does not take the service down — its state is
        reported as ``failed`` in snapshots; eviction likewise.  The
        first failure's exception is available on the supervisor's
        ``error`` attribute.
        """
        loop = asyncio.get_running_loop()
        self._started_at = self._last_now = loop.time()
        tasks = [
            asyncio.create_task(s.run(), name=f"live:{s.session_id}")
            for s in self.supervisors
        ]
        housekeeping = asyncio.create_task(self._housekeeping())
        await asyncio.gather(*tasks, return_exceptions=True)
        housekeeping.cancel()
        try:
            await housekeeping
        except asyncio.CancelledError:
            pass
        self._last_now = loop.time()
        final = self.snapshot()
        self.publisher.close()
        return final


__all__ = ["LiveRcaService", "SnapshotPublisher", "canonical_detections"]
