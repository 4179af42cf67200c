"""The embedded historical RCA store: segments + a rebuildable index.

Layout of one store directory::

    DIR/
      manifest.json          # stamped store_manifest artifact
      index.sqlite           # derived rollup index (rebuildable)
      segments/
        p<partition>/        # partition = int(ts // partition_s)
          outcomes.jsonl     # session_outcome envelopes
          snapshots.jsonl    # fleet_snapshot envelopes
          metrics.jsonl      # metric_sample envelopes
          alerts.jsonl       # alert_event envelopes
          spans.jsonl        # trace_span envelopes

The JSONL segments are the source of truth: append-only, one
self-describing envelope per line (``{"kind", "v", "data"}`` where
``data`` is the ``repro.schema`` wire dict), partitioned by ingest
timestamp so retention is a directory delete, never a rewrite.  The
sqlite file is only an index over them — :meth:`RcaStore.reindex`
rebuilds it from segments alone, and every query the store answers
(:class:`~repro.store.query.StoreQuery`) reads sqlite, never JSONL.

Each segment is a :class:`~repro.jsonlog.JsonLog`, and one table
(``_KINDS``: wire kind → segment file, index function, ingest op label,
reindex count key) drives both ingest and reindex.  Everything crossing
this boundary goes through the schema codecs: ingest encodes via
``to_wire`` and reindex decodes via ``from_wire``, so a foreign-schema
line is a versioned diagnostic, not a KeyError.  Reindex is one
transaction: a torn tail or a damaged line is logged, counted and
skipped; a foreign schema rolls the index back to what it was.
"""

from __future__ import annotations

import json
import os
import sqlite3
import time
from typing import Any, Callable, Dict, Iterable, List, NamedTuple
from typing import Optional, Tuple

from repro import obs
from repro.obs.trace import TraceSpan
from repro.errors import SchemaError, SchemaVersionError, TelemetryError
from repro.fleet.executor import SessionOutcome, iter_outcomes
from repro.jsonlog import JsonLog, atomic_write
from repro.live.aggregator import FleetSnapshot
from repro.store.model import (
    STORE_LAYOUT_VERSION,
    AlertEvent,
    MetricSample,
    StoreManifest,
)

#: Counter of rows added to the sqlite index, labelled by table.
ROWS_METRIC = "repro_store_rows_total"

#: Histogram of store ingest calls, labelled by op.
INGEST_METRIC = "repro_store_ingest_seconds"

_DDL = """
CREATE TABLE IF NOT EXISTS outcomes (
    id INTEGER PRIMARY KEY,
    ts REAL NOT NULL,
    scenario TEXT NOT NULL,
    profile TEXT NOT NULL,
    impairment TEXT NOT NULL,
    seed TEXT NOT NULL,  -- derive_seed() yields ints wider than 64 bits
    duration_s REAL NOT NULL,
    n_windows INTEGER NOT NULL,
    n_detected_windows INTEGER NOT NULL,
    degradation_events_per_min REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_outcomes_ts ON outcomes(ts);
CREATE INDEX IF NOT EXISTS idx_outcomes_profile ON outcomes(profile, ts);
CREATE INDEX IF NOT EXISTS idx_outcomes_impairment
    ON outcomes(impairment, ts);

CREATE TABLE IF NOT EXISTS episodes (
    outcome_id INTEGER NOT NULL,
    ts REAL NOT NULL,
    kind TEXT NOT NULL,
    name TEXT NOT NULL,
    count REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_episodes_name ON episodes(kind, name, ts);
CREATE INDEX IF NOT EXISTS idx_episodes_ts ON episodes(kind, ts);

CREATE TABLE IF NOT EXISTS qoe_samples (
    outcome_id INTEGER NOT NULL,
    ts REAL NOT NULL,
    metric TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_qoe ON qoe_samples(metric, ts);

CREATE TABLE IF NOT EXISTS snapshots (
    ts REAL NOT NULL,
    seq INTEGER NOT NULL,
    n_sessions INTEGER NOT NULL,
    n_running INTEGER NOT NULL,
    windows INTEGER NOT NULL,
    detected_windows INTEGER NOT NULL,
    degradation_events_per_min REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_snapshots_ts ON snapshots(ts);

CREATE TABLE IF NOT EXISTS snapshot_chains (
    ts REAL NOT NULL,
    chain TEXT NOT NULL,
    total REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_snapshot_chains
    ON snapshot_chains(chain, ts);

CREATE TABLE IF NOT EXISTS metric_samples (
    ts REAL NOT NULL,
    name TEXT NOT NULL,
    labels TEXT NOT NULL,
    value REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_metric_samples
    ON metric_samples(name, ts);

CREATE TABLE IF NOT EXISTS trace_spans (
    ts REAL NOT NULL,  -- ingest stamp: the partition/retention axis
    trace_id TEXT NOT NULL,
    span_id TEXT NOT NULL,
    parent_span_id TEXT NOT NULL,
    name TEXT NOT NULL,
    service TEXT NOT NULL,
    campaign_id TEXT NOT NULL,
    scenario TEXT NOT NULL,
    status TEXT NOT NULL,
    start_ts REAL NOT NULL,  -- the span's own wall clock
    duration_s REAL NOT NULL,
    attrs TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_trace_spans_campaign
    ON trace_spans(campaign_id, ts);
CREATE INDEX IF NOT EXISTS idx_trace_spans_trace
    ON trace_spans(trace_id, start_ts);

CREATE TABLE IF NOT EXISTS alerts (
    ts REAL NOT NULL,
    rule TEXT NOT NULL,
    state TEXT NOT NULL,
    signal TEXT NOT NULL,
    value REAL NOT NULL,
    threshold REAL NOT NULL,
    window_s REAL NOT NULL,
    severity TEXT NOT NULL,
    message TEXT NOT NULL,
    labels TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_alerts_ts ON alerts(ts);
CREATE INDEX IF NOT EXISTS idx_alerts_rule ON alerts(rule, ts);
"""

_TABLES = (
    "outcomes",
    "episodes",
    "qoe_samples",
    "snapshots",
    "snapshot_chains",
    "metric_samples",
    "alerts",
    "trace_spans",
)


def _insert(
    cur: sqlite3.Cursor, table: str, columns: str, rows: List[tuple]
) -> None:
    """Insert *rows* into the index and count them under ROWS_METRIC."""
    marks = ", ".join("?" * (columns.count(",") + 1))
    cur.executemany(f"INSERT INTO {table} ({columns}) VALUES ({marks})", rows)
    obs.get_registry().counter(
        ROWS_METRIC, "Rows added to the store index, by table."
    ).inc(len(rows), table=table)


def _stamp(ts: Optional[float]) -> float:
    return time.time() if ts is None else float(ts)


def _dir_bytes(pdir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(pdir, name)) for name in os.listdir(pdir)
    )


def _index_outcome(
    cur: sqlite3.Cursor, outcome: SessionOutcome, when: float
) -> None:
    row = (
        when, outcome.scenario, outcome.profile, outcome.impairment,
        str(outcome.seed), outcome.duration_s, outcome.n_windows,
        outcome.n_detected_windows, outcome.degradation_events_per_min,
    )
    _insert(
        cur,
        "outcomes",
        "ts, scenario, profile, impairment, seed, duration_s, n_windows,"
        " n_detected_windows, degradation_events_per_min",
        [row],
    )
    outcome_id = cur.execute("SELECT last_insert_rowid()").fetchone()[0]
    episodes = [
        (outcome_id, when, kind, name, float(count))
        for kind, counts in (
            ("chain", outcome.chain_counts),
            ("cause", outcome.cause_counts),
            ("consequence", outcome.consequence_counts),
        )
        for name, count in counts.items()
    ]
    _insert(cur, "episodes", "outcome_id, ts, kind, name, count", episodes)
    qoe = [
        (outcome_id, when, metric, float(value))
        for metric, value in outcome.qoe.items()
    ]
    _insert(cur, "qoe_samples", "outcome_id, ts, metric, value", qoe)


def _index_snapshot(
    cur: sqlite3.Cursor, snapshot: FleetSnapshot, when: float
) -> None:
    row = (
        when, snapshot.seq, snapshot.n_sessions, snapshot.n_running,
        snapshot.windows, snapshot.detected_windows,
        snapshot.degradation_events_per_min,
    )
    _insert(
        cur,
        "snapshots",
        "ts, seq, n_sessions, n_running, windows, detected_windows,"
        " degradation_events_per_min",
        [row],
    )
    chains = [
        (when, chain, float(total))
        for chain, total in snapshot.chain_totals.items()
    ]
    _insert(cur, "snapshot_chains", "ts, chain, total", chains)


def _index_metric_sample(
    cur: sqlite3.Cursor, sample: MetricSample, when: float
) -> None:
    labels = json.dumps(sample.labels, sort_keys=True)
    row = (when, sample.name, labels, sample.value)
    _insert(cur, "metric_samples", "ts, name, labels, value", [row])


def _index_alert(
    cur: sqlite3.Cursor, event: AlertEvent, when: float
) -> None:
    row = (
        when, event.rule, event.state, event.signal, event.value,
        event.threshold, event.window_s, event.severity, event.message,
        json.dumps(event.labels, sort_keys=True),
    )
    _insert(
        cur,
        "alerts",
        "ts, rule, state, signal, value, threshold, window_s, severity,"
        " message, labels",
        [row],
    )


def _index_trace_span(
    cur: sqlite3.Cursor, span: TraceSpan, when: float
) -> None:
    row = (
        when, span.trace_id, span.span_id, span.parent_span_id, span.name,
        span.service, span.campaign_id, span.scenario, span.status,
        span.ts_s, span.duration_s,
        json.dumps(span.attrs, sort_keys=True, default=str),
    )
    _insert(
        cur,
        "trace_spans",
        "ts, trace_id, span_id, parent_span_id, name, service, campaign_id,"
        " scenario, status, start_ts, duration_s, attrs",
        [row],
    )


#: What a segment line that decodes as JSON but not as an envelope raises.
_DAMAGE = (AttributeError, LookupError, TypeError, ValueError, SchemaError)


class _Kind(NamedTuple):
    """How one wire kind is stored, indexed, timed and counted."""

    segment: str  # file under segments/p<partition>/
    index: Callable[[sqlite3.Cursor, Any, float], None]
    op: str  # the repro_store_ingest_seconds label
    count_key: str  # the key in the dict reindex returns


_KINDS = {
    "session_outcome": _Kind(
        "outcomes.jsonl", _index_outcome, "outcomes", "outcomes"
    ),
    "fleet_snapshot": _Kind(
        "snapshots.jsonl", _index_snapshot, "snapshot", "snapshots"
    ),
    "metric_sample": _Kind(
        "metrics.jsonl", _index_metric_sample, "metrics", "metrics"
    ),
    "alert_event": _Kind("alerts.jsonl", _index_alert, "alert", "alerts"),
    "trace_span": _Kind(
        "spans.jsonl", _index_trace_span, "trace_spans", "trace_spans"
    ),
}


class RcaStore:
    """One historical store directory: open, ingest, index, compact."""

    def __init__(self, root: str, manifest: StoreManifest) -> None:
        self.root = os.path.abspath(root)
        self.manifest = manifest
        self._conn = sqlite3.connect(os.path.join(self.root, "index.sqlite"))
        self._conn.executescript(_DDL)
        self._conn.commit()

    # -- lifecycle ---------------------------------------------------------

    @classmethod
    def open(
        cls,
        root: str,
        *,
        create: bool = True,
        partition_s: float = 86400.0,
    ) -> "RcaStore":
        """Open (by default creating) a store directory.

        A manifest written by an incompatible layout fails here with a
        versioned diagnostic — never by silently mixing layouts.
        """
        manifest_path = os.path.join(root, "manifest.json")
        if os.path.exists(manifest_path):
            with open(manifest_path) as handle:
                try:
                    data = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise SchemaError(
                        f"{manifest_path}: undecodable store manifest: {exc}"
                    )
            manifest = StoreManifest.from_json(data)
            if manifest.layout != STORE_LAYOUT_VERSION:
                raise SchemaVersionError(
                    manifest.layout,
                    STORE_LAYOUT_VERSION,
                    where=f"{manifest_path} (store layout)",
                )
            return cls(root, manifest)
        if not create:
            raise TelemetryError(f"{root}: not a store (no manifest.json)")
        os.makedirs(os.path.join(root, "segments"), exist_ok=True)
        manifest = StoreManifest(
            layout=STORE_LAYOUT_VERSION,
            created_ts=time.time(),
            partition_s=float(partition_s),
        )
        atomic_write(
            manifest_path, json.dumps(manifest.to_json(), sort_keys=True)
        )
        return cls(root, manifest)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RcaStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- ingest ------------------------------------------------------------

    def partition_of(self, ts: float) -> int:
        return int(ts // self.manifest.partition_s)

    def _ingest(
        self, kind: str, items: Iterable[Any], when: Optional[float] = None
    ) -> int:
        """Index *items* and append them to their segments, one commit.

        Each item is stamped at *when*, or at its own ``ts`` when *when*
        is None (metric samples and alert events carry one).  Each item
        is indexed under a savepoint before its line is appended, so an
        item that fails leaves neither a line nor rows; the items
        before it commit, and its error propagates.
        """
        from repro.schema import SCHEMA_VERSION

        spec = _KINDS[kind]
        t0 = time.perf_counter()
        cur = self._conn.cursor()
        if not self._conn.in_transaction:
            cur.execute("BEGIN")
        logs: Dict[str, JsonLog] = {}
        n = 0
        try:
            for item in items:
                stamp = item.ts if when is None else when
                pdir = f"p{self.partition_of(stamp)}"
                path = os.path.join(self.root, "segments", pdir, spec.segment)
                log = logs.get(path) or logs.setdefault(path, JsonLog(path))
                envelope = {
                    "kind": kind,
                    "v": SCHEMA_VERSION,
                    "ts": stamp,
                    "data": item.to_json(),
                }
                cur.execute("SAVEPOINT item")
                try:
                    spec.index(cur, item, stamp)
                    log.append(json.dumps(envelope, sort_keys=True))
                except BaseException:
                    cur.execute("ROLLBACK TO item")
                    raise
                finally:
                    cur.execute("RELEASE item")
                n += 1
        finally:
            self._conn.commit()
            for log in logs.values():
                log.close()
            obs.get_registry().histogram(
                INGEST_METRIC, "Latency of store ingest calls, by op."
            ).observe(time.perf_counter() - t0, op=spec.op)
        return n

    def ingest_outcomes(
        self,
        outcomes: Iterable[SessionOutcome],
        *,
        ts: Optional[float] = None,
    ) -> int:
        """Ingest session outcomes stamped at *ts* (default: now).

        Campaign outcomes carry no wall-clock of their own — the ingest
        time is the store's time axis, and pinning it makes partition
        assignment and windowed queries deterministic in tests.
        """
        return self._ingest("session_outcome", outcomes, _stamp(ts))

    def ingest_outcomes_file(
        self,
        path: str,
        *,
        ts: Optional[float] = None,
        tolerant: bool = False,
    ) -> Dict[str, int]:
        """Ingest a ``fleet run`` outcomes JSONL, fleet-report semantics.

        Tolerant mode streams every intact outcome and counts damage in
        the returned stats (``skipped_lines`` / ``missing_outcomes``);
        strict mode raises on the first undecodable record.  A major
        schema mismatch in the fleet header raises
        :class:`~repro.errors.SchemaVersionError` in both modes.
        """
        stats: Dict[str, int] = {}
        ingested = self.ingest_outcomes(
            iter_outcomes(path, tolerant=tolerant, stats=stats), ts=ts
        )
        stats["ingested"] = ingested
        return stats

    def ingest_snapshot(
        self, snapshot: FleetSnapshot, *, ts: Optional[float] = None
    ) -> None:
        """Tee one fleet snapshot into the store (live/coordinator path)."""
        self._ingest("fleet_snapshot", (snapshot,), _stamp(ts))

    def ingest_metric_samples(
        self, samples: Iterable[MetricSample]
    ) -> int:
        return self._ingest("metric_sample", samples)

    def ingest_prom_text(
        self, text: str, *, ts: Optional[float] = None
    ) -> int:
        """Ingest one Prometheus exposition snapshot (point-in-time)."""
        when = _stamp(ts)
        return self.ingest_metric_samples(
            MetricSample(ts=when, name=name, value=value, labels=labels)
            for name, labels, value in obs.parse_prom_samples(text)
        )

    def record_alert(self, event: AlertEvent) -> None:
        self._ingest("alert_event", (event,))

    def ingest_trace_spans(
        self,
        spans: Iterable[TraceSpan],
        *,
        ts: Optional[float] = None,
    ) -> int:
        """Ingest distributed-trace spans stamped at *ts* (default: now).

        Like outcomes, a whole campaign's spans land under one ingest
        stamp so retention drops a campaign's trace atomically with its
        partition; the span's own wall clock lives in ``start_ts``.
        """
        return self._ingest("trace_span", spans, _stamp(ts))

    # -- index maintenance -------------------------------------------------

    def rows_total(self) -> Dict[str, int]:
        """Row count per index table (the ``store query --totals`` view)."""
        out: Dict[str, int] = {}
        for table in _TABLES:
            row = self._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()
            out[table] = int(row[0])
        return out

    def _partitions(self) -> List[Tuple[int, str]]:
        seg_root = os.path.join(self.root, "segments")
        found: List[Tuple[int, str]] = []
        if not os.path.isdir(seg_root):
            return found
        for entry in os.listdir(seg_root):
            if entry.startswith("p"):
                try:
                    pid = int(entry[1:])
                except ValueError:
                    continue
                found.append((pid, os.path.join(seg_root, entry)))
        return sorted(found)

    def reindex(self) -> Dict[str, int]:
        """Rebuild the sqlite index from the JSONL segments alone.

        The recovery path for a lost or corrupt ``index.sqlite``, and
        one transaction: any error rolls back to the index as it was.
        Every envelope decodes back through its schema codec, so a
        segment written by a newer major schema fails loudly here
        rather than producing a silently wrong index; a torn tail or
        an undecodable line is logged, counted and skipped.
        """
        from repro.schema import check_schema_version, from_wire

        counts = {spec.count_key: 0 for spec in _KINDS.values()}
        with self._conn:
            cur = self._conn.cursor()
            for table in _TABLES:
                cur.execute(f"DELETE FROM {table}")
            for pid, pdir in self._partitions():
                base_ts = pid * self.manifest.partition_s
                for kind, spec in _KINDS.items():
                    log = JsonLog(os.path.join(pdir, spec.segment))
                    if not os.path.exists(log.path):
                        continue
                    for lineno, envelope in log.replay():
                        try:
                            check_schema_version(
                                envelope.get("v"),
                                where=f"{log.path} (envelope)",
                            )
                            obj = from_wire(kind, envelope["data"])
                            when = float(envelope.get("ts", base_ts))
                        except SchemaVersionError:
                            raise
                        except _DAMAGE as exc:
                            log.skip(lineno, f"undecodable envelope: {exc}")
                            continue
                        spec.index(cur, obj, when)
                        counts[spec.count_key] += 1
        return counts

    # -- retention ---------------------------------------------------------

    def size_bytes(self) -> int:
        return sum(_dir_bytes(pdir) for _pid, pdir in self._partitions())

    def compact(
        self,
        *,
        max_age_s: Optional[float] = None,
        max_bytes: Optional[int] = None,
        now: Optional[float] = None,
    ) -> Dict[str, int]:
        """Bound the store: drop whole partitions, oldest first.

        ``max_age_s`` removes every partition entirely older than the
        cutoff; ``max_bytes`` then keeps dropping the oldest remaining
        partition until segment bytes fit (the newest partition always
        survives).  Index rows of dropped partitions are deleted in the
        same pass, so queries and segments stay consistent.
        """
        when = time.time() if now is None else float(now)
        partitions = self._partitions()
        drop: List[Tuple[int, str]] = []
        if max_age_s is not None:
            cutoff_pid = self.partition_of(when - max_age_s)
            while partitions and partitions[0][0] < cutoff_pid:
                drop.append(partitions.pop(0))
        if max_bytes is not None:
            total = sum(_dir_bytes(pdir) for _pid, pdir in partitions)
            while total > max_bytes and len(partitions) > 1:
                pid, pdir = partitions.pop(0)
                total -= _dir_bytes(pdir)
                drop.append((pid, pdir))
        bytes_removed = 0
        rows_deleted = 0
        cur = self._conn.cursor()
        for pid, pdir in drop:
            lo = pid * self.manifest.partition_s
            hi = lo + self.manifest.partition_s
            for name in os.listdir(pdir):
                path = os.path.join(pdir, name)
                bytes_removed += os.path.getsize(path)
                os.remove(path)
            os.rmdir(pdir)
            for table in _TABLES:
                result = cur.execute(
                    f"DELETE FROM {table} WHERE ts >= ? AND ts < ?",
                    (lo, hi),
                )
                rows_deleted += result.rowcount
        self._conn.commit()
        if drop:
            self._conn.execute("VACUUM")
        return {
            "partitions_removed": len(drop),
            "bytes_removed": bytes_removed,
            "rows_deleted": rows_deleted,
        }


__all__ = ["INGEST_METRIC", "ROWS_METRIC", "RcaStore"]
