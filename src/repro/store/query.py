"""StoreQuery — the read side of the historical RCA store.

Every method answers from the sqlite index (never the JSONL segments),
over a ``[since, until)`` time range on the store's ingest-time axis.
Rates are normalized to *observed telemetry minutes* — the summed
``duration_s`` of the outcomes in range — not wall-clock span, so a
campaign ingested in one burst still reports episodes-per-minute
comparable to the fleet executor's own rollups.

Name filters accept shell globs (sqlite ``GLOB``): chains are rendered
``"cause --> ... --> consequence"`` strings, so
``"*pushback_rate_down"`` selects every chain terminating in a local
pushback consequence.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs.trace import TraceSpan
from repro.store.db import RcaStore
from repro.store.model import AlertEvent

#: Histogram of store query calls, labelled by op (the method name).
QUERY_METRIC = "repro_store_query_seconds"

_GLOB_CHARS = set("*?[")

#: The alerts table's columns, in :class:`AlertEvent` field order.
_ALERT_COLUMNS = ", ".join(f.name for f in dataclasses.fields(AlertEvent))


def _is_glob(pattern: str) -> bool:
    return any(ch in _GLOB_CHARS for ch in pattern)


def _timed(fn: Callable) -> Callable:
    """Record a query method's latency under its own ``op`` label."""

    @functools.wraps(fn)
    def wrapper(self: "StoreQuery", *args: object, **kwargs: object):
        t0 = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            obs.get_registry().histogram(
                QUERY_METRIC, "Latency of store query calls, by op."
            ).observe(time.perf_counter() - t0, op=fn.__name__)

    return wrapper


def _percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over a sorted copy (0 < pct <= 100)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


class StoreQuery:
    """Rollups, series, movers, and trends over one open store."""

    def __init__(self, store: RcaStore) -> None:
        self.store = store
        self._conn = store._conn

    # -- range plumbing ----------------------------------------------------

    def _range(
        self, since: Optional[float], until: Optional[float]
    ) -> Tuple[str, List[float]]:
        clauses = []
        params: List[float] = []
        if since is not None:
            clauses.append("ts >= ?")
            params.append(float(since))
        if until is not None:
            clauses.append("ts < ?")
            params.append(float(until))
        return (" AND ".join(clauses) or "1=1"), params

    def time_bounds(self) -> Tuple[Optional[float], Optional[float]]:
        """(oldest, newest) ingest timestamp across all indexed rows."""
        lo: Optional[float] = None
        hi: Optional[float] = None
        for table in (
            "outcomes",
            "snapshots",
            "metric_samples",
            "alerts",
            "trace_spans",
        ):
            row = self._conn.execute(
                f"SELECT MIN(ts), MAX(ts) FROM {table}"
            ).fetchone()
            if row[0] is not None:
                lo = row[0] if lo is None else min(lo, row[0])
                hi = row[1] if hi is None else max(hi, row[1])
        return lo, hi

    @_timed
    def outcome_minutes(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> float:
        """Total telemetry minutes observed by outcomes in range."""
        where, params = self._range(since, until)
        row = self._conn.execute(
            f"SELECT COALESCE(SUM(duration_s), 0) FROM outcomes"
            f" WHERE {where}",
            params,
        ).fetchone()
        return float(row[0]) / 60.0

    @_timed
    def outcome_count(
        self,
        since: Optional[float] = None,
        until: Optional[float] = None,
        *,
        profile: Optional[str] = None,
        impairment: Optional[str] = None,
    ) -> int:
        where, params = self._range(since, until)
        sql = f"SELECT COUNT(*) FROM outcomes WHERE {where}"
        args: List[object] = list(params)
        if profile is not None:
            sql += " AND profile = ?"
            args.append(profile)
        if impairment is not None:
            sql += " AND impairment = ?"
            args.append(impairment)
        return int(self._conn.execute(sql, args).fetchone()[0])

    # -- rollups -----------------------------------------------------------

    @_timed
    def rollup_episodes(
        self,
        kind: str = "chain",
        *,
        since: Optional[float] = None,
        until: Optional[float] = None,
        match: Optional[str] = None,
        top: Optional[int] = None,
    ) -> List[Dict[str, float]]:
        """Per-name episode totals and rates for one episode kind.

        Returns descending-by-count rows
        ``{"name", "episodes", "episodes_per_min"}``; *kind* is
        ``chain`` / ``cause`` / ``consequence``, *match* an optional
        glob over the rendered name.
        """
        where, params = self._range(since, until)
        sql = (
            f"SELECT name, SUM(count) AS episodes FROM episodes"
            f" WHERE kind = ? AND {where}"
        )
        args: List[object] = [kind, *params]
        if match is not None:
            sql += " AND name GLOB ?" if _is_glob(match) else " AND name = ?"
            args.append(match)
        sql += " GROUP BY name ORDER BY episodes DESC, name ASC"
        if top is not None:
            sql += " LIMIT ?"
            args.append(int(top))
        minutes = self.outcome_minutes(since, until)
        return [
            {
                "name": name,
                "episodes": float(episodes),
                "episodes_per_min": (
                    float(episodes) / minutes if minutes > 0 else 0.0
                ),
            }
            for name, episodes in self._conn.execute(sql, args)
        ]

    @_timed
    def rollup_outcomes(
        self,
        group_by: str = "profile",
        *,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[Dict[str, float]]:
        """Per-profile / per-impairment / per-scenario outcome rollup."""
        if group_by not in ("profile", "impairment", "scenario"):
            raise ValueError(
                f"group_by must be profile|impairment|scenario, "
                f"got {group_by!r}"
            )
        where, params = self._range(since, until)
        sql = (
            f"SELECT {group_by}, COUNT(*), SUM(duration_s),"
            f" SUM(n_windows), SUM(n_detected_windows),"
            f" AVG(degradation_events_per_min)"
            f" FROM outcomes WHERE {where}"
            f" GROUP BY {group_by} ORDER BY COUNT(*) DESC, {group_by} ASC"
        )
        out = []
        for group, n, dur, wins, det, deg in self._conn.execute(sql, params):
            out.append(
                {
                    "name": group,
                    "outcomes": int(n),
                    "minutes": float(dur or 0.0) / 60.0,
                    "detected_frac": (
                        float(det) / float(wins) if wins else 0.0
                    ),
                    "degradation_events_per_min": float(deg or 0.0),
                }
            )
        return out

    # -- series ------------------------------------------------------------

    @_timed
    def episode_rate_series(
        self,
        match: str = "*",
        kind: str = "chain",
        *,
        bucket_s: float,
        since: float,
        until: float,
    ) -> List[Tuple[float, float]]:
        """Episodes-per-minute per time bucket for matching names.

        Buckets are aligned to *since*; every bucket in ``[since,
        until)`` appears, zero-filled, so the series is plottable (and
        sparkline-able) without gap handling downstream.
        """
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        op = "GLOB" if _is_glob(match) else "="
        episodes: Dict[int, float] = {}
        for ts, count in self._conn.execute(
            f"SELECT ts, count FROM episodes"
            f" WHERE kind = ? AND name {op} ? AND ts >= ? AND ts < ?",
            (kind, match, float(since), float(until)),
        ):
            episodes[int((ts - since) // bucket_s)] = (
                episodes.get(int((ts - since) // bucket_s), 0.0) + count
            )
        minutes: Dict[int, float] = {}
        for ts, dur in self._conn.execute(
            "SELECT ts, duration_s FROM outcomes WHERE ts >= ? AND ts < ?",
            (float(since), float(until)),
        ):
            bucket = int((ts - since) // bucket_s)
            minutes[bucket] = minutes.get(bucket, 0.0) + dur / 60.0
        n_buckets = max(1, math.ceil((until - since) / bucket_s))
        series = []
        for i in range(n_buckets):
            mins = minutes.get(i, 0.0)
            rate = episodes.get(i, 0.0) / mins if mins > 0 else 0.0
            series.append((since + i * bucket_s, rate))
        return series

    @_timed
    def qoe_trend(
        self,
        metric: str,
        *,
        bucket_s: float,
        since: float,
        until: float,
        percentiles: Sequence[float] = (50.0, 90.0, 99.0),
    ) -> List[Dict[str, float]]:
        """Percentile trend of one QoE metric, bucketed over time."""
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        buckets: Dict[int, List[float]] = {}
        for ts, value in self._conn.execute(
            "SELECT ts, value FROM qoe_samples"
            " WHERE metric = ? AND ts >= ? AND ts < ?",
            (metric, float(since), float(until)),
        ):
            buckets.setdefault(int((ts - since) // bucket_s), []).append(
                value
            )
        n_buckets = max(1, math.ceil((until - since) / bucket_s))
        out = []
        for i in range(n_buckets):
            values = buckets.get(i, [])
            row: Dict[str, float] = {
                "ts": since + i * bucket_s,
                "n": float(len(values)),
            }
            for pct in percentiles:
                row[f"p{pct:g}"] = _percentile(values, pct)
            out.append(row)
        return out

    @_timed
    def metric_series(
        self,
        name: str,
        *,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[Tuple[float, float]]:
        """All stored points of one metric sample name, time-ordered."""
        where, params = self._range(since, until)
        op = "GLOB" if _is_glob(name) else "="
        return [
            (float(ts), float(value))
            for ts, value in self._conn.execute(
                f"SELECT ts, value FROM metric_samples"
                f" WHERE name {op} ? AND {where} ORDER BY ts ASC",
                [name, *params],
            )
        ]

    # -- movers ------------------------------------------------------------

    @_timed
    def top_movers(
        self,
        kind: str = "chain",
        *,
        window_a: Tuple[float, float],
        window_b: Tuple[float, float],
        k: int = 10,
        match: Optional[str] = None,
    ) -> List[Dict[str, float]]:
        """Top-k names by episode-rate change from window A to window B.

        Rates are episodes per observed minute within each window, so
        windows of different campaign sizes compare fairly.  Sorted by
        absolute delta, largest first.
        """

        def rates(lo: float, hi: float) -> Dict[str, float]:
            sql = (
                "SELECT name, SUM(count) FROM episodes"
                " WHERE kind = ? AND ts >= ? AND ts < ?"
            )
            args: List[object] = [kind, float(lo), float(hi)]
            if match is not None:
                sql += (
                    " AND name GLOB ?" if _is_glob(match) else " AND name = ?"
                )
                args.append(match)
            sql += " GROUP BY name"
            minutes = self.outcome_minutes(lo, hi)
            if minutes <= 0:
                return {}
            return {
                name: float(total) / minutes
                for name, total in self._conn.execute(sql, args)
            }

        rates_a = rates(*window_a)
        rates_b = rates(*window_b)
        movers = []
        for name in set(rates_a) | set(rates_b):
            a = rates_a.get(name, 0.0)
            b = rates_b.get(name, 0.0)
            movers.append(
                {
                    "name": name,
                    "rate_a": a,
                    "rate_b": b,
                    "delta": b - a,
                }
            )
        movers.sort(key=lambda m: (-abs(m["delta"]), m["name"]))
        return movers[: max(0, int(k))]

    # -- alerts ------------------------------------------------------------

    @_timed
    def alerts(
        self,
        *,
        since: Optional[float] = None,
        until: Optional[float] = None,
        rule: Optional[str] = None,
        state: Optional[str] = None,
    ) -> List[AlertEvent]:
        """Recorded alert transitions, time-ordered, as the events the
        alert engine recorded."""
        import json as _json

        where, params = self._range(since, until)
        sql = f"SELECT {_ALERT_COLUMNS} FROM alerts WHERE {where}"
        args: List[object] = list(params)
        if rule is not None:
            sql += " AND rule GLOB ?" if _is_glob(rule) else " AND rule = ?"
            args.append(rule)
        if state is not None:
            sql += " AND state = ?"
            args.append(state)
        sql += " ORDER BY ts ASC"
        return [
            AlertEvent(*row[:-1], labels=_json.loads(row[-1]))
            for row in self._conn.execute(sql, args)
        ]

    # -- traces ------------------------------------------------------------

    @_timed
    def trace_spans(
        self,
        *,
        campaign_id: Optional[str] = None,
        trace_id: Optional[str] = None,
        scenario: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[TraceSpan]:
        """Stored distributed-trace spans, reconstructed and ordered.

        Filters compose (``AND``); *campaign_id* / *trace_id* /
        *scenario* accept globs.  Rows come back ordered by
        ``(trace_id, start_ts)`` — ready for
        :func:`repro.obs.trace.render_trace_timeline` — and the range
        filter applies to the ingest axis like every other query.
        """
        import json as _json

        where, params = self._range(since, until)
        sql = (
            f"SELECT trace_id, span_id, parent_span_id, name, service,"
            f" campaign_id, scenario, status, start_ts, duration_s,"
            f" attrs FROM trace_spans WHERE {where}"
        )
        args: List[object] = list(params)
        for column, value in (
            ("campaign_id", campaign_id),
            ("trace_id", trace_id),
            ("scenario", scenario),
        ):
            if value is not None:
                sql += (
                    f" AND {column} GLOB ?"
                    if _is_glob(value)
                    else f" AND {column} = ?"
                )
                args.append(value)
        sql += " ORDER BY trace_id ASC, start_ts ASC, name ASC"
        return [
            TraceSpan(
                trace_id=row[0],
                span_id=row[1],
                parent_span_id=row[2],
                name=row[3],
                service=row[4],
                campaign_id=row[5],
                scenario=row[6],
                status=row[7],
                ts_s=float(row[8]),
                duration_s=float(row[9]),
                attrs=_json.loads(row[10]),
            )
            for row in self._conn.execute(sql, args)
        ]


__all__ = ["QUERY_METRIC", "StoreQuery"]
