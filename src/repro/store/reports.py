"""Markdown incident reports rendered from stored alert events.

One report per alert transition: what fired, the triggering series
(sparklined from the store's episode-rate buckets), the dominant Domino
chains inside the trigger window, and the profiles/impairments that
carried them — enough for an on-call reader to decide whether the
surge is a cell problem, a profile problem, or fleet-wide, without
opening the store themselves.
"""

from __future__ import annotations

import time
from typing import List, Optional

from repro.live.dashboard import sparkline
from repro.store.model import ALERT_FIRING, AlertEvent
from repro.store.query import StoreQuery

#: Trigger-window multiples of history shown in the report's series.
SERIES_WINDOWS = 8
#: Rows per "top" table in the report.
TOP_ROWS = 5


def _fmt_ts(ts: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime(ts))


def _signal_kind(signal: str) -> Optional[str]:
    if signal in ("chain_rate", "cause_rate", "consequence_rate"):
        return signal.split("_", 1)[0]
    return None


def render_incident_report(
    event: AlertEvent, query: Optional[StoreQuery] = None
) -> str:
    """Render one alert event as a Markdown incident report.

    With a :class:`StoreQuery`, the report embeds the triggering series
    and the window's dominant chains and affected profiles; without
    one (e.g. rendering a forwarded event elsewhere), it degrades to
    the event's own facts.
    """
    firing = event.state == ALERT_FIRING
    title = "firing" if firing else "resolved"
    lines: List[str] = [
        f"# Incident: `{event.rule}` {title}",
        "",
        f"- **When:** {_fmt_ts(event.ts)}",
        f"- **Severity:** {event.severity}",
        f"- **Signal:** `{event.signal}` matching "
        f"`{event.labels.get('match', '*')}`",
        f"- **Observed:** {event.value:.4g} vs threshold "
        f"{event.threshold:.4g} over a {event.window_s:.0f}s window",
    ]
    if event.message:
        lines += ["", f"> {event.message}"]
    if query is None:
        lines.append("")
        return "\n".join(lines)

    window_lo = event.ts - event.window_s
    match = event.labels.get("match", "*")
    kind = _signal_kind(event.signal)

    # Triggering series: the rule's signal bucketed at window width,
    # reaching back SERIES_WINDOWS windows so the crossing has context.
    if kind is not None:
        since = event.ts - SERIES_WINDOWS * event.window_s
        series = query.episode_rate_series(
            match,
            kind,
            bucket_s=event.window_s,
            since=since,
            until=event.ts,
        )
        rates = [rate for _ts, rate in series]
        lines += [
            "",
            "## Triggering series",
            "",
            f"`{sparkline(rates)}`  "
            f"({len(rates)} × {event.window_s:.0f}s buckets, "
            f"newest right; peak {max(rates):.3g}/min)"
            if rates
            else "(no series points in range)",
        ]

    # Dominant chains inside the trigger window.
    chains = query.rollup_episodes(
        "chain", since=window_lo, until=event.ts, top=TOP_ROWS
    )
    lines += ["", "## Dominant Domino chains (trigger window)", ""]
    if chains:
        lines += [
            "| chain | episodes | per min |",
            "| --- | ---: | ---: |",
        ]
        lines += [
            f"| `{row['name']}` | {row['episodes']:.0f} "
            f"| {row['episodes_per_min']:.3g} |"
            for row in chains
        ]
    else:
        lines.append("(no chain episodes recorded in the window)")

    # Who carried it: profiles and impairments by outcome volume.
    for group, heading in (
        ("profile", "Top affected profiles"),
        ("impairment", "Top affected impairments"),
    ):
        rows = query.rollup_outcomes(
            group, since=window_lo, until=event.ts
        )[:TOP_ROWS]
        lines += ["", f"## {heading}", ""]
        if rows:
            lines += [
                f"| {group} | outcomes | detected frac | deg/min |",
                "| --- | ---: | ---: | ---: |",
            ]
            lines += [
                f"| `{row['name']}` | {row['outcomes']} "
                f"| {row['detected_frac']:.2f} "
                f"| {row['degradation_events_per_min']:.3g} |"
                for row in rows
            ]
        else:
            lines.append("(no outcomes in the window)")
    lines.append("")
    return "\n".join(lines)


def render_alerts_pane(
    firing: List[str], recent: List[AlertEvent], max_rows: int = 4
) -> str:
    """Compact "Alerts" pane for the `repro watch` dashboard: the rules
    firing now, then the newest *max_rows* of *recent* transitions."""
    if firing:
        head = f"Alerts: {len(firing)} FIRING — " + ", ".join(firing)
    else:
        head = "Alerts: none firing"
    lines = [head]
    for event in recent[-max_rows:]:
        lines.append(
            f"  [{_fmt_ts(event.ts)}] {event.rule} "
            f"{event.state}: {event.message}"
        )
    return "\n".join(lines)


__all__ = ["render_alerts_pane", "render_incident_report"]
