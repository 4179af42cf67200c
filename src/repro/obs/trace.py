"""Distributed tracing: one causal timeline across process boundaries.

PR 6's ``span()`` instrumentation stops at the process edge: a scenario
dispatched by the cluster coordinator, executed on a remote worker's
process pool, and settled back into the aggregator leaves three
disconnected event logs.  This module stitches them into W3C-
traceparent-style traces:

* :class:`TraceContext` — the ``trace_id``/``span_id`` pair generated
  per scenario at campaign submission and propagated as a plain
  ``trace`` dict on cluster frames; :meth:`TraceContext.span` builds
  the spans of phases no single ``with span()`` block can wrap.
* :func:`trace_scope` — installs a context as the ambient trace via the
  contextvar in :mod:`repro.obs.spans`, so every existing ``span()``
  inside the scope is annotated with trace/span/parent ids for free.
* :class:`TraceSpan` — the durable record one completed span becomes;
  serialized through :mod:`repro.schema` (``trace_span`` codec) and
  ingested into the store's ``trace_spans`` table.
* :class:`TraceCollector` — an event sink that turns trace-annotated
  :class:`~repro.obs.events.ObsEvent`s into :class:`TraceSpan`s (teeing
  to any previously installed sink), which is how worker-side spans
  ride the OUTCOME frame back to the coordinator.
* :func:`assemble_traces` / :func:`render_trace_timeline` — reconstruct
  and render the per-scenario critical path (queue wait → dispatch →
  ingest → features → trace → settle, with per-hop network time).

Like :mod:`repro.obs.events`, :class:`TraceSpan` stays a leaf:
``repro.schema.wire`` imports it to register the codec, so serde
helpers lazy-import schema inside the call.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import ObsEvent
from repro.obs.spans import (
    EventSink,
    new_span_id,
    reset_trace_context,
    set_trace_context,
)

#: ``status`` of a span whose worker died before reporting back.  The
#: requeued attempt gets a fresh span under the same trace; the orphan
#: stays visible with this status instead of silently vanishing.
ABANDONED = "abandoned"


def new_trace_id() -> str:
    """A fresh 128-bit hex trace id (W3C traceparent trace-id width)."""
    return os.urandom(16).hex()


@dataclass
class TraceContext:
    """The propagated slice of a distributed trace.

    ``span_id`` is the *current parent*: spans opened under this
    context without an enclosing in-process span parent to it.
    ``campaign_id`` / ``scenario`` label every collected span so the
    store can query traces by campaign without walking id chains.
    """

    trace_id: str
    span_id: str
    campaign_id: str = ""
    scenario: str = ""

    @classmethod
    def new(cls, campaign_id: str = "", scenario: str = "") -> "TraceContext":
        return cls(
            trace_id=new_trace_id(),
            span_id=new_span_id(),
            campaign_id=campaign_id,
            scenario=scenario,
        )

    def child(self, span_id: str) -> "TraceContext":
        """The same trace re-rooted under *span_id* (for propagation)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=span_id,
            campaign_id=self.campaign_id,
            scenario=self.scenario,
        )

    def to_wire(self) -> Dict[str, str]:
        """The plain ``trace`` dict cluster frames carry.

        Deliberately *not* schema-stamped: frame payloads are plain
        dicts read via ``.get()``, so peers predating tracing ignore
        the key and interop unchanged.
        """
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "campaign_id": self.campaign_id,
            "scenario": self.scenario,
        }

    def span(
        self,
        name: str,
        *,
        ts_s: float,
        duration_s: float,
        service: str,
        span_id: str = "",
        parent_span_id: str = "",
        status: str = "ok",
        attrs: Optional[Dict[str, Any]] = None,
    ) -> "TraceSpan":
        """A hand-built span in this trace, for phases no single ``with
        span()`` block can wrap (a dispatch that settles on another
        frame, a network hop stamped by two processes).

        It parents to this context's span unless *parent_span_id* says
        otherwise; *span_id* reuses an id handed out earlier (say, one
        already propagated to a worker) instead of minting one.
        """
        return TraceSpan(
            trace_id=self.trace_id,
            span_id=span_id or new_span_id(),
            parent_span_id=parent_span_id or self.span_id,
            name=name,
            ts_s=ts_s,
            duration_s=duration_s,
            service=service,
            campaign_id=self.campaign_id,
            scenario=self.scenario,
            status=status,
            attrs=dict(attrs or {}),
        )

    def hop(
        self,
        name: str,
        sent_ts: object,
        recv_ts: float,
        *,
        service: str,
        parent_span_id: str = "",
    ) -> Optional["TraceSpan"]:
        """The network hop from a peer's frame send stamp to its
        receipt at *recv_ts*; ``None`` when the stamp is missing, not a
        number, or later than the receipt (skewed clocks)."""
        if (
            isinstance(sent_ts, bool)
            or not isinstance(sent_ts, (int, float))
            or sent_ts > recv_ts
        ):
            return None
        return self.span(
            name,
            ts_s=float(sent_ts),
            duration_s=recv_ts - float(sent_ts),
            service=service,
            parent_span_id=parent_span_id,
        )

    @classmethod
    def from_wire(
        cls, payload: Optional[Dict[str, Any]]
    ) -> Optional["TraceContext"]:
        """Decode a frame's ``trace`` dict; None/garbage → no trace."""
        if not isinstance(payload, dict):
            return None
        trace_id = str(payload.get("trace_id") or "")
        span_id = str(payload.get("span_id") or "")
        if not trace_id or not span_id:
            return None
        return cls(
            trace_id=trace_id,
            span_id=span_id,
            campaign_id=str(payload.get("campaign_id") or ""),
            scenario=str(payload.get("scenario") or ""),
        )


class trace_scope:
    """Install *ctx* as the ambient trace for a ``with`` block.

    Every ``span()`` closed inside the scope carries the trace's ids;
    ``None`` is accepted and makes the scope a no-op, so call sites can
    write ``with trace_scope(maybe_ctx):`` unconditionally.
    """

    __slots__ = ("ctx", "_token")

    def __init__(self, ctx: Optional[TraceContext]) -> None:
        self.ctx = ctx
        self._token = None

    def __enter__(self) -> Optional[TraceContext]:
        if self.ctx is not None:
            self._token = set_trace_context(self.ctx)
        return self.ctx

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._token is not None:
            reset_trace_context(self._token)
            self._token = None


@dataclass
class TraceSpan:
    """One durable span of a distributed trace.

    ``service`` names the process role that produced it (coordinator /
    worker / client); ``status`` is ``"ok"``, ``"error"``, or
    :data:`ABANDONED`.  Serialized through the ``trace_span`` wire
    codec (lazy schema import — this module is a leaf).
    """

    trace_id: str
    span_id: str
    name: str
    ts_s: float
    duration_s: float
    parent_span_id: str = ""
    service: str = ""
    campaign_id: str = ""
    scenario: str = ""
    status: str = "ok"
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "TraceSpan":
        from repro import schema

        return schema.from_wire("trace_span", payload)


class TraceCollector(EventSink):
    """Sink turning trace-annotated ObsEvents into TraceSpans.

    Installed (via ``obs.set_sink``) around a traced unit of work —
    e.g. one scenario inside a process-pool child.  Events without a
    ``trace_id`` pass through untouched; every event is also forwarded
    to *tee* (the previously installed sink), so adding tracing never
    hides events from ``--events-file``.
    """

    def __init__(
        self,
        *,
        service: str = "",
        campaign_id: str = "",
        scenario: str = "",
        tee: Optional[EventSink] = None,
    ) -> None:
        self.service = service
        self.campaign_id = campaign_id
        self.scenario = scenario
        self.tee = tee
        self.spans: List[TraceSpan] = []

    def emit(self, event: ObsEvent) -> None:
        if event.trace_id:
            self.spans.append(
                TraceSpan(
                    trace_id=event.trace_id,
                    span_id=event.span_id,
                    parent_span_id=event.parent_span_id,
                    name=event.name,
                    service=self.service,
                    ts_s=event.ts_s,
                    duration_s=event.duration_s,
                    campaign_id=self.campaign_id,
                    scenario=self.scenario,
                    status=(
                        "error" if event.attrs.get("error") else "ok"
                    ),
                    attrs=dict(event.attrs),
                )
            )
        if self.tee is not None:
            self.tee.emit(event)


# -- reconstruction and rendering ------------------------------------------


def assemble_traces(
    spans: Iterable[TraceSpan],
) -> Dict[str, List[TraceSpan]]:
    """Group spans by trace id, each trace start-time ordered."""
    traces: Dict[str, List[TraceSpan]] = {}
    for item in spans:
        traces.setdefault(item.trace_id, []).append(item)
    for members in traces.values():
        members.sort(key=lambda s: (s.ts_s, s.name, s.span_id))
    return traces


def _depths(members: List[TraceSpan]) -> Dict[str, int]:
    """Nesting depth per span id, walking parent links (cycle-safe)."""
    by_id = {s.span_id: s for s in members}
    depths: Dict[str, int] = {}

    def depth_of(span_id: str) -> int:
        if span_id in depths:
            return depths[span_id]
        seen = set()
        chain: List[str] = []
        current = span_id
        while (
            current in by_id
            and current not in depths
            and current not in seen
        ):
            seen.add(current)
            chain.append(current)
            current = by_id[current].parent_span_id
        base = depths.get(current, -1)
        for i, sid in enumerate(reversed(chain)):
            depths[sid] = base + 1 + i
        return depths[span_id]

    for item in members:
        depth_of(item.span_id)
    return depths


def orphan_spans(members: List[TraceSpan]) -> List[TraceSpan]:
    """Spans whose parent is neither present nor a trace root.

    A span parenting straight to the scenario's root context (a parent
    id no recorded span owns but which every root-level span shares) is
    *not* an orphan; one pointing at a genuinely unknown id is.
    """
    by_id = {s.span_id for s in members}
    # The context's own span_id is never recorded as a span — it exists
    # only as the attachment point every root-level span parents to, so
    # the earliest span's parent identifies it.
    roots = set()
    if members:
        earliest = min(members, key=lambda s: s.ts_s)
        if earliest.parent_span_id:
            roots.add(earliest.parent_span_id)
    return [
        s
        for s in members
        if s.parent_span_id
        and s.parent_span_id not in by_id
        and s.parent_span_id not in roots
    ]


def render_trace_timeline(
    spans: Iterable[TraceSpan], *, width: int = 48
) -> str:
    """ASCII timeline, one section per trace, one bar row per span.

    Rows are start-ordered and indented by parent depth; the bar shows
    each span's offset and extent against the trace's total wall time,
    with start/duration in milliseconds on the right.  Abandoned spans
    (worker died before reporting) render with ``!`` bars.
    """
    traces = assemble_traces(spans)
    if not traces:
        return "no trace spans"
    sections: List[str] = []
    for trace_id in sorted(
        traces, key=lambda t: min(s.ts_s for s in traces[t])
    ):
        members = traces[trace_id]
        t0 = min(s.ts_s for s in members)
        t1 = max(s.ts_s + s.duration_s for s in members)
        total = max(t1 - t0, 1e-9)
        depths = _depths(members)
        scenario = next((s.scenario for s in members if s.scenario), "")
        campaign = next(
            (s.campaign_id for s in members if s.campaign_id), ""
        )
        header = f"trace {trace_id[:16]}"
        if campaign:
            header += f"  campaign={campaign}"
        if scenario:
            header += f"  scenario={scenario}"
        header += f"  spans={len(members)}  total={total * 1000.0:.1f}ms"
        lines = [header]
        name_width = max(
            len("  " * depths.get(s.span_id, 0) + _row_label(s))
            for s in members
        )
        for item in members:
            label = "  " * depths.get(item.span_id, 0) + _row_label(item)
            start = int(round((item.ts_s - t0) / total * width))
            extent = int(round(item.duration_s / total * width))
            start = min(start, width - 1)
            extent = max(1, min(extent, width - start))
            mark = "!" if item.status == ABANDONED else "#"
            bar = " " * start + mark * extent
            lines.append(
                f"  {label:<{name_width}} |{bar:<{width}}| "
                f"+{(item.ts_s - t0) * 1000.0:8.1f}ms "
                f"{item.duration_s * 1000.0:8.1f}ms"
            )
        orphans = orphan_spans(members)
        if orphans:
            lines.append(
                f"  ({len(orphans)} orphan span(s): "
                + ", ".join(sorted({o.name for o in orphans}))
                + ")"
            )
        sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _row_label(item: TraceSpan) -> str:
    label = item.name
    if item.service:
        label += f" [{item.service}]"
    if item.status == "error":
        label += " (error)"
    elif item.status == ABANDONED:
        label += " (abandoned)"
    return label


__all__ = [
    "ABANDONED",
    "TraceCollector",
    "TraceContext",
    "TraceSpan",
    "assemble_traces",
    "new_trace_id",
    "orphan_spans",
    "render_trace_timeline",
    "trace_scope",
]
