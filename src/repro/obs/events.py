"""Structured span events and the JSONL trace file they land in.

An :class:`ObsEvent` is the durable record a closed span emits: the
span's dotted name, its full ancestry path, wall-clock start, duration,
and the merged attribute bag (own attributes layered over ancestors').
Events are serialized through the :mod:`repro.schema` wire codec so
trace files carry the same ``"schema"`` version stamp as every other
artifact in the repo and stay readable across format evolution.

Trace files are :class:`~repro.jsonlog.JsonLog` files, written by
:class:`~repro.obs.spans.JsonlSink` and read by :func:`iter_events`.

This module stays a leaf on purpose: ``repro.schema.wire`` imports it
to register the codec, so it must not import schema (or anything above
it) at module level (:mod:`repro.jsonlog` is a leaf too).  Serialization
helpers lazy-import schema inside the call, the same pattern
``fleet.executor.SessionOutcome`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator

from repro.jsonlog import JsonLog


@dataclass
class ObsEvent:
    """One completed span occurrence.

    ``path`` is the ``/``-joined ancestry including the span itself
    (e.g. ``fleet.scenario/detect.features``), which lets a report
    group self-time without re-deriving nesting from timestamps.

    ``trace_id`` / ``span_id`` / ``parent_span_id`` are empty unless a
    distributed trace context was active when the span closed (see
    :mod:`repro.obs.trace`).  They are defaulted so pre-trace event
    logs decode unchanged.
    """

    name: str
    path: str
    ts_s: float
    duration_s: float
    attrs: Dict[str, Any] = field(default_factory=dict)
    trace_id: str = ""
    span_id: str = ""
    parent_span_id: str = ""

    def to_json(self) -> Dict[str, Any]:
        """Versioned wire form (lazy schema import to avoid a cycle)."""
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "ObsEvent":
        from repro import schema

        return schema.from_wire("obs_event", payload)


def iter_events(path: str) -> Iterator[ObsEvent]:
    """Stream ObsEvents out of a JSONL trace file (a strict
    :class:`~repro.jsonlog.JsonLog`).

    Blank lines and a torn trailing line (a crash mid-append) are
    skipped; any other undecodable or non-object line raises
    :class:`~repro.errors.TelemetryError` naming ``path:line``: one
    process appends whole lines, so damage means something is wrong.
    """
    log = JsonLog(path, strict=True)
    for lineno, payload in log.replay():
        if not isinstance(payload, dict):
            log.skip(lineno, "event line is not a JSON object")  # raises
        yield ObsEvent.from_json(payload)


__all__ = ["ObsEvent", "iter_events"]
