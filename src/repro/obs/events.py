"""Structured span events and the JSONL trace file they land in.

An :class:`ObsEvent` is the durable record a closed span emits: the
span's dotted name, its full ancestry path, wall-clock start, duration,
and the merged attribute bag (own attributes layered over ancestors').
Events are serialized through the :mod:`repro.schema` wire codec so
trace files carry the same ``"schema"`` version stamp as every other
artifact in the repo and stay readable across format evolution.

This module stays a leaf on purpose: ``repro.schema.wire`` imports it
to register the codec, so it must not import schema (or anything above
it) at module level.  Serialization helpers lazy-import schema inside
the call, the same pattern ``fleet.executor.SessionOutcome`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator


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
    """Stream ObsEvents out of a JSONL trace file.

    Blank lines are skipped; an undecodable or non-object line raises
    :class:`~repro.errors.TelemetryError` naming ``path:line``, because
    a trace file is written by one process with atomic line appends
    and damage means something is actually wrong.
    """
    import json

    from repro.errors import TelemetryError

    with open(path, "rb") as fh:
        for number, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise TelemetryError(
                    f"{path}:{number}: undecodable event line: {exc}"
                ) from None
            if not isinstance(payload, dict):
                raise TelemetryError(
                    f"{path}:{number}: event line is not a JSON object"
                )
            yield ObsEvent.from_json(payload)


__all__ = ["ObsEvent", "iter_events"]
