"""Timing spans: nested, attribute-carrying, asyncio-safe.

``span("detect.features", session="s0")`` times a block, observes the
duration into the ``repro_span_seconds{span=...}`` histogram on the
default registry, and — when a sink is installed — emits an
:class:`~repro.obs.events.ObsEvent` carrying the span's ancestry path
and the merged attributes of every enclosing span.

Design constraints, in order:

1.  **Cheap when idle.**  With spans disabled (``obs.disable()``) the
    context manager is two attribute loads and a boolean check; no
    clock reads, no contextvar writes.  With spans enabled but no sink
    installed, the cost is two ``perf_counter`` reads, one histogram
    observation, and one contextvar set/reset — no allocation of event
    objects and no serialization.  That is what keeps the <2% overhead
    budget honest on the scaling benchmark.
2.  **Correct under asyncio and threads.**  The ancestry stack lives in
    a :mod:`contextvars.ContextVar`, so concurrent sessions in the live
    supervisor each see their own stack.
3.  **Zero instrumentation in workers by default.**  Sinks are
    process-local; a ProcessPool child never inherits the parent's
    sink, so fleet workers stay unobserved unless explicitly wired.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.jsonlog import JsonLog
from repro.obs.events import ObsEvent
from repro.obs.metrics import get_registry

#: Histogram every span observes into, labelled by span name.
SPAN_HISTOGRAM = "repro_span_seconds"

# (name, merged_attrs, span_id) per enclosing span, innermost last.
# span_id is "" unless a distributed trace context is active.
_stack: contextvars.ContextVar[
    Tuple[Tuple[str, Dict[str, Any], str], ...]
] = contextvars.ContextVar("repro_obs_span_stack", default=())

# The ambient distributed-trace context (duck-typed: anything carrying
# ``.trace_id`` / ``.span_id`` string attributes, normally a
# ``repro.obs.trace.TraceContext``).  Lives here, not in trace.py,
# because ``span()`` must read it on every close and spans.py cannot
# import trace.py without a cycle.
_trace: contextvars.ContextVar[Optional[Any]] = contextvars.ContextVar(
    "repro_obs_trace_ctx", default=None
)

_enabled = True
_sink: Optional["EventSink"] = None


def new_span_id() -> str:
    """A fresh 64-bit hex span id (W3C traceparent span-id width)."""
    return os.urandom(8).hex()


def set_trace_context(ctx: Optional[Any]) -> "contextvars.Token":
    """Install (or clear, with None) the ambient trace context.

    Returns the contextvar token; pass it to
    :func:`reset_trace_context` to restore the previous context.  The
    context rides the same :mod:`contextvars` machinery as the span
    stack, so concurrent asyncio tasks each see their own trace.
    """
    return _trace.set(ctx)


def reset_trace_context(token: "contextvars.Token") -> None:
    _trace.reset(token)


def get_trace_context() -> Optional[Any]:
    """The ambient trace context, or None when tracing is inactive."""
    return _trace.get()


def enable() -> None:
    """Turn span timing on (the default)."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn span timing off entirely — spans become near-no-ops."""
    global _enabled
    _enabled = False


def is_enabled() -> bool:
    return _enabled


def set_sink(sink: Optional["EventSink"]) -> Optional["EventSink"]:
    """Install (or clear, with None) the process event sink.

    Returns the previous sink so callers can restore it.
    """
    global _sink
    previous = _sink
    _sink = sink
    return previous


def get_sink() -> Optional["EventSink"]:
    return _sink


def current_attrs() -> Dict[str, Any]:
    """Merged attributes of the innermost active span (empty if none)."""
    stack = _stack.get()
    if not stack:
        return {}
    return dict(stack[-1][1])


def span_quantile_s(name: str, q: float) -> Optional[float]:
    """Estimated q-quantile of a span's duration, or None if unseen.

    Reads the ``repro_span_seconds`` histogram on the default registry
    — the health-pane accessor for p50/p99 advance latency and friends.
    """
    histogram = get_registry().get(SPAN_HISTOGRAM)
    if histogram is None or not histogram.count(span=name):  # type: ignore[attr-defined]
        return None
    return float(histogram.quantile(q, span=name))  # type: ignore[attr-defined]


class EventSink:
    """Interface: receives one ObsEvent per closed span."""

    def emit(self, event: ObsEvent) -> None:  # pragma: no cover
        raise NotImplementedError

    def close(self) -> None:
        pass


class ListSink(EventSink):
    """In-memory sink for tests and the obs-report golden path."""

    def __init__(self) -> None:
        self.events: List[ObsEvent] = []

    def emit(self, event: ObsEvent) -> None:
        self.events.append(event)


class JsonlSink(EventSink):
    """A :class:`~repro.jsonlog.JsonLog` of one versioned event per line."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._log = JsonLog(path)
        self._log.open()

    def emit(self, event: ObsEvent) -> None:
        line = json.dumps(
            event.to_json(), sort_keys=True, separators=(",", ":")
        )
        with self._lock:
            self._log.append(line)

    def close(self) -> None:
        with self._lock:
            self._log.close()


class span:
    """Context manager timing one named block.

    Usage::

        with span("fleet.scenario", scenario=spec.scenario_id):
            outcome = run_scenario(spec)

    Attributes given to a span are visible (merged) on every event
    emitted by spans nested inside it; inner values win on collision.
    Values known only as the block ends go on its own event through
    :meth:`set`.
    """

    __slots__ = ("name", "attrs", "_t0", "_ts", "_token", "_active", "_merged")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._active = False
        self._token = None
        self._t0 = 0.0
        self._ts = 0.0

    def set(self, **attrs: Any) -> None:
        """Add *attrs* to this span's event (a no-op when spans are
        disabled); spans already opened inside it keep what they saw."""
        if self._active:
            self._merged.update(attrs)

    def __enter__(self) -> "span":
        if not _enabled:
            return self
        self._active = True
        stack = _stack.get()
        if stack:
            merged = dict(stack[-1][1])
            merged.update(self.attrs)
        else:
            merged = dict(self.attrs)
        self._merged = merged
        span_id = "" if _trace.get() is None else new_span_id()
        self._token = _stack.set(stack + ((self.name, merged, span_id),))
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self._active:
            return
        duration = time.perf_counter() - self._t0
        stack = _stack.get()
        _stack.reset(self._token)
        self._active = False
        get_registry().histogram(
            SPAN_HISTOGRAM, help="Span durations by name."
        ).observe(duration, span=self.name)
        sink = _sink
        if sink is not None:
            name, merged, span_id = stack[-1]
            path = "/".join(entry[0] for entry in stack)
            if exc_type is not None:
                merged = dict(merged)
                merged["error"] = exc_type.__name__
            ctx = _trace.get()
            if ctx is not None and span_id:
                trace_id = ctx.trace_id
                # Parent is the enclosing in-process span; a root-level
                # span parents to the propagated remote context span.
                parent = stack[-2][2] if len(stack) > 1 else ""
                parent = parent or ctx.span_id
            else:
                trace_id = span_id = parent = ""
            sink.emit(
                ObsEvent(
                    name=name,
                    path=path,
                    ts_s=self._ts,
                    duration_s=duration,
                    attrs=merged,
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_span_id=parent,
                )
            )


__all__ = [
    "SPAN_HISTOGRAM",
    "EventSink",
    "JsonlSink",
    "ListSink",
    "current_attrs",
    "disable",
    "enable",
    "get_sink",
    "get_trace_context",
    "is_enabled",
    "new_span_id",
    "reset_trace_context",
    "set_sink",
    "set_trace_context",
    "span",
    "span_quantile_s",
]
