"""Per-layer attribution of a traced pass, measured from outside.

:class:`Tracer` wraps the public entry points of each layer, reads the
program's own spans through an event sink, and samples stacks with the
program's profiler.  A layer's self time is its wall time minus the
time of the wrapped calls and spans nested inside it; what a pass
spends outside every layer is ``unattributed_s``.  Wrapping patches
class and module attributes: :meth:`Tracer.uninstall` puts every
original back, and :meth:`Tracer.leftovers` counts any that did not
come back.
"""

from __future__ import annotations

import asyncio.events
import functools
import os
import time
from typing import Dict, List, Optional, Tuple

from catalogue import PER_LAYER
from repro.api import backends
from repro.causal import score
from repro.core.detector import DominoDetector
from repro.core.streaming import StreamingDomino
from repro.fleet import executor
from repro.fleet.scenarios import ScenarioSpec
from repro.live.aggregator import LiveAggregator
from repro.live.service import LiveRcaService
from repro.net.link import InternetSegment, WiredAccess
from repro.obs import spans
from repro.obs.metrics import get_registry
from repro.obs.profile import SamplingProfiler
from repro.ran.simulator import RanSimulator
from repro.rtc.client import WebRtcClient
from repro.rtc.session import TwoPartySession
from repro.store.db import RcaStore
from repro.store.query import StoreQuery
from repro.telemetry import io as telemetry_io
from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.timeline import Timeline

#: Program spans read as layers.  Each is a leaf (no wrapped call runs
#: inside it), so its whole duration is self time.
SPAN_LAYERS = {
    "detect.features": "core.features",
    "detect.trace": "core.trace",
    "live.drain": "live.drain",
}

#: Profiler split by module prefix; a sample goes to its innermost
#: matching frame.
PROFILE_MARKERS = {
    layer: (f"repro.{layer}.",)
    for layer in ("phy", "mac", "rlc", "rrc", "ran", "rtc", "net", "telemetry")
}

#: Program metrics read around each pass: key -> (metric, sample name);
#: a None sample name sums a counter over its labels.
PROGRAM_METRICS = {
    "core.windows": ("repro_windows_detected_total", None),
    "store.ingest.rows": ("repro_store_rows_total", None),
    "store.query.calls": (
        "repro_store_query_seconds",
        "repro_store_query_seconds_count",
    ),
}

_SOURCES = (
    ("dci", "dci"),
    ("gnb", "gnb_log"),
    ("packets", "packets"),
    ("webrtc", "webrtc_stats"),
)


def _now(args):
    return args[0].now_us


def _simulated(args, result, before):
    return {"sim.simulated_us": args[0].now_us - before}


def _slots(args, result, before):
    ran = args[0]
    return {"ran.slots": (ran.now_us - before) // ran.grid.slot_us}


def _loaded(args, result, before):
    path = args[0]
    return {
        "telemetry.io.records": sum(
            len(getattr(result, attr)) for _, attr in _SOURCES
        ),
        "telemetry.io.bytes": (
            os.path.getsize(path) if isinstance(path, str) else 0
        ),
    }


def _ingested(args, result, before):
    bundle = args[1]  # from_bundle(cls, bundle, ...)
    counts = {
        f"records.{name}": len(getattr(bundle, attr))
        for name, attr in _SOURCES
    }
    counts["telemetry.timeline.records"] = sum(counts.values())
    return counts


#: (owner, attributes, layer) for every wrapped entry point.
TARGETS = (
    (TwoPartySession, ("advance_to",), "rtc.session"),
    (WebRtcClient, ("step",), "rtc.step"),
    (RanSimulator, ("step_to",), "ran.step_to"),
    (InternetSegment, ("send", "poll"), "net"),
    (WiredAccess, ("send_up", "send_down", "poll"), "net"),
    (ScenarioSpec, ("build_session",), "sim.build"),
    (
        TelemetryCollector,
        (
            "record_dci",
            "record_gnb_log",
            "record_packet_sent",
            "record_packet_received",
            "record_webrtc_stats",
        ),
        "telemetry.collect",
    ),
    (TelemetryCollector, ("bundle",), "telemetry.bundle"),
    (telemetry_io, ("load_bundle",), "telemetry.io"),
    (Timeline, ("from_bundle",), "telemetry.timeline"),
    (DominoDetector, ("__init__", "analyze_timeline"), "core.detector"),
    (StreamingDomino, ("advance",), "core.streaming.advance"),
    (LiveAggregator, ("update",), "live.aggregator"),
    (LiveRcaService, ("snapshot",), "live.aggregator"),
    # Every callback the event loop runs: the live service's tasks
    # (sources, supervisors) minus the layers nested inside them.
    (asyncio.events.Handle, ("_run",), "live.service"),
    (executor, ("summarize_session",), "analysis.summarize"),
    (score, ("attribute_detectors",), "causal.attribute"),
    (backends, ("run_scenario",), "fleet.scenario"),
    (RcaStore, ("open", "ingest_outcomes", "close"), "store.ingest"),
    (
        StoreQuery,
        (
            "outcome_minutes",
            "rollup_episodes",
            "rollup_outcomes",
            "episode_rate_series",
            "qoe_trend",
            "top_movers",
        ),
        "store.query",
    ),
)

#: Work counted per call: layer -> (units(args, result, before),
#: before(args) or None).
UNITS = {
    "rtc.session": (_simulated, _now),
    "ran.step_to": (_slots, _now),
    "telemetry.io": (_loaded, None),
    "telemetry.timeline": (_ingested, None),
}


def _stored(owner, attr):
    """The attribute as stored on *owner* (a classmethod stays one)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _program_total(metric_name: str, sample_name: Optional[str]) -> float:
    metric = get_registry().get(metric_name)
    if metric is None:
        return 0.0
    if sample_name is None:
        return metric.total()
    return sum(
        value for name, _, value in metric.samples() if name == sample_name
    )


class UnitSink(spans.EventSink):
    """Durations (ms) of one program span in a pass, keyed by unit.

    A unit is the n-th span carrying one value of the *key_attr*
    attribute (a session's n-th advance, a named scenario), so the same
    unit lines up across passes.
    """

    def __init__(self, name: Optional[str], key_attr: Optional[str]) -> None:
        self.name = name
        self.key_attr = key_attr
        self.start_pass()

    def start_pass(self) -> None:
        self.ms: Dict[Tuple[object, int], float] = {}
        self._seen: Dict[object, int] = {}

    def emit(self, event) -> None:
        if event.name != self.name:
            return
        owner = event.attrs.get(self.key_attr)
        n = self._seen.get(owner, 0)
        self._seen[owner] = n + 1
        self.ms[(owner, n)] = event.duration_s * 1e3


class Tracer(spans.EventSink):
    """Wrappers, a span sink and a profiler over a run of traced passes."""

    def __init__(self, interval_s: float = 0.005) -> None:
        self.self_s: Dict[str, float] = {}
        self.total_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        self.profiler = SamplingProfiler(interval_s=interval_s)
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._previous_sink = None
        self._program_start: Dict[str, float] = {}

    # -- wrappers ----------------------------------------------------------

    def _layer(self, layer: str) -> None:
        self.self_s.setdefault(layer, 0.0)
        self.total_s.setdefault(layer, 0.0)
        self.calls.setdefault(layer, 0)

    def _timed(self, fn, layer: str, units, before):
        self._layer(layer)
        stack, counts = self._stack, self.counts
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            frame = [0.0]  # seconds spent in wrapped children
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                total_s[layer] += elapsed
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if units is not None:
                for key, value in units(args, result, token).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        for owner, attrs, layer in TARGETS:
            units, before = UNITS.get(layer, (None, None))
            for attr in attrs:
                stored = _stored(owner, attr)
                if isinstance(stored, classmethod):
                    wrapped = classmethod(
                        self._timed(stored.__func__, layer, units, before)
                    )
                else:
                    wrapped = self._timed(stored, layer, units, before)
                setattr(owner, attr, wrapped)
                self._patches.append((owner, attr, stored))
        for layer in SPAN_LAYERS.values():
            self._layer(layer)
        self._previous_sink = spans.set_sink(self)

    def uninstall(self) -> None:
        spans.set_sink(self._previous_sink)
        for owner, attr, stored in reversed(self._patches):
            setattr(owner, attr, stored)

    def leftovers(self) -> int:
        """Patches (and the span sink) still in place after uninstall."""
        left = sum(
            1
            for owner, attr, stored in self._patches
            if _stored(owner, attr) is not stored
        )
        return left + int(spans.get_sink() is self)

    # -- spans -------------------------------------------------------------

    def emit(self, event) -> None:
        layer = SPAN_LAYERS.get(event.name)
        if layer is None:
            return
        duration = event.duration_s
        self.self_s[layer] += duration
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if layer == "live.drain":
            self.counts["live.drain.records"] = self.counts.get(
                "live.drain.records", 0
            ) + event.attrs.get("n_records", 0)
        if self._stack:
            self._stack[-1][0] += duration

    # -- passes ------------------------------------------------------------

    def start_pass(self) -> None:
        for key, (metric, sample) in PROGRAM_METRICS.items():
            self._program_start[key] = _program_total(metric, sample)
        self.profiler.start()

    def stop_pass(self) -> None:
        self.profiler.stop()
        for key, (metric, sample) in PROGRAM_METRICS.items():
            self.counts[key] = (
                self.counts.get(key, 0)
                + _program_total(metric, sample)
                - self._program_start[key]
            )

    def metrics(
        self, passes: int, wall_s: float
    ) -> Dict[str, Tuple[float, str]]:
        """Every metric of ``catalogue.PER_LAYER``, per pass."""
        per = 1.0 / passes
        values: Dict[str, float] = {}
        for layer, seconds in self.self_s.items():
            values[f"{layer}.self_s"] = seconds * per
        for layer, n in self.calls.items():
            values[f"{layer}.calls"] = n * per
        for key, n in self.counts.items():
            values[key] = n * per

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        get = values.get
        values["telemetry.collect.records"] = get("telemetry.collect.calls")
        values["telemetry.collect.ns_per_record"] = ratio(
            get("telemetry.collect.self_s") * 1e9,
            get("telemetry.collect.records"),
        )
        values["telemetry.io.ns_per_record"] = ratio(
            get("telemetry.io.self_s") * 1e9, get("telemetry.io.records", 0.0)
        )
        values["telemetry.io.mb_per_s"] = ratio(
            get("telemetry.io.bytes", 0.0) / 1e6, get("telemetry.io.self_s")
        )
        values["telemetry.timeline.ns_per_record"] = ratio(
            get("telemetry.timeline.self_s") * 1e9,
            get("telemetry.timeline.records", 0.0),
        )
        values["sim.us_per_sim_ms"] = ratio(
            self.total_s["rtc.session"] * per * 1e6,
            get("sim.simulated_us", 0.0) / 1e3,
        )
        values["core.streaming.reingest_ratio"] = ratio(
            get("telemetry.timeline.records", 0.0),
            get("live.drain.records", 0.0),
        )
        values["unattributed_s"] = (wall_s - sum(self.self_s.values())) * per
        shares = self.profiler.attribute(PROFILE_MARKERS)
        for layer in PROFILE_MARKERS:
            values[f"{layer}.cpu_s"] = (
                shares[layer] * self.profiler.wall_s * per
            )
        return {
            name: (values.get(name, 0.0), unit)
            for name, unit, _, _ in PER_LAYER
        }
