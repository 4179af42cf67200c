"""repro.obs — zero-dependency observability for the RCA pipeline.

Three layers, all process-local and always importable:

- **Metrics** (:mod:`repro.obs.metrics`): counters, gauges, and
  fixed-bucket histograms in a :class:`MetricsRegistry`, rendered as
  Prometheus text via ``render_prom()``.
- **Spans** (:mod:`repro.obs.spans`): ``span(name, **attrs)`` timing
  contexts on the hot path, feeding the ``repro_span_seconds``
  histogram and — when a sink is installed — a versioned JSONL event
  trace.
- **Reports** (:mod:`repro.obs.report`): ``repro obs report`` turns a
  trace file into a per-stage time breakdown.
- **Distributed tracing** (:mod:`repro.obs.trace`): per-scenario
  trace contexts propagated across the cluster wire, collected as
  :class:`TraceSpan` records, and rendered as end-to-end timelines.
- **Profiling** (:mod:`repro.obs.profile`): a sampling wall-clock
  profiler with collapsed-stack (flamegraph) output behind the CLI
  ``--profile`` flag.

The package deliberately imports nothing outside the stdlib at module
level (events/metrics/spans/logs are leaves), so any subsystem can
instrument itself without creating an import cycle.
"""

from repro.obs.events import ObsEvent, iter_events
from repro.obs.logs import get_logger, setup_logging
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    parse_prom,
    parse_prom_samples,
    sample_key,
    write_metrics_file,
)
from repro.obs.profile import SamplingProfiler, profile_to_file
from repro.obs.report import (
    StageSummary,
    expand_event_paths,
    render_obs_report,
    report_from_file,
    report_from_files,
    summarize_events,
)
from repro.obs.spans import (
    SPAN_HISTOGRAM,
    EventSink,
    JsonlSink,
    ListSink,
    current_attrs,
    disable,
    enable,
    get_sink,
    get_trace_context,
    is_enabled,
    new_span_id,
    reset_trace_context,
    set_sink,
    set_trace_context,
    span,
    span_quantile_s,
)
from repro.obs.trace import (
    ABANDONED,
    TraceCollector,
    TraceContext,
    TraceSpan,
    assemble_traces,
    new_trace_id,
    orphan_spans,
    render_trace_timeline,
    trace_scope,
)

__all__ = [
    "ABANDONED",
    "DEFAULT_BUCKETS",
    "SPAN_HISTOGRAM",
    "Counter",
    "EventSink",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "ListSink",
    "MetricsRegistry",
    "ObsEvent",
    "SamplingProfiler",
    "StageSummary",
    "TraceCollector",
    "TraceContext",
    "TraceSpan",
    "assemble_traces",
    "current_attrs",
    "disable",
    "enable",
    "expand_event_paths",
    "get_logger",
    "get_registry",
    "get_sink",
    "get_trace_context",
    "is_enabled",
    "iter_events",
    "new_span_id",
    "new_trace_id",
    "orphan_spans",
    "parse_prom",
    "parse_prom_samples",
    "profile_to_file",
    "render_obs_report",
    "render_trace_timeline",
    "report_from_file",
    "report_from_files",
    "reset_trace_context",
    "sample_key",
    "set_sink",
    "set_trace_context",
    "setup_logging",
    "span",
    "span_quantile_s",
    "summarize_events",
    "trace_scope",
    "write_metrics_file",
]
