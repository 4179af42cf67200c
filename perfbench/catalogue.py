"""What the benchmark measures: workloads, seeds and per-layer metrics.

``PER_LAYER`` holds the metrics of one traced pass, each tagged with the
end-to-end metric, and on which workload, a change to that layer should
move; ``report.py`` prints the tag beside each row.  ``BENCHMARK.json``
at the repository root lists the same names and units, and the
end-to-end metrics with their bounds.
"""

WORKLOADS = ("campaign", "analyze_jsonl", "live_replay")

#: Seed used while tuning the benchmark or a change measured with it.
DEV_SEED = 1
#: Seed kept out of development: a claimed gain must also hold on it.
HELD_OUT_SEED = 7919

_SIM = "campaign x_realtime; no change on the other two"
_COLLECT = (
    "campaign x_realtime, peak_rss_mb; live_replay x_realtime, "
    "advance_p90_ms"
)
_IO = "analyze_jsonl x_realtime, peak_rss_mb only"
_TIMELINE = (
    "live_replay advance_p50_ms, advance_p90_ms; analyze_jsonl x_realtime"
)
_STREAM = "live_replay advance_p90_ms, x_realtime"
_LIVE = "live_replay x_realtime"
_SETTLE = "campaign x_realtime"
_STORE = "campaign x_realtime (<1% of it: regression guard)"
_SMALL = "none: <=4% of every workload"
_COUNT = "exact count per pass, no timing"
_HEALTH = "benchmark health"

#: (name, unit, better, what a change to the layer should move).
#: Every value is per pass.
PER_LAYER = (
    ("rtc.session.self_s", "s", "lower", _SIM),
    ("rtc.step.self_s", "s", "lower", _SIM),
    ("rtc.step.calls", "count", "lower", _COUNT),
    ("ran.step_to.self_s", "s", "lower", _SIM),
    ("ran.step_to.calls", "count", "lower", _COUNT),
    ("ran.slots", "count", "lower", _COUNT),
    ("net.self_s", "s", "lower", _SIM),
    ("net.calls", "count", "lower", _COUNT),
    ("sim.build.self_s", "s", "lower", _SIM),
    ("sim.us_per_sim_ms", "us/ms", "lower", _SIM),
    ("phy.cpu_s", "s", "lower", _SIM),
    ("mac.cpu_s", "s", "lower", _SIM),
    ("rlc.cpu_s", "s", "lower", _SIM),
    ("rrc.cpu_s", "s", "lower", _SIM),
    ("ran.cpu_s", "s", "lower", _SIM),
    ("rtc.cpu_s", "s", "lower", _SIM),
    ("net.cpu_s", "s", "lower", _SIM),
    ("telemetry.cpu_s", "s", "lower", _COLLECT),
    ("telemetry.collect.self_s", "s", "lower", _COLLECT),
    ("telemetry.collect.records", "count", "lower", _COUNT),
    ("telemetry.collect.ns_per_record", "ns", "lower", _COLLECT),
    ("telemetry.bundle.self_s", "s", "lower", _COLLECT),
    ("telemetry.io.self_s", "s", "lower", _IO),
    ("telemetry.io.records", "count", "lower", _COUNT),
    ("telemetry.io.ns_per_record", "ns", "lower", _IO),
    ("telemetry.io.mb_per_s", "MB/s", "higher", _IO),
    ("telemetry.timeline.self_s", "s", "lower", _TIMELINE),
    ("telemetry.timeline.records", "count", "lower", _COUNT),
    ("telemetry.timeline.ns_per_record", "ns", "lower", _TIMELINE),
    ("records.dci", "count", "lower", _COUNT),
    ("records.gnb", "count", "lower", _COUNT),
    ("records.packets", "count", "lower", _COUNT),
    ("records.webrtc", "count", "lower", _COUNT),
    ("core.streaming.advance.self_s", "s", "lower", _STREAM),
    ("core.streaming.advance.calls", "count", "lower", _COUNT),
    ("core.streaming.reingest_ratio", "ratio", "lower", _STREAM),
    ("core.detector.self_s", "s", "lower", _SMALL),
    ("core.features.self_s", "s", "lower", _SMALL),
    ("core.trace.self_s", "s", "lower", _SMALL),
    ("core.windows", "count", "lower", _COUNT),
    ("live.drain.self_s", "s", "lower", _LIVE),
    ("live.drain.records", "count", "lower", _COUNT),
    ("live.aggregator.self_s", "s", "lower", _LIVE),
    ("live.service.self_s", "s", "lower", _LIVE),
    ("analysis.summarize.self_s", "s", "lower", _SETTLE),
    ("causal.attribute.self_s", "s", "lower", _SETTLE),
    ("fleet.scenario.self_s", "s", "lower", _SETTLE),
    ("store.ingest.self_s", "s", "lower", _STORE),
    ("store.ingest.rows", "count", "lower", _COUNT),
    ("store.query.self_s", "s", "lower", _STORE),
    ("store.query.calls", "count", "lower", _COUNT),
    ("unattributed_s", "s", "lower", _HEALTH),
    ("tracing_overhead_frac", "ratio", "lower", _HEALTH),
)
