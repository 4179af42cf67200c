"""repro.obs: registry semantics, spans, event serde, and exposition.

Covers the observability contract the rest of the repo leans on:
counters/gauges/histograms behave like their Prometheus namesakes,
nested spans merge ancestor attributes, events round-trip through the
canonical schema codec, ``render_prom`` emits parseable exposition
text, and a disabled sink keeps spans cheap enough to leave on
everywhere.
"""

import hashlib
import json
import math
import time

import pytest

from repro import api, schema
from repro.cli import main as cli_main
from repro.errors import TelemetryError
from repro.obs import (
    DEFAULT_BUCKETS,
    JsonlSink,
    ListSink,
    MetricsRegistry,
    ObsEvent,
    current_attrs,
    disable,
    enable,
    get_registry,
    is_enabled,
    iter_events,
    parse_prom,
    parse_prom_samples,
    report_from_file,
    sample_key,
    set_sink,
    span,
    summarize_events,
    write_metrics_file,
)
from repro.fleet.scenarios import ScenarioSpec
from repro.live.service import canonical_detections
from repro.obs.report import render_obs_report
from repro.telemetry.io import dump_lines


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """Each test sees an enabled obs layer with no sink installed."""
    previous = set_sink(None)
    enable()
    get_registry().reset()
    yield
    set_sink(previous)
    enable()
    get_registry().reset()


# -- registry semantics ----------------------------------------------------------


class TestRegistry:
    def test_counter_accumulates_per_label_set(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_total", help="Requests.")
        counter.inc()
        counter.inc(2, route="a")
        counter.inc(3, route="a")
        assert counter.value() == 1
        assert counter.value(route="a") == 5
        assert counter.total() == 6

    def test_counter_rejects_negative_increment(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")

    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("workers")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value() == 3

    def test_histogram_buckets_and_quantiles(self):
        histogram = MetricsRegistry().histogram(
            "latency_seconds", buckets=(0.1, 1.0, 10.0)
        )
        for value in (0.05, 0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count() == 4
        assert histogram.sum() == pytest.approx(5.6)
        # p50 falls in the first bucket, p99 in the (1, 10] bucket.
        assert histogram.quantile(0.5) <= 0.1
        assert 1.0 < histogram.quantile(0.99) <= 10.0

    def test_histogram_rejects_empty_buckets(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h", buckets=())

    def test_reset_drops_all_instruments(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(7)
        registry.reset()
        assert registry.render_prom() == ""
        assert registry.counter("c").total() == 0


# -- spans -----------------------------------------------------------------------


class TestSpans:
    def test_nested_spans_merge_ancestor_attrs(self):
        sink = ListSink()
        set_sink(sink)
        with span("outer", a=1):
            with span("inner", b=2):
                assert current_attrs() == {"a": 1, "b": 2}
        names = [(e.name, e.path) for e in sink.events]
        assert names == [("inner", "outer/inner"), ("outer", "outer")]
        inner, outer = sink.events
        assert inner.attrs == {"a": 1, "b": 2}
        assert outer.attrs == {"a": 1}

    def test_inner_attr_wins_on_collision(self):
        sink = ListSink()
        set_sink(sink)
        with span("outer", k="outer"):
            with span("inner", k="inner"):
                assert current_attrs()["k"] == "inner"
        assert sink.events[0].attrs["k"] == "inner"

    def test_span_records_histogram_sample(self):
        with span("work"):
            pass
        histogram = get_registry().histogram("repro_span_seconds")
        assert histogram.count(span="work") == 1

    def test_span_tags_error_type_on_exception(self):
        sink = ListSink()
        set_sink(sink)
        with pytest.raises(KeyError):
            with span("doomed"):
                raise KeyError("boom")
        assert sink.events[0].attrs["error"] == "KeyError"

    def test_disabled_spans_emit_nothing(self):
        sink = ListSink()
        set_sink(sink)
        disable()
        assert not is_enabled()
        with span("silent", x=1):
            assert current_attrs() == {}
        assert sink.events == []
        assert get_registry().render_prom() == ""

    def test_disabled_sink_overhead_is_small(self):
        """Spans without a sink must be cheap enough to stay always-on.

        Smoke-level bound (CI machines are noisy): instrumented loop
        stays within 10x of the bare loop — the real 2% + 5 ms bar on a
        full 60 s analyze is the ``overhead_60s`` row of
        ``benchmarks/check_perf.py``.
        """

        def bare():
            total = 0
            for i in range(2000):
                total += i
            return total

        def instrumented():
            total = 0
            for i in range(2000):
                with span("hot"):
                    total += i
            return total

        bare()
        instrumented()  # warm up
        t0 = time.perf_counter()
        bare()
        bare_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        instrumented()
        instrumented_s = time.perf_counter() - t0
        assert instrumented_s < max(bare_s * 10, 0.05)


# -- simulation spans ------------------------------------------------------------

#: The counters ``TwoPartySession.advance_to`` adds to, by span attribute.
SIM_COUNTERS = {
    "ticks": "repro_sim_ticks_total",
    "slots": "repro_sim_slots_total",
    "client_steps": "repro_sim_client_steps_total",
}


def _sim_specs():
    return [
        ScenarioSpec(
            name="obs/fdd", profile="tmobile_fdd", seed=2, duration_s=1.5
        ),
        ScenarioSpec(
            name="obs/wired", profile="wired", seed=3, duration_s=1.0
        ),
    ]


def _counters():
    registry = get_registry()
    return {
        attr: registry.counter(name).total()
        for attr, name in SIM_COUNTERS.items()
    }


def _bundle_digest(bundle) -> str:
    return hashlib.sha256("\n".join(dump_lines(bundle)).encode()).hexdigest()


class TestSimAdvanceSpan:
    def test_campaign_emits_one_sim_advance_per_scenario(self):
        """Each scenario's one ``advance_to`` is one ``sim.advance``
        span inside its ``fleet.scenario``, carrying exactly what it
        added to the simulation counters."""
        sink = ListSink()
        set_sink(sink)
        for spec in _sim_specs():
            before = _counters()
            start = len(sink.events)
            api.campaign([spec])
            after = _counters()
            advances = [
                event
                for event in sink.events[start:]
                if event.name == "sim.advance"
            ]
            assert len(advances) == 1, spec.name
            event = advances[0]
            assert event.path.endswith("fleet.scenario/sim.advance")
            assert event.attrs["scenario"] == spec.name
            for attr in SIM_COUNTERS:
                assert event.attrs[attr] == after[attr] - before[attr]
            assert event.attrs["ticks"] > 0 and event.attrs["client_steps"] > 0
        fdd, wired = (
            event for event in sink.events if event.name == "sim.advance"
        )
        assert fdd.attrs["slots"] > 0
        assert wired.attrs["slots"] == 0  # no RAN on a wired call

    def test_bundles_identical_with_spans_disabled(
        self, tmp_path, cellular_bundle
    ):
        """Instrumentation is inert: with a JSONL event sink attached,
        a simulated bundle and a 20 s call's detections equal those of
        a run with obs disabled, and the sink received span events."""
        spec = _sim_specs()[0]
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        set_sink(sink)
        traced = spec.build_session().run(spec.duration_us).bundle
        detections = canonical_detections(api.analyze(cellular_bundle).windows)
        set_sink(None)
        sink.close()
        disable()
        quiet = spec.build_session().run(spec.duration_us).bundle
        assert _bundle_digest(traced) == _bundle_digest(quiet)
        assert detections == canonical_detections(
            api.analyze(cellular_bundle).windows
        )
        assert detections != "[]"
        assert {"sim.advance", "detect.features"} <= {
            event.name for event in iter_events(path)
        }

    def test_obs_report_lists_sim_advance(self, tmp_path, capsys):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        set_sink(sink)
        api.campaign(_sim_specs())
        set_sink(None)
        sink.close()
        assert cli_main(["obs", "report", path]) == 0
        stages = {
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()
            if line.strip()
        }
        assert {"sim.advance", "fleet.scenario"} <= stages


# -- events: JSONL round-trip through the schema codec ---------------------------


class TestEvents:
    def test_event_round_trips_through_schema_codec(self):
        event = ObsEvent(
            name="detect.trace",
            path="fleet.scenario/detect.trace",
            ts_s=123.5,
            duration_s=0.004,
            attrs={"scenario": "smoke-0", "n": 3},
        )
        wire = json.loads(json.dumps(event.to_json()))
        assert wire["schema"] == schema.SCHEMA_VERSION
        assert ObsEvent.from_json(wire) == event

    def test_jsonl_sink_round_trip(self, tmp_path):
        path = str(tmp_path / "events.jsonl")
        sink = JsonlSink(path)
        set_sink(sink)
        with span("outer", run="r1"):
            with span("inner"):
                pass
        set_sink(None)
        sink.close()
        events = list(iter_events(path))
        assert [e.name for e in events] == ["inner", "outer"]
        assert events[0].path == "outer/inner"
        assert events[0].attrs == {"run": "r1"}

    def test_iter_events_rejects_garbage(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text("not json\n")
        with pytest.raises(TelemetryError, match=f"{path}:1: undecodable"):
            list(iter_events(str(path)))

    @pytest.mark.parametrize(
        "bad, why",
        [
            (b"{not json", "undecodable"),
            (b"\xff\xfe{}", "undecodable"),
            (b"[1, 2]", "not a JSON object"),
            (b"42", "not a JSON object"),
        ],
    )
    def test_iter_events_names_the_bad_line(self, tmp_path, bad, why):
        good = json.dumps(ObsEvent("a", "a", 0.0, 0.1, {}).to_json())
        path = tmp_path / "events.jsonl"
        path.write_bytes(good.encode() + b"\n\n" + bad + b"\n")
        events = iter_events(str(path))
        assert next(events).name == "a"
        with pytest.raises(TelemetryError, match=f"{path}:3: .*{why}"):
            next(events)

    def test_report_summarizes_per_stage(self, tmp_path):
        events = [
            ObsEvent("a", "a", 0.0, 0.2, {}),
            ObsEvent("a", "a", 0.0, 0.4, {}),
            ObsEvent("b", "b", 0.0, 0.1, {}),
        ]
        stages = summarize_events(events)
        assert stages["a"].count == 2
        assert stages["a"].total_s == pytest.approx(0.6)
        assert stages["a"].mean_s == pytest.approx(0.3)
        text = render_obs_report(stages)
        assert "a" in text and "b" in text

        path = str(tmp_path / "events.jsonl")
        with open(path, "w") as handle:
            for event in events:
                handle.write(json.dumps(event.to_json()) + "\n")
        assert "a" in report_from_file(path)


# -- Prometheus exposition -------------------------------------------------------

GOLDEN_PROM = """\
# HELP repro_scenarios_completed_total Scenarios done.
# TYPE repro_scenarios_completed_total counter
repro_scenarios_completed_total 5
# HELP repro_span_seconds Span durations.
# TYPE repro_span_seconds histogram
repro_span_seconds_bucket{span="detect",le="0.1"} 2
repro_span_seconds_bucket{span="detect",le="1"} 3
repro_span_seconds_bucket{span="detect",le="+Inf"} 3
repro_span_seconds_sum{span="detect"} 0.6
repro_span_seconds_count{span="detect"} 3
# HELP repro_workers Workers alive.
# TYPE repro_workers gauge
repro_workers{role="sim"} 2
"""


class TestExposition:
    def test_render_prom_matches_golden(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_scenarios_completed_total", help="Scenarios done."
        ).inc(5)
        histogram = registry.histogram(
            "repro_span_seconds",
            help="Span durations.",
            buckets=(0.1, 1.0),
        )
        for value in (0.05, 0.05, 0.5):
            histogram.observe(value, span="detect")
        registry.gauge("repro_workers", help="Workers alive.").set(
            2, role="sim"
        )
        assert registry.render_prom() == GOLDEN_PROM

    def test_parse_prom_inverts_render(self):
        parsed = parse_prom(GOLDEN_PROM)
        assert parsed["repro_scenarios_completed_total"] == 5
        assert parsed['repro_workers{role="sim"}'] == 2
        assert parsed[
            'repro_span_seconds_bucket{span="detect",le="+Inf"}'
        ] == 3
        assert parsed['repro_span_seconds_sum{span="detect"}'] == (
            pytest.approx(0.6)
        )

    def test_write_metrics_file_atomic_snapshot(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        path = str(tmp_path / "metrics.prom")
        write_metrics_file(registry, path)
        parsed = parse_prom(open(path).read())
        assert parsed["c"] == 3

    def test_default_buckets_are_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert all(
            not math.isinf(bound) for bound in DEFAULT_BUCKETS
        )  # +Inf is implicit

    def test_label_values_with_backslash_and_quote_round_trip(self):
        """parse_prom_samples is the true inverse of render_prom even
        for label values containing ``\\`` and ``"``."""
        registry = MetricsRegistry()
        registry.counter("paths_total", help="Paths.").inc(
            2, path="C:\\temp\\x", msg='say "hi"'
        )
        text = registry.render_prom()
        ((name, labels, value),) = parse_prom_samples(text)
        assert name == "paths_total"
        assert labels == {"path": "C:\\temp\\x", "msg": 'say "hi"'}
        assert value == 2
        # Re-keying through the escaper reproduces the rendered line.
        assert f"{sample_key(name, labels)} 2" in text.splitlines()
        assert parse_prom(text)[sample_key(name, labels)] == 2

    def test_escaped_labels_survive_render_parse_render(self):
        """Render → parse → re-render is a fixed point on hostile
        label values (the store's prom-ingest path relies on this)."""
        registry = MetricsRegistry()
        registry.gauge("g", help="G.").set(
            1, a="back\\slash", b='quo"te', c="plain"
        )
        text = registry.render_prom()
        rebuilt = MetricsRegistry()
        for name, labels, value in parse_prom_samples(text):
            rebuilt.gauge(name, help="G.").set(value, **labels)
        assert rebuilt.render_prom() == text

    def test_inf_histogram_bucket_survives_the_inverse(self):
        registry = MetricsRegistry()
        histogram = registry.histogram(
            "lat", help="L.", buckets=(0.1,)
        )
        histogram.observe(0.05, route="a\\b")
        histogram.observe(5.0, route="a\\b")
        text = registry.render_prom()
        parsed = parse_prom(text)
        key = sample_key("lat_bucket", {"route": "a\\b", "le": "+Inf"})
        assert parsed[key] == 2
        # And the sample form carries le="+Inf" through unharmed.
        inf_rows = [
            (name, labels, value)
            for name, labels, value in parse_prom_samples(text)
            if labels.get("le") == "+Inf"
        ]
        assert inf_rows == [
            ("lat_bucket", {"route": "a\\b", "le": "+Inf"}, 2.0)
        ]
