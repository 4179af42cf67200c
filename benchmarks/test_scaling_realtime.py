"""Scaling: Domino analysis throughput vs. trace duration.

The paper positions Domino for continuous, near-real-time operation on
operator-provided traces (§1).  This benchmark measures the end-to-end
analysis cost (resampling + 36 feature detectors + compiled backward
trace) per minute of trace, and the implied real-time factor — how many
concurrent sessions one core could monitor live.

It also pits the vectorized batch feature engine (the production
engine) against the per-window reference engine on the same trace,
asserts their detections are identical, and emits a machine-readable
``BENCH_scaling.json`` next to the text table so CI's perf-smoke step
(``benchmarks/check_perf.py``) can fail on per-window-cost regressions.

The same 60 s trace is then saved as JSONL once, and every other timed
block runs in a fresh ``spawn`` child of its own (:func:`_in_child`),
whose heap holds only what the block loads:

* ``io_60s`` times the read path, ``load_bundle``, against a bare
  per-line ``json.loads`` pass over the same file;
* ``overhead_60s`` times one analyze of that file with obs disabled,
  with always-on sinkless spans, and under the sampling profiler;
* ``collect_60s`` feeds the trace's DCI rows through a fresh
  collector, to time the write path against a bare ``list.append`` of
  the same row tuples;
* ``stream_60s`` feeds the trace to one ``StreamingDomino`` in 500 ms
  batches, advancing after each (the live plane's unit), and reports
  ms per advance plus the ms per advance spent in the program's own
  ``ingest.from_bundle`` and ``detect.features`` spans; its detections
  must equal the offline report's;
* ``sim_60s`` simulates a 60 s T-Mobile FDD call and a 12 s Amarisoft
  (TDD) call (simulation is ~99% of a scenario), in us per simulated
  ms, plus the deterministic share of client ticks the next-event
  clock actually steps;
* ``store_movers`` times top-k movers over a 100-scenario store.

``stream_60s``, ``sim_60s`` and ``store_movers`` scale their times to
the reference core by a calibration loop timed around each repeat.
``engines_60s`` (two engines timed back to back on one in-memory
timeline) and ``profile_60s`` (a share of samples, not a time) stay in
this process.
"""

import contextlib
import dataclasses
import json
import multiprocessing
import os
import time

from repro import api, obs
from repro.analysis.ascii import render_table
from repro.core.detector import DominoDetector, DominoReport, WindowDetection
from repro.core.features import FeatureExtractor
from repro.core.streaming import StreamingDomino
from repro.core.trace import evaluate_chains
from repro.datasets.cells import AMARISOFT, TMOBILE_FDD
from repro.datasets.runner import make_cellular_session
from repro.fleet.executor import SessionOutcome
from repro.live.sources import TelemetryBatch
from repro.obs.metrics import get_registry
from repro.obs.profile import SamplingProfiler
from repro.obs.spans import SPAN_HISTOGRAM
from repro.store import StoreQuery
from repro.telemetry.collect import TelemetryCollector
from repro.telemetry.columns import DCI, SCHEMAS
from repro.telemetry.io import load_bundle, save_bundle
from repro.telemetry.records import TelemetryBundle
from repro.telemetry.timeline import Timeline

#: The committed tables' directory (conftest's ``RESULTS_DIR``, which
#: the read-path child could not import: it unpickles its function from
#: this module, and in a full run ``tests/`` comes first on the path it
#: inherits, with a conftest of its own).
RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Interleaved repeats of each read-path timing; each keeps its minimum.
IO_REPEATS = 5

#: Interleaved repeats of each write-path timing; each keeps its minimum.
COLLECT_REPEATS = 5

#: Seconds one repetition of the calibration loop takes on the reference
#: core (perfbench's host_speed loop and constant: a 2-core x86-64 VM).
REFERENCE_REP_S = 1.2e-3

#: How long one calibration reading runs the loop.
CALIBRATION_WINDOW_S = 0.2

#: Timed repeats of the 12 s Amarisoft call; the fastest is kept.  The
#: 60 s FDD call runs once.
SIM_REPEATS = 3

#: Telemetry time between the stream's feeds, each followed by one
#: advance.
STREAM_STEP_US = 500_000

#: Timed repeats of the 60 s stream; the fastest is kept.
STREAM_REPEATS = 3

#: The program's spans whose wall time per advance the stream records.
STREAM_SPANS = ("ingest.from_bundle", "detect.features")

#: Interleaved rounds of each overhead arm, after one warm-up round;
#: each arm keeps its minimum.
OVERHEAD_ROUNDS = 9

#: The sampling profiler's interval in the profiled overhead arm (its
#: default, and the CLI's ``--profile``).
OVERHEAD_PROFILE_INTERVAL_S = 0.005

#: Scenarios in the ``store_movers`` store, half in each window.
MOVERS_SCENARIOS = 100

#: Timed repeats of the movers query; the fastest is kept.
MOVERS_REPEATS = 3

#: Samples ``profile_60s`` collects at the least: it profiles analyze
#: passes until it holds this many, so the top-10 share it records can
#: fall below 1 on any machine.
PROFILE_MIN_SAMPLES = 50


def _truncate(bundle: TelemetryBundle, duration_us: int) -> TelemetryBundle:
    """*bundle*'s first *duration_us*: each source's columns masked on
    its time column, as typed columns like every bundle a campaign
    analyzes."""
    return dataclasses.replace(
        bundle,
        duration_us=duration_us,
        **{
            schema.source: getattr(bundle, schema.source).take(
                getattr(bundle, schema.source).times < duration_us
            )
            for schema in SCHEMAS.values()
        },
    )


def _reference_extractor(detector):
    config = detector.config
    return FeatureExtractor(
        window_us=config.window_us,
        step_us=config.step_us,
        config=config.events,
    )


def _reference_analyze(detector, bundle):
    """The per-window oracle pipeline: the reference feature engine and
    the interpreted chain evaluator over *detector*'s chains."""
    timeline = Timeline.from_bundle(bundle, dt_us=detector.config.dt_us)
    windows = []
    for window in _reference_extractor(detector).extract_all(timeline):
        consequences, causes, chain_ids = evaluate_chains(
            window.features, detector.chains
        )
        windows.append(
            WindowDetection(
                start_us=window.start_us,
                end_us=window.end_us,
                features=window.features,
                consequences=sorted(consequences),
                causes=sorted(causes),
                chain_ids=sorted(chain_ids),
            )
        )
    return DominoReport(
        session_name=bundle.session_name,
        duration_us=bundle.duration_us,
        step_us=detector.config.step_us,
        chains=detector.chains,
        windows=windows,
    )


def _assert_identical_reports(batch, reference):
    assert batch.n_windows == reference.n_windows
    for a, b in zip(batch.windows, reference.windows):
        assert (a.start_us, a.end_us) == (b.start_us, b.end_us)
        assert a.features == b.features
        assert a.consequences == b.consequences
        assert a.causes == b.causes
        assert a.chain_ids == b.chain_ids


def _json_lines(path: str) -> None:
    """The floor any JSONL reader pays: one ``json.loads`` per line."""
    with open(path) as handle:
        for line in handle:
            json.loads(line)


def _io_60s(path: str, reference) -> dict:
    """Read-path cost of the JSONL trace at *path*.

    ``load_vs_json_ratio`` divides the fastest ``load_bundle`` by the
    fastest bare per-line ``json.loads`` pass over the same file, timed
    interleaved in this process, so machine speed divides out.  Run it
    in a fresh process (:func:`_in_child`): the ratio follows the
    heap it runs on.
    """
    bundle = load_bundle(path)
    n_records = sum(
        len(records)
        for records in (
            bundle.dci, bundle.gnb_log, bundle.packets, bundle.webrtc_stats
        )
    )
    load_s, json_s, analyze_s = [], [], []
    for _ in range(IO_REPEATS):
        start = time.perf_counter()
        load_bundle(path)
        load_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        _json_lines(path)
        json_s.append(time.perf_counter() - start)
        start = time.perf_counter()
        report = api.analyze(path)
        analyze_s.append(time.perf_counter() - start)
        _assert_identical_reports(report, reference)
    return {
        "records": n_records,
        "bytes": os.path.getsize(path),
        "load_s": min(load_s),
        "json_lines_s": min(json_s),
        "analyze_path_s": min(analyze_s),
        "load_ns_per_record": min(load_s) * 1e9 / n_records,
        "analyze_path_x_realtime": bundle.duration_us / 1e6 / min(analyze_s),
        "load_vs_json_ratio": min(load_s) / min(json_s),
    }


def _in_child(function, *args) -> dict:
    """``function(*args)`` in a fresh ``spawn`` child, whose heap holds
    only what *function* loads (the JSONL trace its path names)."""
    context = multiprocessing.get_context("spawn")
    with context.Pool(1) as pool:
        return pool.apply(function, args)


@contextlib.contextmanager
def _obs_disabled():
    obs.disable()
    try:
        yield
    finally:
        obs.enable()


def _overhead_60s(path: str, reference) -> dict:
    """What always-on spans and the sampling profiler cost one analyze
    of the JSONL trace at *path*.

    Three arms, interleaved: obs disabled, obs enabled with no sink
    (the default, so also the unprofiled run), and the default under a
    ``SamplingProfiler`` at its 5 ms default.  Each keeps its fastest
    pass, in ms.  Run it in a fresh process (:func:`_in_child`).
    """
    bundle = load_bundle(path)
    arms = {
        "disabled_ms": _obs_disabled,
        "sinkless_ms": contextlib.nullcontext,
        "profiled_ms": lambda: SamplingProfiler(
            interval_s=OVERHEAD_PROFILE_INTERVAL_S
        ),
    }
    best = dict.fromkeys(arms, float("inf"))
    for round_ in range(OVERHEAD_ROUNDS + 1):
        for key, arm in arms.items():
            with arm():
                start = time.perf_counter()
                report = api.analyze(bundle)
                elapsed_ms = (time.perf_counter() - start) * 1e3
            _assert_identical_reports(report, reference)
            if round_:
                best[key] = min(best[key], elapsed_ms)
    return {"rounds": OVERHEAD_ROUNDS, **best}


def _collect_60s(path: str) -> dict:
    """Write-path cost of the DCI rows of the JSONL trace at *path*.

    ``collect_vs_append_ratio`` divides the fastest pass of every row
    through ``record_dci`` plus ``bundle()`` by the fastest bare
    ``list.append`` of the same row tuples, timed interleaved in this
    process, so machine speed divides out.  Run it in a fresh process
    (:func:`_in_child`).
    """
    bundle = load_bundle(path)
    rows = [DCI.row(record) for record in bundle.dci]
    collect_s, append_s = [], []
    for _ in range(COLLECT_REPEATS):
        collector = TelemetryCollector(bundle.session_name)
        record_dci = collector.record_dci
        start = time.perf_counter()
        for row in rows:
            record_dci(*row)
        collected = collector.bundle(bundle.duration_us)
        collect_s.append(time.perf_counter() - start)
        appended = []
        append = appended.append
        start = time.perf_counter()
        for row in rows:
            append(row)
        append_s.append(time.perf_counter() - start)
        assert len(appended) == len(collected.dci) == len(rows)
    assert collected.dci == bundle.dci
    return {
        "rows": len(rows),
        "collect_s": min(collect_s),
        "append_s": min(append_s),
        "collect_ns_per_row": min(collect_s) * 1e9 / len(rows),
        "collect_vs_append_ratio": min(collect_s) / min(append_s),
    }


def _calibration_rep() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def _rep_s() -> float:
    """Seconds one calibration rep takes on this core now."""
    reps, start = 0, time.perf_counter()
    while True:
        _calibration_rep()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= CALIBRATION_WINDOW_S:
            return elapsed / reps


def _counter_total(name: str) -> float:
    metric = get_registry().get(name)
    return metric.total() if metric is not None else 0.0


def _timed_call(profile, duration_us: int) -> dict:
    """One call of *profile*: us per simulated ms, raw and scaled to the
    reference core by the calibration loop's speed around the call,
    and the session clock's tick and client-step counts."""
    session = make_cellular_session(profile, seed=1)
    ticks = _counter_total("repro_sim_ticks_total")
    steps = _counter_total("repro_sim_client_steps_total")
    rep_before = _rep_s()
    start = time.perf_counter()
    session.run(duration_us)
    elapsed = time.perf_counter() - start
    rep_s = (rep_before + _rep_s()) / 2
    us_per_sim_ms = elapsed * 1e6 / (duration_us / 1e3)
    return {
        "us_per_sim_ms": us_per_sim_ms,
        "ref_us_per_sim_ms": us_per_sim_ms * REFERENCE_REP_S / rep_s,
        "ticks": _counter_total("repro_sim_ticks_total") - ticks,
        "client_steps": _counter_total("repro_sim_client_steps_total") - steps,
    }


def _sim_60s() -> dict:
    """Simulator cost per simulated ms, normalised to the reference core.

    ``client_steps_per_tick`` is client steps over client-ticks (two
    clients per tick) of the FDD call: 1.0 when every client steps on
    every tick, deterministic whatever the machine.  Run it in a fresh
    process (:func:`_in_child`).
    """
    fdd = _timed_call(TMOBILE_FDD, 60_000_000)
    tdd = min(
        (_timed_call(AMARISOFT, 12_000_000) for _ in range(SIM_REPEATS)),
        key=lambda call: call["ref_us_per_sim_ms"],
    )
    return {
        "fdd_60s_us_per_sim_ms": fdd["us_per_sim_ms"],
        "fdd_60s_ref_us_per_sim_ms": fdd["ref_us_per_sim_ms"],
        "amarisoft_12s_us_per_sim_ms": tdd["us_per_sim_ms"],
        "amarisoft_12s_ref_us_per_sim_ms": tdd["ref_us_per_sim_ms"],
        "fdd_60s_ticks": fdd["ticks"],
        "fdd_60s_client_steps": fdd["client_steps"],
        "client_steps_per_tick": fdd["client_steps"] / (2 * fdd["ticks"]),
    }


def _store_movers(path: str) -> dict:
    """Top-k chain movers over a store at *path* that holds
    ``MOVERS_SCENARIOS`` synthetic outcomes over 20 chains, half in
    each of two windows.

    ``ref_ms`` is the fastest query's wall ms scaled to the reference
    core by the calibration loop's speed around it, as ``sim_60s``
    scales its calls.  Run it in a fresh process (:func:`_in_child`).
    """
    chains = [
        f"cause_{i} --> mid_{i} --> local_pushback_rate_down"
        for i in range(20)
    ]
    outcomes = [
        SessionOutcome(
            scenario=f"s{i}",
            profile=f"profile_{i % 7}",
            impairment="none" if i % 2 else "ul_fade",
            seed=i,
            duration_s=600.0,
            n_windows=100,
            n_detected_windows=10,
            degradation_events_per_min=1.0,
            chain_counts={
                chains[i % 20]: 1 + i % 5,
                chains[(i + 7) % 20]: 2,
            },
            cause_counts={f"cause_{i % 20}": 3.0},
            consequence_counts={"local_pushback_rate_down": 5.0},
            qoe={"ul_delay_p50_ms": 20.0 + i},
            event_rates={},
        )
        for i in range(MOVERS_SCENARIOS)
    ]
    repeats = []
    with api.store_open(path) as store:
        half = len(outcomes) // 2
        store.ingest_outcomes(outcomes[:half], ts=500.0)
        store.ingest_outcomes(outcomes[half:], ts=1500.0)
        query = StoreQuery(store)
        for _ in range(MOVERS_REPEATS):
            rep_before = _rep_s()
            start = time.perf_counter()
            movers = query.top_movers(
                "chain",
                window_a=(0.0, 1000.0),
                window_b=(1000.0, 2000.0),
                k=10,
            )
            elapsed_ms = (time.perf_counter() - start) * 1e3
            scale = REFERENCE_REP_S / ((rep_before + _rep_s()) / 2)
            assert movers, "top_movers returned nothing over a populated store"
            repeats.append((elapsed_ms * scale, elapsed_ms))
    ref_ms, ms = min(repeats)
    return {
        "scenarios": len(outcomes),
        "movers": len(movers),
        "ms": ms,
        "ref_ms": ref_ms,
    }


def _stream_batches(bundle: TelemetryBundle) -> list:
    """*bundle* cut into consecutive ``STREAM_STEP_US`` batches, each
    source's columns masked on its time column."""
    batches = []
    for start_us in range(0, bundle.duration_us, STREAM_STEP_US):
        end_us = min(start_us + STREAM_STEP_US, bundle.duration_us)
        sources = {}
        for schema in SCHEMAS.values():
            rows = getattr(bundle, schema.source)
            sources[schema.source] = rows.take(
                (rows.times >= start_us) & (rows.times < end_us)
            )
        batches.append(TelemetryBatch(watermark_us=end_us, **sources))
    return batches


def _stream_60s(path: str, reference) -> dict:
    """Live-plane cost of the JSONL trace at *path* fed to one
    ``StreamingDomino``.

    ``ref_ms_per_advance`` is the fastest repeat's wall time per feed
    plus advance, scaled to the reference core by the calibration
    loop's speed around the repeat, as ``sim_60s`` scales its calls.
    ``ingest_ms_per_advance`` and ``features_ms_per_advance`` are the
    same repeat's time in the program's own ``ingest.from_bundle`` and
    ``detect.features`` spans per advance, scaled the same way (a
    core's speed swings up to 2x from minute to minute, which moved the
    unscaled span times more than a layer's change; recorded, not
    gated).  Run it in a fresh process (:func:`_in_child`).
    """
    bundle = load_bundle(path)
    batches = _stream_batches(bundle)
    spans = get_registry().histogram(SPAN_HISTOGRAM)
    repeats = []
    for _ in range(STREAM_REPEATS):
        stream = StreamingDomino(
            cellular_client=bundle.cellular_client,
            wired_client=bundle.wired_client,
            gnb_log_available=bundle.gnb_log_available,
        )
        windows = []
        before = [spans.sum(span=name) for name in STREAM_SPANS]
        rep_before = _rep_s()
        start = time.perf_counter()
        for batch in batches:
            stream.feed_batch(batch)
            windows.extend(stream.advance(batch.watermark_us))
        elapsed = time.perf_counter() - start
        scale = REFERENCE_REP_S / ((rep_before + _rep_s()) / 2)
        assert windows == reference.windows
        ms_per_advance = elapsed * 1e3 / len(batches)
        repeats.append(
            (ms_per_advance * scale, ms_per_advance)
            + tuple(
                (spans.sum(span=name) - seconds) * 1e3 / len(batches) * scale
                for name, seconds in zip(STREAM_SPANS, before)
            )
        )
    ref_ms, ms, ingest_ms, features_ms = min(repeats)
    return {
        "advances": len(batches),
        "windows": len(windows),
        "ms_per_advance": ms,
        "ref_ms_per_advance": ref_ms,
        "ingest_ms_per_advance": ingest_ms,
        "features_ms_per_advance": features_ms,
    }


def test_scaling_realtime_factor(fdd_results, tmp_path):
    bundle = fdd_results[0].bundle
    detector = DominoDetector()

    # Untimed warm-up, so the rows below time warm code.
    report = detector.analyze(bundle)
    assert report.n_windows > 0

    rows = []
    json_rows = []
    for duration_s in (15, 30, 60):
        truncated = _truncate(bundle, int(duration_s * 1e6))
        start = time.perf_counter()
        partial = detector.analyze(truncated)
        elapsed = time.perf_counter() - start
        realtime_factor = duration_s / elapsed
        rows.append(
            [
                f"{duration_s}s trace",
                float(partial.n_windows),
                elapsed,
                realtime_factor,
            ]
        )
        json_rows.append(
            {
                "trace_s": duration_s,
                "n_windows": partial.n_windows,
                "analysis_s": elapsed,
                "x_realtime": realtime_factor,
                "windows_per_sec": partial.n_windows / elapsed,
                "per_window_cost_s": elapsed / max(partial.n_windows, 1),
            }
        )
    text = render_table(
        ["trace", "windows", "analysis s", "x realtime"], rows
    )

    # Batch vs per-window reference engine, same 60 s trace: identical
    # detections, and the feature phase (the part the batch engine
    # vectorizes) timed per engine for the regression gate.
    sixty = _truncate(bundle, int(60e6))
    start = time.perf_counter()
    reference_report = _reference_analyze(detector, sixty)
    reference_elapsed = time.perf_counter() - start
    batch_report = detector.analyze(sixty)
    _assert_identical_reports(batch_report, reference_report)

    timeline = Timeline.from_bundle(sixty)
    start = time.perf_counter()
    batch_windows = detector.extractor.extract_all(timeline)
    batch_features_s = time.perf_counter() - start
    reference_extractor = _reference_extractor(detector)
    start = time.perf_counter()
    reference_windows = reference_extractor.extract_all(timeline)
    reference_features_s = time.perf_counter() - start
    assert batch_windows == reference_windows

    # Per-phase wall time for the same 60 s trace, recovered from the
    # obs span histogram: where one analyze pass actually spends its
    # time (ingest vs features vs backward trace).  check_perf.py
    # prints the breakdown; it is informational (load-sensitive) — the
    # regression gate stays on the engine speedup above.
    registry = get_registry()
    registry.reset()
    phase_report = detector.analyze(sixty)
    assert phase_report.n_windows == batch_report.n_windows
    span_hist = registry.histogram(SPAN_HISTOGRAM)
    phases_60s = {
        name: span_hist.sum(span=name)
        for name in ("ingest.from_bundle", "detect.features", "detect.trace")
    }

    # The same breakdown from the sampling profiler: statistical CPU
    # attribution by stack frame instead of span wall time, so the two
    # views cross-check each other.  Passes under a fast sampling
    # interval until the samples suffice for stable fractions.
    passes = 0
    with SamplingProfiler(interval_s=0.002) as profiler:
        while profiler.n_samples < PROFILE_MIN_SAMPLES:
            detector.analyze(sixty)
            passes += 1
    # Its collapsed stacks are flamegraph input: one "frame;...;frame
    # count" line per stack, frames labelled module:function, counts
    # summing to the samples taken.
    collapsed = [
        line.rpartition(" ") for line in profiler.collapsed().splitlines()
    ]
    assert sum(int(count) for _, _, count in collapsed) == profiler.n_samples
    for stack, _, _ in collapsed:
        assert all(":" in frame for frame in stack.split(";")), stack
    cpu_attribution = profiler.attribute(
        {
            "ingest": (
                "repro.telemetry.timeline:",
                "repro.telemetry.columns:",
            ),
            "features": ("repro.core.features:",),
            "trace": (
                "<domino-codegen>:",
                "repro.core.graph:",
                "repro.core.chains:",
                "repro.core.codegen:",
            ),
        }
    )

    trace_path = str(tmp_path / "trace_60s.jsonl")
    save_bundle(sixty, trace_path)
    io_60s = _in_child(_io_60s, trace_path, batch_report)
    overhead_60s = _in_child(_overhead_60s, trace_path, batch_report)
    collect_60s = _in_child(_collect_60s, trace_path)
    stream_60s = _in_child(_stream_60s, trace_path, batch_report)
    sim_60s = _in_child(_sim_60s)
    store_movers = _in_child(_store_movers, str(tmp_path / "movers_store"))
    # Timing-bearing, so written rather than checked like the paper
    # tables (save_result).
    text = (
        text
        + "\n\n60s trace I/O per record: load_bundle "
        + f"{io_60s['load_ns_per_record']:.0f} ns "
        + f"({io_60s['load_vs_json_ratio']:.2f}x json.loads), collector "
        + f"{collect_60s['collect_ns_per_row']:.0f} ns "
        + f"({collect_60s['collect_vs_append_ratio']:.1f}x list.append)"
        + "\nsimulation per simulated ms at reference speed: 60s FDD "
        + f"{sim_60s['fdd_60s_ref_us_per_sim_ms']:.0f} us, 12s Amarisoft "
        + f"{sim_60s['amarisoft_12s_ref_us_per_sim_ms']:.0f} us; "
        + f"{sim_60s['client_steps_per_tick']:.3f} client steps per tick"
        + "\nstreaming advance every 500 ms at reference speed: "
        + f"{stream_60s['ref_ms_per_advance']:.2f} ms, of which ingest "
        + f"{stream_60s['ingest_ms_per_advance']:.2f} ms and features "
        + f"{stream_60s['features_ms_per_advance']:.2f} ms"
        + "\n60s analyze: obs disabled "
        + f"{overhead_60s['disabled_ms']:.1f} ms, sinkless spans "
        + f"{overhead_60s['sinkless_ms']:.1f} ms, profiled "
        + f"{overhead_60s['profiled_ms']:.1f} ms"
        + f"\nstore: top-{store_movers['movers']} movers over "
        + f"{store_movers['scenarios']} scenarios "
        + f"{store_movers['ref_ms']:.1f} ms at reference speed"
    )
    print(f"\n=== scaling_realtime ===\n{text}")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    table = os.path.join(RESULTS_DIR, "scaling_realtime.txt")
    with open(table, "w") as handle:
        handle.write(text + "\n")

    n_windows = max(len(batch_windows), 1)
    payload = {
        "benchmark": "scaling_realtime",
        "rows": json_rows,
        "phases_60s": phases_60s,
        "io_60s": io_60s,
        "collect_60s": collect_60s,
        "sim_60s": sim_60s,
        "stream_60s": stream_60s,
        "overhead_60s": overhead_60s,
        "store_movers": store_movers,
        "profile_60s": {
            "passes": passes,
            "n_samples": profiler.n_samples,
            "cpu_fraction": cpu_attribution,
            "top10_self_fraction": profiler.top_fraction(10),
        },
        "engines_60s": {
            "batch_analysis_s": json_rows[-1]["analysis_s"],
            "reference_analysis_s": reference_elapsed,
            "batch_features_per_window_s": batch_features_s / n_windows,
            "reference_features_per_window_s": reference_features_s
            / n_windows,
            "feature_engine_speedup": reference_features_s
            / max(batch_features_s, 1e-12),
        },
    }
    with open(os.path.join(RESULTS_DIR, "BENCH_scaling.json"), "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)

    # Near-real-time claim: analysis runs much faster than the trace
    # plays (one core can watch many sessions live).  The batch engine
    # lifted this 5× above the seed's 10× floor; quiet-machine runs
    # measure ~480×, but wall-clock asserts must survive loaded CI
    # runners (>2× swings observed), so the floor stays conservative.
    final_factor = rows[-1][3]
    assert final_factor > 50.0
    # Cost grows roughly linearly with duration (no superlinear blowup):
    per_window_costs = [row[2] / max(row[1], 1) for row in rows]
    assert max(per_window_costs) < 5 * min(per_window_costs)
