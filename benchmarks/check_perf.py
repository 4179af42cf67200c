"""CI perf-smoke gate over the scaling benchmark's JSON output.

Reads ``benchmarks/results/BENCH_scaling.json`` (written by
``test_scaling_realtime.py``, which tier-1 already runs) and fails when
the batch feature engine has regressed.  Wall-clock numbers vary >2x
with machine speed and load, so both gates use the *engine speedup* —
the per-window cost of the batch engine relative to the per-window
reference engine measured in the same run — which divides machine and
load effects out:

1. **Floor gate:** the batch engine must stay at least 2x faster per
   window than the reference engine (measured ~11-16x at merge time).
2. **Baseline gate:** when a committed ``BENCH_scaling_baseline.json``
   exists, the current speedup must be at least half the baseline's —
   i.e. a >2x per-window-cost regression of the batch engine fails.
   Refresh the baseline deliberately (copy a fresh, quiet-machine
   ``BENCH_scaling.json`` over it) when an accepted trade-off changes
   the numbers.
3. **Read-path gate:** ``load_bundle`` on the 60 s trace saved as JSONL
   may cost at most 0.8x a bare per-line ``json.loads`` pass over the
   same file, both timed in one fresh ``spawn`` child process that
   holds only the trace (``io_60s``; 0.63-0.68x with chunks decoded by
   ``orjson``, ~0.9-1.0x by ``json``, ~1.6-1.8x with per-record
   objects; 0.95-1.13x when it was timed in the benchmark process
   beside the session fixtures' eight 60 s calls).
4. **Collector gate:** feeding the 60 s trace's DCI rows through
   ``record_dci`` plus ``bundle()`` may cost at most 55x a bare
   ``list.append`` of the same row tuples, both timed in the same
   process (``collect_60s``; 32-41x with the columnar collector, 63-82x
   when each row became a ``DciRecord`` first).
5. **Simulator gates** (``sim_60s``): simulation cost per simulated ms,
   scaled to the reference core by a calibration loop timed around each
   call in the same process, may be at most 90 us for the 60 s T-Mobile
   FDD call and 70 us for the 12 s Amarisoft (TDD) call (measured 54-63
   and 39-46 with the next-event client clock, 68 and 53-55 with every
   client stepped on every tick).  The share of client ticks stepped on
   the FDD call, deterministic, may be at most 0.30 (0.269 measured;
   1.0 when every client steps on every tick).
6. **Live-plane gate** (``stream_60s``): one ``StreamingDomino`` fed
   the 60 s FDD trace in 500 ms batches and advanced after each may
   spend at most 2.6 ms per feed plus advance, scaled to the
   reference core by the same calibration loop as ``sim_60s``
   (0.86-0.99 ms with 19 fused detector calls per feature pass,
   1.05-1.12 ms with 36 calls over the timeline as one float64 block,
   1.3-1.8 ms with one stacked strided feature view over per-series
   arrays, 1.9-2.4 ms with one view per series).  The ceiling catches
   a large live-plane regression but not a return to any earlier
   form, whose cost overlaps it within the run spread; perfbench
   ``live_replay``'s paired runs measure those gains, and unit tests
   (``tests/test_timeline_ingest.py``) pin the one block and the 19
   calls.  The block also records ``ingest_ms_per_advance`` and
   ``features_ms_per_advance``, the ms per advance in the program's
   own ``ingest.from_bundle`` and ``detect.features`` spans, scaled to
   the reference core the same way (printed, not gated; features
   0.60-0.61 ms with 36 detector calls, 0.43-0.48 ms with 19, ingest
   0.26-0.32 ms in both).
   Detector construction is not timed: that each chain text is
   compiled once per process is pinned by a unit test that counts
   ``compile_chains`` calls (``tests/test_core_detector.py``).

Gates 3-6 are the rows of ``CEILING_GATES`` (block, key, ceiling and
the lines printed), walked by one loop; gates 1 and 2 stand alone.

Usage: ``python benchmarks/check_perf.py [results_json] [baseline_json]``
"""

import json
import os
import sys

RESULTS = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_scaling.json"
)
BASELINE = os.path.join(
    os.path.dirname(__file__), "results", "BENCH_scaling_baseline.json"
)

#: Absolute floor on the batch engine's per-window advantage.
MIN_ENGINE_SPEEDUP = 2.0

#: Allowed speedup shrinkage vs. the committed baseline (2.0 = fail on
#: a >2x per-window-cost regression of the batch engine).
MAX_SPEEDUP_SHRINKAGE = 2.0

#: Ceiling on load_bundle time over bare per-line json.loads time.
MAX_LOAD_VS_JSON = 0.8

#: Ceiling on record_dci-plus-bundle() time over bare list.append time.
MAX_COLLECT_VS_APPEND = 55.0

#: Ceilings on simulation us per simulated ms at reference-core speed.
MAX_FDD_60S_REF_US_PER_SIM_MS = 90.0
MAX_AMARISOFT_12S_REF_US_PER_SIM_MS = 70.0

#: Ceiling on the share of client ticks the session steps (FDD call).
MAX_CLIENT_STEPS_PER_TICK = 0.30

#: Ceiling on streaming ms per feed plus advance at reference-core speed.
MAX_STREAM_60S_REF_MS_PER_ADVANCE = 2.6

#: What each gated block of the results is, for its missing-block failure.
GATED_BLOCKS = {
    "io_60s": "read-path gate",
    "collect_60s": "collector gate",
    "sim_60s": "simulator gates",
    "stream_60s": "live-plane gate",
}

#: The ceiling gates, in print order: (block, key, ceiling, line,
#: failure).  ``line`` (stdout) and ``failure`` (stderr) are
#: ``str.format`` templates over the gated ``value``, its ``ceiling``
#: and the whole ``block``.
CEILING_GATES = (
    (
        "io_60s",
        "load_vs_json_ratio",
        MAX_LOAD_VS_JSON,
        "60s JSONL read: load_bundle {value:.2f}x per-line json.loads "
        "(gate: <= {ceiling}x), {block[load_ns_per_record]:.0f} ns/record, "
        "analyze(path) {block[analyze_path_x_realtime]:.0f}x realtime "
        "(informational)",
        "load_bundle costs {value:.2f}x a bare per-line json.loads pass "
        "(ceiling {ceiling}x)",
    ),
    (
        "collect_60s",
        "collect_vs_append_ratio",
        MAX_COLLECT_VS_APPEND,
        "60s DCI collect: record_dci + bundle() {value:.1f}x a bare "
        "list.append (gate: <= {ceiling:.0f}x), "
        "{block[collect_ns_per_row]:.0f} ns/row (informational)",
        "the collector costs {value:.1f}x a bare list.append of the same "
        "rows (ceiling {ceiling:.0f}x)",
    ),
    (
        "sim_60s",
        "fdd_60s_ref_us_per_sim_ms",
        MAX_FDD_60S_REF_US_PER_SIM_MS,
        "60s FDD call: {value:.1f} us simulation per simulated ms at "
        "reference speed (gate: <= {ceiling:.0f})",
        "the 60s FDD call costs {value:.1f} us per simulated ms at "
        "reference speed (ceiling {ceiling:.0f})",
    ),
    (
        "sim_60s",
        "amarisoft_12s_ref_us_per_sim_ms",
        MAX_AMARISOFT_12S_REF_US_PER_SIM_MS,
        "12s Amarisoft call: {value:.1f} us simulation per simulated ms "
        "at reference speed (gate: <= {ceiling:.0f})",
        "the 12s Amarisoft call costs {value:.1f} us per simulated ms at "
        "reference speed (ceiling {ceiling:.0f})",
    ),
    (
        "sim_60s",
        "client_steps_per_tick",
        MAX_CLIENT_STEPS_PER_TICK,
        "60s FDD call: {value:.3f} client steps per client-tick "
        "(gate: <= {ceiling})",
        "clients step on {value:.3f} of their ticks (ceiling {ceiling})",
    ),
    (
        "stream_60s",
        "ref_ms_per_advance",
        MAX_STREAM_60S_REF_MS_PER_ADVANCE,
        "60s FDD stream: {value:.2f} ms per 500 ms feed plus advance at "
        "reference speed (gate: <= {ceiling})",
        "a streaming advance costs {value:.2f} ms at reference speed "
        "(ceiling {ceiling})",
    ),
)


def main(argv):
    results_path = argv[1] if len(argv) > 1 else RESULTS
    baseline_path = argv[2] if len(argv) > 2 else BASELINE
    with open(results_path) as handle:
        results = json.load(handle)

    failures = []
    speedup = results["engines_60s"]["feature_engine_speedup"]
    print(
        f"feature engine speedup (batch vs per-window reference): "
        f"{speedup:.2f}x (floor: >= {MIN_ENGINE_SPEEDUP}x)"
    )
    if speedup < MIN_ENGINE_SPEEDUP:
        failures.append(
            f"batch feature engine regressed: only {speedup:.2f}x faster "
            f"than the reference engine (floor {MIN_ENGINE_SPEEDUP}x)"
        )

    row = next(r for r in results["rows"] if r["trace_s"] == 60)
    print(
        f"60s trace: {row['x_realtime']:.0f}x realtime, "
        f"{row['per_window_cost_s'] * 1e3:.2f} ms/window "
        f"(informational; load-sensitive)"
    )
    phases = results.get("phases_60s", {})
    if phases:
        # Span-derived per-phase breakdown (older BENCH files lack it).
        total_s = sum(phases.values())
        breakdown = ", ".join(
            f"{name} {seconds * 1e3:.1f} ms"
            f" ({100 * seconds / total_s:.0f}%)"
            if total_s
            else f"{name} {seconds * 1e3:.1f} ms"
            for name, seconds in sorted(
                phases.items(), key=lambda kv: -kv[1]
            )
        )
        print(f"60s phase breakdown (informational): {breakdown}")
    for block_name, key, ceiling, line, failure in CEILING_GATES:
        block = results.get(block_name)
        if block is None:
            missing = (
                f"results have no {block_name} block "
                f"({GATED_BLOCKS[block_name]})"
            )
            if missing not in failures:
                failures.append(missing)
            continue
        value = block[key]
        print(line.format(value=value, ceiling=ceiling, block=block))
        if value > ceiling:
            failures.append(
                failure.format(value=value, ceiling=ceiling, block=block)
            )
    stream_60s = results.get("stream_60s", {})
    for key, name in (
        ("ingest_ms_per_advance", "ingest.from_bundle"),
        ("features_ms_per_advance", "detect.features"),
    ):
        if key in stream_60s:
            print(
                f"60s FDD stream: {stream_60s[key]:.2f} ms per advance "
                f"in the {name} span at reference speed (informational)"
            )
    if os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        base_speedup = baseline["engines_60s"]["feature_engine_speedup"]
        floor = base_speedup / MAX_SPEEDUP_SHRINKAGE
        print(
            f"speedup vs baseline: {speedup:.2f}x now, {base_speedup:.2f}x "
            f"at baseline (gate: >= {floor:.2f}x)"
        )
        if speedup < floor:
            failures.append(
                f"batch engine per-window cost regressed more than "
                f"{MAX_SPEEDUP_SHRINKAGE}x vs baseline (speedup fell "
                f"{base_speedup:.2f}x -> {speedup:.2f}x)"
            )
    else:
        print(f"no baseline at {baseline_path}; baseline gate skipped")

    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
