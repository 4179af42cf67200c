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
   same file, both timed in the same process (``io_60s``; 0.63-0.68x
   with chunks decoded by ``orjson``, ~0.9-1.0x by ``json``, ~1.6-1.8x
   with per-record objects).
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
   (1.06-1.12 ms measured with the timeline as one float64 block,
   1.3-1.8 ms with one stacked strided feature view over per-series
   arrays, 1.9-2.4 ms with one view per series).  The ceiling catches
   a large live-plane regression but not a return to either earlier
   form, whose cost overlaps it within the run spread; perfbench
   ``live_replay``'s paired runs measure those gains, and a unit test
   (``tests/test_timeline_ingest.py``) pins the one block.  The block
   also records ``ingest_ms_per_advance``, the wall ms per advance in
   the program's own ``ingest.from_bundle`` span (printed, not gated).
   Detector construction is not timed: that each chain text is
   compiled once per process is pinned by a unit test that counts
   ``compile_chains`` calls (``tests/test_core_detector.py``).

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
    io_60s = results.get("io_60s")
    if io_60s is None:
        failures.append("results have no io_60s block (read-path gate)")
    else:
        ratio = io_60s["load_vs_json_ratio"]
        print(
            f"60s JSONL read: load_bundle {ratio:.2f}x per-line json.loads "
            f"(gate: <= {MAX_LOAD_VS_JSON}x), "
            f"{io_60s['load_ns_per_record']:.0f} ns/record, analyze(path) "
            f"{io_60s['analyze_path_x_realtime']:.0f}x realtime "
            f"(informational)"
        )
        if ratio > MAX_LOAD_VS_JSON:
            failures.append(
                f"load_bundle costs {ratio:.2f}x a bare per-line "
                f"json.loads pass (ceiling {MAX_LOAD_VS_JSON}x)"
            )
    collect_60s = results.get("collect_60s")
    if collect_60s is None:
        failures.append("results have no collect_60s block (collector gate)")
    else:
        ratio = collect_60s["collect_vs_append_ratio"]
        print(
            f"60s DCI collect: record_dci + bundle() {ratio:.1f}x a bare "
            f"list.append (gate: <= {MAX_COLLECT_VS_APPEND:.0f}x), "
            f"{collect_60s['collect_ns_per_row']:.0f} ns/row (informational)"
        )
        if ratio > MAX_COLLECT_VS_APPEND:
            failures.append(
                f"the collector costs {ratio:.1f}x a bare list.append of "
                f"the same rows (ceiling {MAX_COLLECT_VS_APPEND:.0f}x)"
            )
    sim_60s = results.get("sim_60s")
    if sim_60s is None:
        failures.append("results have no sim_60s block (simulator gates)")
    else:
        for key, ceiling, what in (
            ("fdd_60s_ref_us_per_sim_ms", MAX_FDD_60S_REF_US_PER_SIM_MS,
             "60s FDD call"),
            ("amarisoft_12s_ref_us_per_sim_ms",
             MAX_AMARISOFT_12S_REF_US_PER_SIM_MS, "12s Amarisoft call"),
        ):
            cost = sim_60s[key]
            print(
                f"{what}: {cost:.1f} us simulation per simulated ms at "
                f"reference speed (gate: <= {ceiling:.0f})"
            )
            if cost > ceiling:
                failures.append(
                    f"the {what} costs {cost:.1f} us per simulated ms at "
                    f"reference speed (ceiling {ceiling:.0f})"
                )
        ratio = sim_60s["client_steps_per_tick"]
        print(
            f"60s FDD call: {ratio:.3f} client steps per client-tick "
            f"(gate: <= {MAX_CLIENT_STEPS_PER_TICK})"
        )
        if ratio > MAX_CLIENT_STEPS_PER_TICK:
            failures.append(
                f"clients step on {ratio:.3f} of their ticks "
                f"(ceiling {MAX_CLIENT_STEPS_PER_TICK})"
            )
    stream_60s = results.get("stream_60s")
    if stream_60s is None:
        failures.append("results have no stream_60s block (live-plane gate)")
    else:
        cost = stream_60s["ref_ms_per_advance"]
        ceiling = MAX_STREAM_60S_REF_MS_PER_ADVANCE
        print(
            f"60s FDD stream: {cost:.2f} ms per 500 ms feed plus advance "
            f"at reference speed (gate: <= {ceiling})"
        )
        ingest_ms = stream_60s.get("ingest_ms_per_advance")
        if ingest_ms is not None:
            print(
                f"60s FDD stream: {ingest_ms:.2f} ms per advance in the "
                f"ingest.from_bundle span (wall; informational)"
            )
        if cost > ceiling:
            failures.append(
                f"a streaming advance costs {cost:.2f} ms at reference "
                f"speed (ceiling {ceiling})"
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
