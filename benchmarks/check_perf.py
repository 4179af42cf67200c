"""CI perf-smoke gate over the scaling benchmark's JSON output.

Reads ``benchmarks/results/BENCH_scaling.json`` (written by
``test_scaling_realtime.py``, which tier-1 already runs) and fails when
any gated number has regressed; it is the one home of every timing
budget the repository keeps.  Wall-clock numbers vary >2x with machine
speed and load, so every gate is a ratio of two arms timed in the same
run, a cost scaled to a reference core, or a count.  Every block but
``engines_60s`` and ``profile_60s`` is timed in a fresh ``spawn``
child process of its own, whose heap holds only what the block loads:
the benchmark saves the 60 s trace as JSONL once, and each child reads
it back or simulates its own calls.  The first two gates use the
*engine speedup* — the per-window cost of the batch engine relative to
the per-window reference engine measured in the same run — which
divides machine and load effects out:

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
   same file, both timed interleaved in one child (``io_60s``;
   0.63-0.68x with chunks decoded by ``orjson``, ~0.9-1.0x by
   ``json``, ~1.6-1.8x with per-record objects).
4. **Collector gate:** feeding the 60 s trace's DCI rows through
   ``record_dci`` plus ``bundle()`` may cost at most 55x a bare
   ``list.append`` of the same row tuples, both timed interleaved in one
   child (``collect_60s``; 32-41x with the columnar collector, 63-82x
   when each row became a ``DciRecord`` first).
5. **Simulator gates** (``sim_60s``): simulation cost per simulated ms,
   scaled to the reference core by a calibration loop timed around each
   call, may be at most 90 us for the 60 s T-Mobile FDD call and 70 us
   for the 12 s Amarisoft (TDD) call (measured 54-63 and 39-46 with the
   next-event client clock, 68 and 53-55 with every client stepped on
   every tick).  The share of client ticks stepped on
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
7. **Overhead budgets** (``overhead_60s``): one analyze of the 60 s
   trace, timed min-of-9 and interleaved in a fresh ``spawn`` child,
   may cost with always-on sinkless spans at most 1.02x its cost with
   obs disabled plus 5 ms, and under the sampling profiler at its 5 ms
   default at most 1.05x the sinkless cost plus 5 ms.  Three runs on a
   2-core VM read sinkless/disabled 19.5/18.7, 20.4/20.5 and 16.4/16.4
   ms (the ratio reached 1.04, so the slack stays), and profiled/plain
   17.7/18.8, 25.8/25.7 and 17.1/16.7 ms.
8. **Profiler concentration floor** (``profile_60s``): the benchmark
   profiles 60 s analyze passes at 2 ms until it holds at least 50
   samples, and the top-10 self frames must own at least 0.60 of
   them.  One 60 s analyze at 5 ms takes only 3-5 samples, where the
   top 10 of at most 10 stacks always own 100%; with 48-207 samples
   the share read 0.71-0.89 (CHANGES.md lists the runs).
9. **Store query budget** (``store_movers``): top-k chain movers over a
   100-scenario store, scaled to the reference core by the same
   calibration loop as ``sim_60s``, may take at most 100 ms.

Gates 1 and 3-9 are the rows of ``FLOOR_GATES`` and ``CEILING_GATES``
(block, key, bound and the lines printed), walked by one loop; gate 2
stands alone.  ``benchmarks/test_check_perf.py`` pushes each row past
its bound.

Usage: ``python benchmarks/check_perf.py [results_json] [baseline_json]``
"""

import json
import operator
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

#: Relative budgets of one 60 s analyze: sinkless spans over obs
#: disabled, and profiled over sinkless, each plus an absolute slack
#: so timer noise cannot fail a fast run.
MAX_SINKLESS_VS_DISABLED = 1.02
MAX_PROFILED_VS_SINKLESS = 1.05
OVERHEAD_SLACK_MS = 5.0

#: Ceiling on one top-k movers query over a 100-scenario store, in ms
#: at reference-core speed.
MAX_STORE_MOVERS_REF_MS = 100.0

#: Floor on the share of the benchmark's profile samples (at least 50,
#: so the share can fall below 1) that the top-10 self frames own.
MIN_TOP10_SELF_FRACTION = 0.60

#: What each gated block of the results is, for its missing-block failure.
GATED_BLOCKS = {
    "engines_60s": "engine-speedup floor",
    "io_60s": "read-path gate",
    "collect_60s": "collector gate",
    "sim_60s": "simulator gates",
    "stream_60s": "live-plane gate",
    "overhead_60s": "overhead budgets",
    "profile_60s": "profiler concentration floor",
    "store_movers": "store query budget",
}

#: The ceiling gates, in print order: (block, key, ceiling, line,
#: failure).  ``ceiling`` is a number, or a function of the block for a
#: budget relative to another arm of it.  ``line`` (stdout) and
#: ``failure`` (stderr) are ``str.format`` templates over the gated
#: ``value``, its ``bound`` and the whole ``block``.
CEILING_GATES = (
    (
        "io_60s",
        "load_vs_json_ratio",
        MAX_LOAD_VS_JSON,
        "60s JSONL read: load_bundle {value:.2f}x per-line json.loads "
        "(gate: <= {bound}x), {block[load_ns_per_record]:.0f} ns/record, "
        "analyze(path) {block[analyze_path_x_realtime]:.0f}x realtime "
        "(informational)",
        "load_bundle costs {value:.2f}x a bare per-line json.loads pass "
        "(ceiling {bound}x)",
    ),
    (
        "collect_60s",
        "collect_vs_append_ratio",
        MAX_COLLECT_VS_APPEND,
        "60s DCI collect: record_dci + bundle() {value:.1f}x a bare "
        "list.append (gate: <= {bound:.0f}x), "
        "{block[collect_ns_per_row]:.0f} ns/row (informational)",
        "the collector costs {value:.1f}x a bare list.append of the same "
        "rows (ceiling {bound:.0f}x)",
    ),
    (
        "sim_60s",
        "fdd_60s_ref_us_per_sim_ms",
        MAX_FDD_60S_REF_US_PER_SIM_MS,
        "60s FDD call: {value:.1f} us simulation per simulated ms at "
        "reference speed (gate: <= {bound:.0f})",
        "the 60s FDD call costs {value:.1f} us per simulated ms at "
        "reference speed (ceiling {bound:.0f})",
    ),
    (
        "sim_60s",
        "amarisoft_12s_ref_us_per_sim_ms",
        MAX_AMARISOFT_12S_REF_US_PER_SIM_MS,
        "12s Amarisoft call: {value:.1f} us simulation per simulated ms "
        "at reference speed (gate: <= {bound:.0f})",
        "the 12s Amarisoft call costs {value:.1f} us per simulated ms at "
        "reference speed (ceiling {bound:.0f})",
    ),
    (
        "sim_60s",
        "client_steps_per_tick",
        MAX_CLIENT_STEPS_PER_TICK,
        "60s FDD call: {value:.3f} client steps per client-tick "
        "(gate: <= {bound})",
        "clients step on {value:.3f} of their ticks (ceiling {bound})",
    ),
    (
        "stream_60s",
        "ref_ms_per_advance",
        MAX_STREAM_60S_REF_MS_PER_ADVANCE,
        "60s FDD stream: {value:.2f} ms per 500 ms feed plus advance at "
        "reference speed (gate: <= {bound})",
        "a streaming advance costs {value:.2f} ms at reference speed "
        "(ceiling {bound})",
    ),
    (
        "overhead_60s",
        "sinkless_ms",
        lambda block: block["disabled_ms"] * MAX_SINKLESS_VS_DISABLED
        + OVERHEAD_SLACK_MS,
        "60s analyze with sinkless spans: {value:.1f} ms vs "
        "{block[disabled_ms]:.1f} ms with obs disabled (gate: <= "
        "{bound:.1f} ms)",
        "sinkless spans cost {value:.1f} ms per 60s analyze vs "
        "{block[disabled_ms]:.1f} ms disabled (budget {bound:.1f} ms)",
    ),
    (
        "overhead_60s",
        "profiled_ms",
        lambda block: block["sinkless_ms"] * MAX_PROFILED_VS_SINKLESS
        + OVERHEAD_SLACK_MS,
        "60s analyze under the 5 ms profiler: {value:.1f} ms vs "
        "{block[sinkless_ms]:.1f} ms unprofiled (gate: <= {bound:.1f} ms)",
        "the profiler costs {value:.1f} ms per 60s analyze vs "
        "{block[sinkless_ms]:.1f} ms unprofiled (budget {bound:.1f} ms)",
    ),
    (
        "store_movers",
        "ref_ms",
        MAX_STORE_MOVERS_REF_MS,
        "store: top-k movers over {block[scenarios]} scenarios in "
        "{value:.1f} ms at reference speed (gate: <= {bound:.0f} ms)",
        "top-k movers over {block[scenarios]} scenarios took {value:.1f} "
        "ms at reference speed (budget {bound:.0f} ms)",
    ),
)

#: The floor gates, in the same row form as ``CEILING_GATES``.
FLOOR_GATES = (
    (
        "engines_60s",
        "feature_engine_speedup",
        MIN_ENGINE_SPEEDUP,
        "feature engine speedup (batch vs per-window reference): "
        "{value:.2f}x (floor: >= {bound}x)",
        "batch feature engine regressed: only {value:.2f}x faster than "
        "the reference engine (floor {bound}x)",
    ),
    (
        "profile_60s",
        "top10_self_fraction",
        MIN_TOP10_SELF_FRACTION,
        "60s analyze profile: top-10 self frames own {value:.2f} of "
        "{block[n_samples]} samples over {block[passes]} passes (floor: "
        ">= {bound})",
        "the top-10 self frames own {value:.2f} of the samples (floor "
        "{bound}): the profile is too diffuse to act on",
    ),
)


def _check(results, table, holds, failures):
    """Print each row of *table* and append a failure, named
    ``block.key``, for each whose value fails ``holds(value, bound)``
    or whose block is missing."""
    for block_name, key, bound, line, failure in table:
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
        if callable(bound):
            bound = bound(block)
        print(line.format(value=value, bound=bound, block=block))
        if not holds(value, bound):
            failures.append(
                f"{block_name}.{key}: "
                + failure.format(value=value, bound=bound, block=block)
            )


def main(argv):
    results_path = argv[1] if len(argv) > 1 else RESULTS
    baseline_path = argv[2] if len(argv) > 2 else BASELINE
    with open(results_path) as handle:
        results = json.load(handle)

    failures = []
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
    _check(results, FLOOR_GATES, operator.ge, failures)
    _check(results, CEILING_GATES, operator.le, failures)
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
    engines = results.get("engines_60s")
    if engines is not None and os.path.exists(baseline_path):
        with open(baseline_path) as handle:
            baseline = json.load(handle)
        speedup = engines["feature_engine_speedup"]
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
    elif engines is not None:
        print(f"no baseline at {baseline_path}; baseline gate skipped")

    if failures:
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("perf-smoke OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
