#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload campaign --seed 1 --seconds 20 --trace 0

Set-up runs ``make_inputs.py`` in a child process SETUP_REPEATS times;
``setup_s`` is the median of those times plus the time this process
takes to load the inputs.  A measured phase then repeats the workload's
pass until ``--seconds`` have elapsed.  Every output of every pass is
one operation, checked against the offline reference computed at
set-up, the digests committed in ``digests.json`` for the seed, or else
the first pass; a mismatch is a failed operation.

Every time among the end-to-end metrics is scaled to the reference
host's speed (:func:`host_speed`): on a shared host one core's speed
swings by up to 2x from minute to minute, which would swamp any change
to the program.  The raw wall times go to stderr.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` repeats
untraced passes for half of ``--seconds``, then as many traced passes,
checks that both give identical outputs and that no wrapper outlives
them, and reports the per-layer metrics of one pass.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without the program's
sources beside the benchmark it prints none and exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import bootstrap

bootstrap.require_program()

import tracing  # noqa: E402  (imports the program)
import workloads  # noqa: E402
from catalogue import WORKLOADS  # noqa: E402
from repro.obs.spans import set_sink  # noqa: E402

SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120
#: Fewest timed passes of an untraced run, however long a pass takes.
MIN_PASSES = 3
#: Seconds one repetition of the reference loop takes on an undisturbed
#: core of the reference host (a 2-core x86-64 VM running CPython 3).
REFERENCE_REP_S = 1.2e-3
#: How long one reading of the host's speed runs the reference loop.
SPEED_WINDOW_S = 0.2


def _reference_rep() -> int:
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return total


def host_speed() -> float:
    """This core's speed now, relative to the reference host.

    Runs a fixed pure-Python loop for SPEED_WINDOW_S: 1.0 means the
    loop ran as fast as on the reference host, 0.5 that other tenants
    halved it.  A time multiplied by the mean speed just before and
    just after it is the time the reference host would have taken.
    """
    reps, start = 0, time.perf_counter()
    while True:
        _reference_rep()
        reps += 1
        elapsed = time.perf_counter() - start
        if elapsed >= SPEED_WINDOW_S:
            return REFERENCE_REP_S * reps / elapsed


class Tally:
    """Operations attempted and failed across every check of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, found, expected, what: str) -> None:
        """Compare digests key by key; each key is one operation."""
        keys = sorted(set(found) | set(expected))
        bad = [key for key in keys if found.get(key) != expected.get(key)]
        self.attempted += len(keys)
        self.failed += len(bad)
        for key in bad[:3]:
            print(f"perfbench: {what}: {key} differs", file=sys.stderr)


def set_up(name: str, seed: int, workdir: str):
    """Build the inputs SETUP_REPEATS times; return (workload, setup_s)."""
    script = os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "make_inputs.py"
    )
    times, speed = [], host_speed()
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, script, name, str(seed), workdir],
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=sys.stderr,
        )
        elapsed = time.perf_counter() - t0
        before, speed = speed, host_speed()
        times.append(elapsed * (before + speed) / 2)
    t0 = time.perf_counter()
    workload = workloads.load(name, seed, workdir)
    load_s = (time.perf_counter() - t0) * speed
    return workload, statistics.median(times) + load_s


def timed_pass(workload):
    """Run one pass: (wall seconds, result, digests of its outputs)."""
    t0 = time.perf_counter()
    result = workload.run_pass()
    wall = time.perf_counter() - t0
    workload.cleanup_pass()
    return wall, result, workloads.digests(workload.canonical(result.raw))


def measure(workload, seconds: float, tally: Tally, committed):
    """End-to-end metrics of at least MIN_PASSES passes over *seconds*.

    Each pass's times are scaled by the host's speed around it.
    x_realtime divides a pass's telemetry seconds by the median scaled
    pass.  Each unit of work (an advance of one session, a scenario, an
    analyze call) takes the median of its scaled repeats, and the
    percentiles are taken across units.
    """
    sink = tracing.UnitSink(workload.unit_span, workload.unit_key)
    previous = set_sink(sink)
    walls, scaled, repeats, expected = [], [], {}, None
    speed = host_speed()
    try:
        start = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - start < seconds:
            sink.start_pass()
            wall, result, found = timed_pass(workload)
            before, speed = speed, host_speed()
            factor = (before + speed) / 2
            if expected is None:
                expected = workload.expected(found, committed)
            tally.check(found, expected, f"pass {len(walls)}")
            walls.append(wall)
            scaled.append(wall * factor)
            for key, ms in {**result.unit_ms, **sink.ms}.items():
                repeats.setdefault(key, []).append(ms * factor)
    finally:
        set_sink(previous)
    units = sorted(statistics.median(ms) for ms in repeats.values())
    print(
        f"perfbench: {len(walls)} passes of {len(units)} units; pass wall "
        f"median {statistics.median(walls):.3f} s raw, "
        f"{statistics.median(scaled):.3f} s at reference speed",
        file=sys.stderr,
    )
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "x_realtime": (result.telemetry_s / statistics.median(scaled), "s/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "advance_p50_ms": (statistics.median(units), "ms"),
        "advance_p90_ms": (
            statistics.quantiles(units, n=10, method="inclusive")[-1],
            "ms",
        ),
    }


def measure_traced(workload, seconds: float, tally: Tally, committed):
    """Per-layer metrics of one pass.

    Untraced passes run for half of *seconds*; then as many traced
    passes run, and their outputs must equal the untraced ones.
    """
    walls_off, first, expected = [], None, None
    start = time.perf_counter()
    while not walls_off or time.perf_counter() - start < seconds / 2:
        wall, _, found = timed_pass(workload)
        if expected is None:
            first, expected = found, workload.expected(found, committed)
        tally.check(found, expected, "untraced pass")
        walls_off.append(wall)
    tracer = tracing.Tracer()
    walls_on = []
    tracer.install()
    try:
        for _ in walls_off:
            tracer.start_pass()
            t0 = time.perf_counter()
            try:
                result = workload.run_pass()
            finally:
                walls_on.append(time.perf_counter() - t0)
                tracer.stop_pass()
            workload.cleanup_pass()
            found = workloads.digests(workload.canonical(result.raw))
            tally.check(found, expected, "traced pass")
            tally.check(found, first, "instrumentation on == off")
    finally:
        tracer.uninstall()
    tally.attempted += 1
    if tracer.leftovers():
        tally.failed += 1
        print("perfbench: wrappers outlived the traced run", file=sys.stderr)
    metrics = tracer.metrics(len(walls_on), sum(walls_on))
    metrics["tracing_overhead_frac"] = (
        sum(walls_on) / sum(walls_off) - 1.0,
        "ratio",
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one perfbench workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workdir = os.path.join(
        bootstrap.WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}"
    )
    tally = Tally()
    try:
        workload, setup_s = set_up(args.workload, args.seed, workdir)
        committed = (
            workloads.load_digests()
            .get(args.workload, {})
            .get(str(args.seed))
        )
        if committed is None:
            print(
                f"perfbench: no committed digests for seed {args.seed}; "
                f"outputs are checked against set-up references and the "
                f"first pass",
                file=sys.stderr,
            )
        elif workload.setup_digests():
            tally.check(
                workload.setup_digests(), committed, "committed digests"
            )
        if args.trace:
            metrics = measure_traced(workload, args.seconds, tally, committed)
        else:
            metrics = {"setup_s": (setup_s, "s")}
            metrics.update(measure(workload, args.seconds, tally, committed))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(bootstrap.WORK_ROOT)
        except OSError:
            pass  # another run still uses it
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
