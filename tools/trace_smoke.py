#!/usr/bin/env python3
"""CI gate for distributed tracing + profiling (exit 1 on any failure).

Three end-to-end assertions nothing unit-sized can cover:

1. **Traces stitch.** A loopback cluster campaign (coordinator + two
   workers + process pools) must yield exactly one connected trace per
   scenario — coordinator, worker, and pool-child spans share the
   scenario's trace id with no orphan spans — and the spans must be
   queryable from the store by campaign id.
2. **Tracing is inert.** The traced cluster campaign's outcomes must be
   byte-identical to an inline ``api.campaign`` run of the same
   scenarios, with exactly one trace per scenario, so tracing can never
   perturb detections.
3. **Profiling is affordable and useful.** A sampling profile of a 60 s
   analyze pass must cost < 5% over an unprofiled run (min-of-N,
   interleaved), emit valid collapsed-stack output, and attribute at
   least 80% of samples to its top self frames — wide tips, not noise.

Run from the repository root: ``PYTHONPATH=src python
tools/trace_smoke.py``.
"""

import asyncio
import json
import sys
import tempfile
import time

from repro import api
from repro.cluster import ClusterCoordinator, ClusterWorker
from repro.datasets import TMOBILE_FDD, run_cellular_session
from repro.fleet.scenarios import ScenarioMatrix
from repro.obs.profile import SamplingProfiler
from repro.obs.trace import assemble_traces, orphan_spans
from repro.store import RcaStore, StoreQuery

#: Relative overhead allowed for a profiled analyze pass.
OVERHEAD_LIMIT = 1.05

#: Absolute slack (seconds) so timer jitter cannot fail a fast run.
OVERHEAD_EPSILON_S = 0.005

#: Interleaved timing rounds per arm; min-of-N defeats one-off stalls.
TIMING_ROUNDS = 5

#: Fraction of samples the top-10 self frames must own.
TOP_FRACTION_FLOOR = 0.80

_MATRIX = ScenarioMatrix(
    name="smoke",
    profiles=("tmobile_fdd",),
    durations_s=(8.0,),
    repetitions=2,
)


async def _campaign(scenarios, **coordinator_kwargs):
    """One loopback campaign; returns (campaign_id, outcomes, spans)."""
    coordinator = ClusterCoordinator(**coordinator_kwargs)
    await coordinator.start()
    workers = [
        ClusterWorker("127.0.0.1", coordinator.port, slots=1, name=f"w{i}")
        for i in range(2)
    ]
    tasks = [asyncio.create_task(w.run()) for w in workers]
    try:
        await coordinator.wait_for_workers(len(tasks), timeout_s=60)
        cid = await coordinator.submit_campaign(scenarios)
        outcomes = await coordinator.wait_campaign(cid)
        return cid, outcomes, coordinator.trace_spans_for(cid)
    finally:
        await coordinator.close()
        await asyncio.gather(*tasks, return_exceptions=True)


def _outcome_bytes(outcomes):
    return json.dumps([o.to_json() for o in outcomes], sort_keys=True)


def check_stitching(scenarios, tmp: str):
    """Campaign → one orphan-free trace per scenario, served by store."""
    store_dir = f"{tmp}/store"
    cid, outcomes, spans = asyncio.run(
        _campaign(scenarios, store_dir=store_dir)
    )
    failures = []
    traces = assemble_traces(spans)
    if len(traces) != len(scenarios):
        failures.append(
            f"{len(traces)} trace(s) for {len(scenarios)} scenario(s)"
        )
    for trace_id, members in traces.items():
        orphans = orphan_spans(members)
        if orphans:
            failures.append(
                f"trace {trace_id[:16]} has {len(orphans)} orphan "
                f"span(s): {sorted({o.name for o in orphans})}"
            )
        services = {s.service for s in members}
        if not {"coordinator", "worker"} <= services:
            failures.append(
                f"trace {trace_id[:16]} spans only services {services} "
                f"— a process hop went missing"
            )
    stored = StoreQuery(
        RcaStore.open(store_dir, create=False)
    ).trace_spans(campaign_id=cid)
    if sorted(s.span_id for s in stored) != sorted(
        s.span_id for s in spans
    ):
        failures.append(
            f"store serves {len(stored)} span(s) for campaign {cid} "
            f"but the coordinator collected {len(spans)}"
        )
    rendered = api.store_trace(store_dir, cid, render=True)
    if "trace " not in rendered:
        failures.append("store_trace(render=True) produced no timeline")
    return failures, outcomes, spans


def check_byte_identity(scenarios, traced_outcomes, traced_spans):
    """Traced cluster outcomes == an inline run's, one trace each."""
    failures = []
    inline = api.campaign(scenarios, backend=api.InlineBackend())
    if _outcome_bytes(traced_outcomes) != _outcome_bytes(inline):
        failures.append(
            "traced cluster outcomes differ from an inline campaign"
        )
    per_trace = []
    for members in assemble_traces(traced_spans).values():
        labels = sorted({s.scenario for s in members})
        per_trace.append(labels[0] if len(labels) == 1 else str(labels))
    per_trace.sort()
    if per_trace != sorted(spec.name for spec in scenarios):
        failures.append(
            f"traced run yields traces for {per_trace}, not exactly one "
            f"per scenario"
        )
    return failures


def check_profiler(bundle):
    """Profiled analyze: < 5% overhead, valid collapsed stacks, top
    frames owning >= 80% of samples."""

    def once_plain() -> float:
        start = time.perf_counter()
        api.analyze(bundle)
        return time.perf_counter() - start

    def once_profiled():
        profiler = SamplingProfiler(interval_s=0.005)
        with profiler:
            start = time.perf_counter()
            api.analyze(bundle)
            elapsed = time.perf_counter() - start
        return elapsed, profiler

    once_plain(), once_profiled()  # warm both paths
    plain_s = profiled_s = float("inf")
    best = None
    for _ in range(TIMING_ROUNDS):
        profiled_once, profiler = once_profiled()
        if profiled_once < profiled_s:
            profiled_s, best = profiled_once, profiler
        plain_s = min(plain_s, once_plain())
    budget_s = plain_s * OVERHEAD_LIMIT + OVERHEAD_EPSILON_S
    print(
        f"profiler overhead: {profiled_s * 1e3:.1f} ms profiled vs "
        f"{plain_s * 1e3:.1f} ms plain (budget {budget_s * 1e3:.1f} ms)"
    )
    failures = []
    if profiled_s > budget_s:
        failures.append(
            f"profiled analyze costs {profiled_s * 1e3:.1f} ms vs "
            f"{plain_s * 1e3:.1f} ms plain — over the "
            f"{OVERHEAD_LIMIT - 1:.0%}+{OVERHEAD_EPSILON_S * 1e3:.0f} ms "
            f"budget"
        )
    collapsed = best.collapsed()
    if not collapsed:
        failures.append("profiled analyze produced no samples")
    for line in collapsed.splitlines():
        stack, _, count = line.rpartition(" ")
        if not stack or not count.isdigit():
            failures.append(f"malformed collapsed-stack line: {line!r}")
            break
    top = best.top_fraction(10)
    print(
        f"profiler: {best.n_samples} samples, top-10 self frames own "
        f"{top:.0%}"
    )
    if top < TOP_FRACTION_FLOOR:
        failures.append(
            f"top-10 self frames own {top:.0%} of samples "
            f"(< {TOP_FRACTION_FLOOR:.0%}) — profile too diffuse to act on"
        )
    return failures


def main() -> int:
    failures = []
    scenarios = _MATRIX.expand()
    with tempfile.TemporaryDirectory() as tmp:
        stitch_failures, traced_outcomes, traced_spans = check_stitching(
            scenarios, tmp
        )
        failures += stitch_failures
        failures += check_byte_identity(
            scenarios, traced_outcomes, traced_spans
        )
    bundle = run_cellular_session(TMOBILE_FDD, duration_s=60, seed=7).bundle
    failures += check_profiler(bundle)
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print(
        "trace smoke: stitching, byte-identity, and profiler "
        "overhead all OK"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
