#!/usr/bin/env python3
"""Quickstart for the unified public API (``repro.api``).

One facade, four ways telemetry arrives — offline trace, incremental
stream, campaign, live snapshot — all returning the same canonical
objects, all serialized through the versioned ``repro.schema`` registry.
The script asserts the facade's core promise as it goes: every path
yields detections byte-identical to every other.

Usage:
    python examples/api_quickstart.py [duration_seconds] [seed]
"""

import json
import sys

from repro import api, schema
from repro.core.stats import DominoStats
from repro.datasets.cells import TMOBILE_FDD
from repro.datasets.runner import run_cellular_session
from repro.live.service import canonical_detections


def main() -> None:
    duration_s = float(sys.argv[1]) if len(sys.argv) > 1 else 12.0
    seed = int(sys.argv[2]) if len(sys.argv) > 2 else 1

    # -- offline: one recorded session through api.analyze -------------------
    print(f"Simulating a {duration_s:.0f}s call over {TMOBILE_FDD.name} ...")
    result = run_cellular_session(
        TMOBILE_FDD, duration_s=duration_s, seed=seed
    )
    report = api.analyze(result.bundle)
    stats = DominoStats.from_report(report)
    print(
        f"  analyze: {report.n_windows} windows, "
        f"{len(report.windows_with_detections())} with causal chains, "
        f"{stats.degradation_events_per_min():.2f} degradation events/min"
    )

    # -- streaming: the same columns through api.open_stream -----------------
    stream = api.open_stream(gnb_log_available=True)
    stream.feed_batch(result.bundle)  # a bundle is one batch of every row
    windows = stream.advance(result.bundle.duration_us)
    assert canonical_detections(windows) == canonical_detections(
        report.windows
    ), "stream vs offline detections diverged"
    print(f"  open_stream: {len(windows)} windows, byte-identical to analyze")

    # -- campaign: many sessions on a pluggable backend -----------------------
    outcomes = api.campaign(
        api.ScenarioMatrix(
            name="quickstart",
            profiles=("wired",),
            durations_s=(8.0,),
            impairments=(api.ImpairmentSpec(),),
            repetitions=2,
        ),
        backend=api.InlineBackend(),
    )
    print(
        f"  campaign: {len(outcomes)} outcomes, e.g. "
        f"{outcomes[0].scenario} → "
        f"{outcomes[0].degradation_events_per_min:.2f} events/min"
    )

    # -- canonical wire schema ------------------------------------------------
    wire = schema.to_wire(outcomes[0])
    assert schema.from_wire("session_outcome", wire) == outcomes[0]
    text = json.dumps(schema.to_wire(report))[:72]
    print(f"  schema v{schema.SCHEMA_VERSION}: domino_report wire = {text}...")
    print("OK: all facade paths agree")


if __name__ == "__main__":
    main()
