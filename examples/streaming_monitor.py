#!/usr/bin/env python3
"""Near-real-time monitoring: Domino over a live telemetry feed.

The paper targets telemetry "network operators can provide on a
continuous, near real-time basis" (§1).  This example simulates a call
in 5-second steps, drains the telemetry collector's typed columns after
each step, and feeds them into a StreamingDomino instance batch by
batch, printing detections as their windows complete — the operator's
live dashboard loop.

Usage:
    python examples/streaming_monitor.py
"""

from repro import api
from repro.datasets.cells import TMOBILE_FDD
from repro.datasets.runner import make_cellular_session
from repro.live import TelemetryBatch


def main() -> None:
    duration_us = 25_000_000
    session = make_cellular_session(TMOBILE_FDD, seed=9)
    print(f"Simulating {duration_us / 1e6:.0f}s over {TMOBILE_FDD.name} ...")

    stream = api.open_stream(gnb_log_available=False)
    # Step the call 5 s at a time and drain its collector 1 s behind the
    # simulation clock (so in-flight packets have landed), as a
    # collector tailing live NR-Scope + WebRTC feeds would deliver it.
    batch_us = 5_000_000
    settle_us = 1_000_000
    total_chains = 0
    while session.now_us < duration_us:
        now = session.advance_to(min(session.now_us + batch_us, duration_us))
        cursor = now - settle_us if now < duration_us else duration_us
        batch = TelemetryBatch(
            **session.collector.drain(cursor), watermark_us=cursor
        )
        stream.feed_batch(batch)
        windows = stream.advance(batch.watermark_us)
        fired = [w for w in windows if w.chain_ids]
        total_chains += sum(len(w.chain_ids) for w in fired)
        print(
            f"[t={cursor / 1e6:5.1f}s] {len(windows)} windows completed, "
            f"{len(fired)} with detections "
            f"({batch.n_records} rows fed, "
            f"buffered: {stream.buffered_records})"
        )
        for window in fired[:2]:
            causes = ", ".join(window.causes)
            consequences = ", ".join(window.consequences)
            print(f"    {window.start_us / 1e6:5.1f}s  {causes} => {consequences}")
    print(f"\nTotal chain detections: {total_chains}")
    print(
        "Memory stays bounded: rows are held until their bins are "
        "ingested, bins until no future window reads them."
    )


if __name__ == "__main__":
    main()
