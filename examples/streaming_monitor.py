#!/usr/bin/env python3
"""Near-real-time monitoring: Domino over a live telemetry feed.

The paper targets telemetry "network operators can provide on a
continuous, near real-time basis" (§1).  This example simulates a call
while feeding its telemetry into a StreamingDomino instance batch by
batch, printing detections as their windows complete — the operator's
live dashboard loop.

Usage:
    python examples/streaming_monitor.py
"""

from repro import api
from repro.datasets.cells import TMOBILE_FDD
from repro.datasets.runner import make_cellular_session


def main() -> None:
    duration_us = 25_000_000
    session = make_cellular_session(TMOBILE_FDD, seed=9)
    print(f"Simulating {duration_us / 1e6:.0f}s over {TMOBILE_FDD.name} ...")
    result = session.run(duration_us)
    bundle = result.bundle

    stream = api.open_stream(gnb_log_available=False)
    # Replay the session's telemetry in 5-second batches, as a collector
    # tailing live NR-Scope + WebRTC feeds would deliver it.
    batch_us = 5_000_000
    cursor = 0
    total_chains = 0
    while cursor < duration_us:
        cursor += batch_us
        for record in bundle.dci:
            if cursor - batch_us <= record.ts_us < cursor:
                stream.feed_dci(record)
        for record in bundle.packets:
            if cursor - batch_us <= record.sent_us < cursor:
                stream.feed_packet(record)
        for record in bundle.webrtc_stats:
            if cursor - batch_us <= record.ts_us < cursor:
                stream.feed_webrtc_stats(record)
        windows = stream.advance(cursor)
        fired = [w for w in windows if w.chain_ids]
        total_chains += sum(len(w.chain_ids) for w in fired)
        print(
            f"[t={cursor / 1e6:5.1f}s] {len(windows)} windows completed, "
            f"{len(fired)} with detections "
            f"(buffered records: {stream.buffered_records})"
        )
        for window in fired[:2]:
            causes = ", ".join(window.causes)
            consequences = ", ".join(window.consequences)
            print(f"    {window.start_us / 1e6:5.1f}s  {causes} => {consequences}")
    print(f"\nTotal chain detections: {total_chains}")
    print(
        "Memory stays bounded: records are held until their bins are "
        "ingested, bins until no future window reads them."
    )


if __name__ == "__main__":
    main()
