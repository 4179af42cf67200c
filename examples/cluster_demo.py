#!/usr/bin/env python3
"""Distributed campaign over loopback: coordinator + 2 workers.

The fleet executor scales to one machine; `repro.cluster` is the layer
above it — a coordinator dispatching scenarios over TCP to workers that
each run the normal process-pool executor locally.  This demo spins up
the whole topology inside one process (coordinator and both workers on
the loopback interface; the scenario simulations still fan out to real
worker processes), runs the ``smoke`` campaign preset through it, and
then proves the distribution layer is *free of semantics*: the
outcomes are byte-identical to a plain single-host ``api.campaign``.

The demo exits non-zero on any mismatch, and CI runs it in its API
surface step; tier-1's ``test_cluster_campaign_byte_identical_to_local``
(tests/test_cluster.py) asserts the same byte-identity.

Usage:
    python examples/cluster_demo.py [--preset smoke] [--workers 2]
"""

import argparse
import asyncio
import json
import sys
import time

from repro import api
from repro.cluster import ClusterCoordinator, ClusterWorker
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.report import render_fleet_report
from repro.fleet.scenarios import get_preset


async def run_cluster(scenarios, n_workers: int):
    coordinator = ClusterCoordinator()  # loopback, ephemeral port
    await coordinator.start()
    print(
        f"coordinator on 127.0.0.1:{coordinator.port}, "
        f"{n_workers} loopback workers joining"
    )
    workers = [
        ClusterWorker("127.0.0.1", coordinator.port, slots=1, name=f"w{i}")
        for i in range(n_workers)
    ]
    tasks = [asyncio.create_task(w.run()) for w in workers]
    try:
        await coordinator.wait_for_workers(n_workers, timeout_s=60)

        def progress(done, total, requeues):
            print(f"  [{done}/{total}] outcomes collected")

        outcomes = await coordinator.run_campaign(
            scenarios, on_progress=progress
        )
    finally:
        await coordinator.close()
        await asyncio.gather(*tasks, return_exceptions=True)
    for worker in workers:
        print(f"  {worker.name}: ran {worker.scenarios_run} scenario(s)")
    return outcomes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="smoke")
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args()

    scenarios = get_preset(args.preset).expand()
    print(f"campaign {args.preset}: {len(scenarios)} scenarios\n")

    t0 = time.time()
    local = api.campaign(
        scenarios, backend=api.ProcessPoolBackend(args.workers)
    )
    print(f"local ({args.workers}-process pool): {time.time() - t0:.1f}s")

    t0 = time.time()
    cluster = asyncio.run(run_cluster(scenarios, args.workers))
    print(f"cluster (loopback): {time.time() - t0:.1f}s\n")

    local_bytes = json.dumps([o.to_json() for o in local], sort_keys=True)
    cluster_bytes = json.dumps(
        [o.to_json() for o in cluster], sort_keys=True
    )
    identical = local_bytes == cluster_bytes
    print(f"cluster outcomes byte-identical to local: {identical}")
    if not identical:
        print("MISMATCH — the dispatch layer changed results", file=sys.stderr)
        return 1
    print()
    print(render_fleet_report(FleetAggregate.from_outcomes(cluster)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
