"""Command-line interface: simulate, analyze, report, codegen.

The operator workflow the paper targets, as a pipeline of commands::

    python -m repro.cli simulate --profile tmobile_fdd --duration 30 \
        --seed 1 --out trace.jsonl
    python -m repro.cli analyze trace.jsonl
    python -m repro.cli report trace.jsonl
    python -m repro.cli codegen my_chains.txt
    python -m repro.cli fleet --preset campus_sweep --workers 8 \
        --out fleet_results.jsonl
    python -m repro.cli fleet-report fleet_results.jsonl

``analyze`` runs Domino over a JSONL telemetry trace (simulated here,
but the format is simulator-agnostic — see repro.telemetry.io) and
prints detected causal chains plus the Fig. 10-style statistics;
``codegen`` shows the Python that Domino generates from a chain file
(Fig. 11); ``fleet`` runs a whole campaign of sessions in parallel and
prints the fleet-level root-cause rollup (re-renderable later from the
saved outcomes with ``fleet-report``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

from repro import api
from repro.analysis.summarize import summarize_session
from repro.core.chains import DEFAULT_CHAINS_TEXT
from repro.core.codegen import generate_python_source
from repro.core.detector import DetectorConfig
from repro.core.dsl import parse_chains
from repro.core.report import render_frequency_table
from repro.core.stats import DominoStats
from repro.datasets.cells import CELL_PROFILES, get_profile
from repro.datasets.runner import make_cellular_session, make_wired_session
from repro.errors import (
    ClusterError,
    ConfigError,
    ReproError,
    SchemaError,
    TelemetryError,
)
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.executor import iter_outcomes, save_outcomes
from repro.fleet.report import render_fleet_report
from repro.fleet.scenarios import PRESETS, get_preset
from repro.obs.logs import get_logger, setup_logging
from repro.telemetry.io import load_bundle, save_bundle

logger = get_logger(__name__)


def _cmd_simulate(args: argparse.Namespace) -> int:
    duration_us = int(args.duration * 1e6)
    if args.profile == "wired":
        session = make_wired_session(seed=args.seed)
    elif args.profile == "wifi":
        session = make_wired_session(seed=args.seed, wifi=True)
    else:
        session = make_cellular_session(
            get_profile(args.profile), seed=args.seed
        )
    result = session.run(duration_us)
    save_bundle(result.bundle, args.out)
    rates = result.bundle.event_rates_per_minute()
    print(
        f"wrote {args.out}: {len(result.bundle.packets)} packets, "
        f"{len(result.bundle.dci)} DCI records "
        f"({rates['packets']:.0f} pkt/min)"
    )
    return 0


def _detector_config(args: argparse.Namespace) -> DetectorConfig:
    chains_text = DEFAULT_CHAINS_TEXT
    if getattr(args, "chains", None):
        with open(args.chains) as handle:
            chains_text = handle.read()
    return DetectorConfig(
        window_us=int(args.window * 1e6),
        step_us=int(args.step * 1e6),
        chains_text=chains_text,
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    report = api.analyze(args.trace, _detector_config(args))
    detected = report.windows_with_detections()
    print(
        f"{report.n_windows} windows analysed, {len(detected)} with "
        f"detected causal chains"
    )
    limit = args.limit if args.limit > 0 else len(detected)
    for window in detected[:limit]:
        for chain_id in window.chain_ids:
            print(
                f"[{window.start_us / 1e6:8.1f}s] "
                + " --> ".join(report.chains[chain_id])
            )
    stats = DominoStats.from_report(report)
    print()
    print(render_frequency_table({"session": stats}))
    print(
        f"\ndegradation events/min: "
        f"{stats.degradation_events_per_min():.2f}"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = load_bundle(args.trace)
    summary = summarize_session(bundle)
    print(f"session: {bundle.session_name}")
    print(
        f"one-way delay (ms): UL p50={summary.ul_delay.median:.1f} "
        f"p99={summary.ul_delay.percentile(99):.1f}; "
        f"DL p50={summary.dl_delay.median:.1f} "
        f"p99={summary.dl_delay.percentile(99):.1f}"
    )
    print(
        f"target bitrate (Mbps): UL p50="
        f"{summary.ul_target_bitrate.median / 1e6:.2f}; "
        f"DL p50={summary.dl_target_bitrate.median / 1e6:.2f}"
    )
    print(
        f"jitter buffer (ms): UL video p50={summary.ul_video_jb.median:.1f}; "
        f"DL video p50={summary.dl_video_jb.median:.1f}"
    )
    print(
        f"concealed audio: UL {summary.ul_concealed_fraction * 100:.2f}%; "
        f"DL {summary.dl_concealed_fraction * 100:.2f}%"
    )
    print(
        f"frozen time: UL {summary.ul_freeze_fraction * 100:.2f}%; "
        f"DL {summary.dl_freeze_fraction * 100:.2f}%"
    )
    return 0


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return parsed


def _cmd_fleet(args: argparse.Namespace) -> int:
    matrix = get_preset(args.preset)
    if args.base_seed is not None:
        matrix = matrix.with_base_seed(args.base_seed)
    scenarios = matrix.expand()
    if args.out:
        # Fail on an unwritable destination now, not after the campaign.
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "a"):
            pass
    cache_dir = None if args.no_cache else args.cache_dir
    dispatch = getattr(args, "dispatch", "local")
    print(
        f"campaign {matrix.name}: {len(scenarios)} sessions, "
        + (
            f"dispatch=cluster ({args.bind}:{args.port}, "
            f"min {args.min_workers} workers)"
            if dispatch == "cluster"
            else f"workers={args.workers}"
        )
        + (f", cache={cache_dir}" if cache_dir else ", cache off")
    )

    def listening(host: str, port: int) -> None:
        print(
            f"coordinator listening on {host}:{port} — start workers "
            f"with: repro cluster worker --connect {host}:{port}",
            flush=True,
        )

    # The facade's backend seam replaces the old dispatch string switch.
    if dispatch == "cluster" and args.journal:
        backend = api.JournaledClusterBackend(
            args.journal,
            args.bind,
            args.port,
            min_workers=args.min_workers,
            on_listening=listening,
            auth_token=_cluster_token(args),
            store_dir=args.store,
        )
    elif dispatch == "cluster":
        backend = api.ClusterBackend(
            args.bind,
            args.port,
            min_workers=args.min_workers,
            on_listening=listening,
            store_dir=args.store,
        )
    else:
        backend = api.ProcessPoolBackend(args.workers)
    outcomes = api.campaign(
        scenarios,
        backend=backend,
        trace_dir=args.trace_dir,
        cache_dir=cache_dir,
        fail_fast=args.fail_fast,
    )
    if args.out:
        save_outcomes(outcomes, args.out)
        print(f"wrote {args.out}: {len(outcomes)} outcomes")
    if args.store:
        # Post-campaign tee: detections are already final, so storing
        # is purely additive — byte-identical with the tee on or off.
        from repro.store import RcaStore

        with RcaStore.open(args.store) as store:
            n = store.ingest_outcomes(outcomes, ts=args.store_at)
        print(f"store {args.store}: ingested {n} outcomes")
    print()
    print(render_fleet_report(FleetAggregate.from_outcomes(outcomes)))
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    # Streamed, not loaded: iter_outcomes hands the incremental
    # aggregate one outcome at a time, so a sharded campaign JSONL far
    # larger than memory renders fine.  Tolerant mode: a campaign cut
    # short (killed worker, crashed run) leaves a partial trailing line
    # and a count shortfall — report what survived, loudly.
    stats: dict = {}
    try:
        print(
            render_fleet_report(
                FleetAggregate(
                    iter_outcomes(args.outcomes, tolerant=True, stats=stats)
                )
            )
        )
    except TelemetryError as exc:
        # Includes SchemaVersionError: a mismatched artifact reports
        # "schema version X vs Y", never a traceback mid-decode.
        logger.error("%s", exc)
        return 1
    if stats.get("skipped_lines"):
        logger.warning(
            "skipped %d undecodable line(s) (truncated save?)",
            stats["skipped_lines"],
        )
    if stats.get("missing_outcomes"):
        logger.warning(
            "file holds %d fewer outcome(s) than its header promises "
            "— rollup covers the surviving sessions only",
            stats["missing_outcomes"],
        )
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    import asyncio

    from repro.live.dashboard import render_snapshot

    specs = _live_specs(args)
    if args.source == "replay":
        sources = []
        for index, spec in enumerate(specs):
            session = spec.build_session()
            bundle = session.run(spec.duration_us).bundle
            print(
                f"simulated {index + 1}/{len(specs)}: {spec.name} "
                f"({len(bundle.packets)} packets)",
                flush=True,
            )
            sources.append(
                api.ReplaySource(
                    bundle,
                    session_id=spec.name,
                    speed=args.speed,
                    profile=spec.profile,
                    impairment=spec.impairment.name,
                )
            )
    else:
        sources = [
            api.SimSource(spec, session_id=spec.name, speed=args.speed)
            for spec in specs
        ]

    def progress(snapshot) -> None:
        print(
            f"[{snapshot.wall_s:6.1f}s] {snapshot.n_running} running, "
            f"{snapshot.n_done} done, {snapshot.windows} windows, "
            f"{snapshot.detected_windows} detected, "
            f"lag={snapshot.lag_events}",
            flush=True,
        )

    async def _serve():
        forwarder = None
        sink = None
        if args.forward:
            from repro.cluster import DetectionForwarder

            host, port = args.forward
            # Reconnect on by default: a service that outlives its
            # coordinator should resume forwarding when it returns.
            forwarder = DetectionForwarder(
                host,
                port,
                auth_token=_cluster_token(args),
                ssl_context=_client_ssl(args),
                reconnect=True,
            )
            await forwarder.start()
            for source in sources:
                forwarder.register(
                    source.session_id, source.profile, source.impairment
                )
            sink = forwarder.sink
        service = api.serve(
            sources,
            backpressure=args.backpressure,
            queue_batches=args.queue_batches,
            snapshot_every_s=args.snapshot_every,
            idle_timeout_s=args.idle_timeout,
            snapshot_path=args.snapshot,
            metrics_path=getattr(args, "live_metrics_file", None),
            store_dir=args.store,
            on_snapshot=progress if not args.quiet else None,
            detection_sink=sink,
        )
        try:
            return await service.run()
        finally:
            if forwarder is not None:
                await forwarder.close()

    final = asyncio.run(_serve())
    print()
    print(render_snapshot(final))
    if args.snapshot:
        print(f"\nwrote final snapshot to {args.snapshot}")
    return 0


def _live_specs(args: argparse.Namespace):
    """Expand a preset into N live session specs at the CLI duration."""
    from dataclasses import replace as dc_replace

    from repro.fleet.scenarios import derive_seed

    matrix = get_preset(args.preset)
    if args.base_seed is not None:
        matrix = matrix.with_base_seed(args.base_seed)
    base = matrix.expand()
    specs = []
    for index in range(args.sessions):
        spec = base[index % len(base)]
        name = f"live/{index}/{spec.profile}/{spec.impairment.name}"
        specs.append(
            dc_replace(
                spec,
                name=name,
                duration_s=args.duration,
                seed=derive_seed(matrix.base_seed, name),
            )
        )
    return specs


def _parse_address(value: str):
    """'host:port' → (host, port); argparse-friendly errors."""
    host, _, port = value.rpartition(":")
    if not host or not port.isdigit():
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    return host, int(port)


def _cluster_token(args: argparse.Namespace) -> Optional[str]:
    """--auth-token flag, falling back to $REPRO_CLUSTER_TOKEN."""
    return (
        getattr(args, "auth_token", None)
        or os.environ.get("REPRO_CLUSTER_TOKEN")
        or None
    )


def _client_ssl(args: argparse.Namespace):
    """TLS client context from --tls / --tls-ca (None = plaintext)."""
    if getattr(args, "tls_ca", None) or getattr(args, "tls", False):
        from repro.cluster.protocol import client_ssl_context

        return client_ssl_context(getattr(args, "tls_ca", None))
    return None


def _cmd_watch(args: argparse.Namespace) -> int:
    import time

    from repro.live.aggregator import FleetSnapshot
    from repro.live.dashboard import SnapshotHistory, render_snapshot, render_trend

    if args.snapshot is None and not args.connect:
        print(
            "need a snapshot file or --connect HOST:PORT", file=sys.stderr
        )
        return 1
    history = SnapshotHistory() if args.follow else None
    engine = None
    alert_store = None
    recent_alerts: list = []
    if args.rules:
        try:
            if args.store:
                alert_store = api.store_open(args.store)
            engine = api.store_alerts(args.rules, store=alert_store)
        except ConfigError as exc:
            logger.error("%s", exc)
            return 1

    def show(snapshot: FleetSnapshot) -> None:
        print(render_snapshot(snapshot))
        if history is not None:
            history.add(snapshot)
            print()
            print(render_trend(history))
        if engine is not None:
            from repro.store import render_alerts_pane

            for event in engine.observe_snapshot(
                snapshot, ts=time.time()
            ):
                recent_alerts.append(
                    {
                        "ts": event.ts,
                        "rule": event.rule,
                        "state": event.state,
                        "message": event.message,
                    }
                )
            print()
            print(render_alerts_pane(engine.firing, recent_alerts))

    if args.connect:
        # Stream SNAPSHOT frames straight off the coordinator socket —
        # the fleet-wide dashboard with no shared filesystem.
        import asyncio

        host, port = args.connect

        async def _stream() -> None:
            import asyncio as aio

            while True:
                try:
                    async for snapshot in api.watch(
                        host,
                        port,
                        auth_token=_cluster_token(args),
                        ssl_context=_client_ssl(args),
                    ):
                        show(snapshot)
                        if not args.follow:
                            return
                        print()
                except (ConnectionError, OSError):
                    pass
                if not args.follow:
                    return
                # Like file-follow mode racing the first write: a
                # restarting coordinator is something to wait out, not
                # a reason for an always-on dashboard to exit silently.
                print(
                    f"coordinator at {host}:{port} unreachable; "
                    f"retrying ...",
                    file=sys.stderr,
                    flush=True,
                )
                await aio.sleep(args.interval)

        try:
            asyncio.run(_stream())
        except (SchemaError, ClusterError) as exc:
            # An incompatible coordinator surfaces as a refused
            # handshake (ClusterError carrying the coordinator's
            # "schema/protocol version mismatch" reason), a malformed
            # frame (ClusterProtocolError), or a mismatched snapshot
            # stamp (SchemaVersionError).  None of these heal by
            # retrying: report the reason cleanly and exit non-zero.
            logger.error("%s", exc)
            return 1
        return 0

    while True:
        try:
            snapshot = api.read_snapshot(args.snapshot)
        except SchemaError as exc:
            logger.error("%s", exc)
            return 1
        except FileNotFoundError:
            if args.follow:
                # The service writes its first snapshot after one
                # interval; keep waiting instead of racing it.
                print(
                    f"waiting for {args.snapshot} ...",
                    file=sys.stderr,
                    flush=True,
                )
                time.sleep(args.interval)
                continue
            print(f"no snapshot at {args.snapshot}", file=sys.stderr)
            return 1
        show(snapshot)
        if not args.follow:
            return 0
        time.sleep(args.interval)
        print()


def _cmd_cluster_coordinator(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster import ClusterCoordinator
    from repro.fleet.executor import save_outcomes as save

    if bool(args.tls_cert) != bool(args.tls_key):
        logger.error("--tls-cert and --tls-key must be given together")
        return 2
    ssl_context = None
    if args.tls_cert:
        from repro.cluster.protocol import server_ssl_context

        ssl_context = server_ssl_context(args.tls_cert, args.tls_key)

    async def _serve() -> int:
        coordinator = ClusterCoordinator(
            args.bind,
            args.port,
            heartbeat_s=args.heartbeat,
            worker_timeout_s=args.worker_timeout,
            live_backpressure=args.backpressure,
            snapshot_path=args.snapshot,
            snapshot_every_s=args.snapshot_every,
            store_dir=args.store,
            journal_path=args.journal,
            auth_token=_cluster_token(args),
            ssl_context=ssl_context,
        )
        await coordinator.start()
        print(
            f"coordinator listening on "
            f"{coordinator.host}:{coordinator.port} — workers join "
            f"with: repro cluster worker --connect "
            f"{coordinator.host}:{coordinator.port}",
            flush=True,
        )
        try:
            if args.preset is None:
                # Standing mode: serve the live plane and the campaign
                # queue (repro cluster queue|status|cancel).  With a
                # journal, campaigns interrupted by a previous crash
                # pick themselves back up first.
                if args.journal:
                    for cid in await coordinator.resume_pending_campaigns():
                        print(
                            f"resuming campaign {cid} from journal",
                            flush=True,
                        )
                print(
                    "serving live plane and campaign queue "
                    "(Ctrl-C to stop)",
                    flush=True,
                )
                while True:
                    await asyncio.sleep(3600)
            matrix = get_preset(args.preset)
            if args.base_seed is not None:
                matrix = matrix.with_base_seed(args.base_seed)
            scenarios = matrix.expand()

            def progress(done: int, total: int, requeues: int) -> None:
                print(
                    f"[{done}/{total}] outcomes collected"
                    + (f", {requeues} requeued" if requeues else ""),
                    flush=True,
                )

            # Submit before waiting for workers: with a journal whose
            # records already settle every scenario, the campaign
            # finishes right here and no worker is needed at all.
            cid = await coordinator.submit_campaign(
                scenarios,
                trace_dir=args.trace_dir,
                cache_dir=None if args.no_cache else args.cache_dir,
                fail_fast=args.fail_fast,
                on_progress=progress,
            )
            print(
                f"campaign {matrix.name} ({cid}): "
                f"{len(scenarios)} scenarios",
                flush=True,
            )
            if not coordinator.campaign_finished(cid):
                print(
                    f"waiting for {args.min_workers} worker(s)",
                    flush=True,
                )
                await coordinator.wait_for_workers(args.min_workers)
            outcomes = await coordinator.wait_campaign(cid)
            if args.out:
                save(outcomes, args.out)
                print(f"wrote {args.out}: {len(outcomes)} outcomes")
            print()
            # The coordinator folded each outcome as it arrived; render
            # that incremental aggregate rather than re-scanning.
            print(render_fleet_report(coordinator.batch_aggregate))
            return 0
        finally:
            await coordinator.close()

    try:
        return asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\ncoordinator stopped")
        return 0


def _cmd_cluster_worker(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.cluster import ClusterWorker

    host, port = args.connect
    worker = ClusterWorker(
        host,
        port,
        slots=args.slots,
        name=args.name,
        cache_dir=args.cache_dir,
        trace_dir=args.trace_dir,
        connect_timeout_s=args.connect_timeout,
        auth_token=_cluster_token(args),
        ssl_context=_client_ssl(args),
        reconnect=args.reconnect,
        reconnect_timeout_s=args.reconnect_timeout,
    )
    print(
        f"worker connecting to {host}:{port} ({args.slots} slot(s))",
        flush=True,
    )

    async def _run() -> None:
        # Graceful drain on SIGTERM/SIGINT: finish in-flight
        # scenarios, deliver their outcomes, BYE, exit 0.
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, worker.request_stop)
            except (NotImplementedError, RuntimeError):
                break  # platform without loop signal handlers
        await worker.run()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    print(f"worker done: ran {worker.scenarios_run} scenario(s)")
    return 0


def _control_client(args: argparse.Namespace):
    from repro.cluster import CoordinatorControl

    host, port = args.connect
    return CoordinatorControl(
        host,
        port,
        auth_token=_cluster_token(args),
        ssl_context=_client_ssl(args),
    )


def _cmd_cluster_queue(args: argparse.Namespace) -> int:
    import asyncio

    matrix = get_preset(args.preset)
    if args.base_seed is not None:
        matrix = matrix.with_base_seed(args.base_seed)
    scenarios = matrix.expand()

    async def _go() -> int:
        async with _control_client(args) as control:
            cid = await control.submit(
                scenarios,
                campaign_id=args.campaign_id,
                trace_dir=args.trace_dir,
                cache_dir=None if args.no_cache else args.cache_dir,
                fail_fast=args.fail_fast,
            )
            print(
                f"queued campaign {cid}: {len(scenarios)} scenario(s)",
                flush=True,
            )
            if not args.wait:
                return 0
            last_done = -1
            while True:
                entries = {
                    entry["campaign_id"]: entry
                    for entry in await control.status()
                }
                entry = entries.get(cid)
                if entry is None or entry["state"] != "active":
                    break
                if entry["done"] != last_done:
                    last_done = entry["done"]
                    print(
                        f"[{entry['done']}/{entry['total']}] outcomes "
                        f"collected",
                        flush=True,
                    )
                await asyncio.sleep(args.interval)
            result = await control.fetch(cid)
            outcomes = result["outcomes"]
            for index, message in sorted(result["errors"].items()):
                logger.error("scenario %s failed: %s", index, message)
            if args.out:
                save_outcomes(outcomes, args.out)
                print(f"wrote {args.out}: {len(outcomes)} outcomes")
            print()
            print(
                render_fleet_report(FleetAggregate.from_outcomes(outcomes))
            )
            return 0 if result["state"] == "completed" else 1

    try:
        return asyncio.run(_go())
    except (ClusterError, OSError) as exc:
        logger.error("%s", exc)
        return 1


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    import asyncio

    async def _go() -> int:
        async with _control_client(args) as control:
            entries = await control.status()
        if not entries:
            print("queue is empty")
            return 0
        for entry in entries:
            line = (
                f"{entry['campaign_id']}  {entry['state']:<9}  "
                f"{entry['done']}/{entry['total']}"
            )
            if entry.get("errors"):
                line += f"  errors={entry['errors']}"
            if entry.get("requeues"):
                line += f"  requeues={entry['requeues']}"
            print(line)
        return 0

    try:
        return asyncio.run(_go())
    except (ClusterError, OSError) as exc:
        logger.error("%s", exc)
        return 1


def _cmd_cluster_cancel(args: argparse.Namespace) -> int:
    import asyncio

    async def _go() -> int:
        async with _control_client(args) as control:
            cancelled = await control.cancel(args.campaign_id)
        if cancelled:
            print(f"cancelled campaign {args.campaign_id}")
            return 0
        print(
            f"campaign {args.campaign_id} is not active "
            f"(unknown or already finished)",
            file=sys.stderr,
        )
        return 1

    try:
        return asyncio.run(_go())
    except (ClusterError, OSError) as exc:
        logger.error("%s", exc)
        return 1


def _open_store(args: argparse.Namespace, *, create: bool):
    from repro.store import RcaStore

    return RcaStore.open(args.store_dir, create=create)


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    if not (args.outcomes or args.prom or args.snapshot_file):
        logger.error(
            "nothing to ingest: give outcome files, --prom, or --snapshot"
        )
        return 2
    store = _open_store(args, create=True)
    try:
        for path in args.outcomes:
            try:
                stats = store.ingest_outcomes_file(
                    path, ts=args.at, tolerant=not args.strict
                )
            except (TelemetryError, SchemaError) as exc:
                # Includes SchemaVersionError: a major-version artifact
                # reports "schema version X vs Y", never a traceback.
                logger.error("%s", exc)
                return 1
            line = f"{path}: ingested {stats['ingested']} outcome(s)"
            if stats.get("skipped_lines"):
                line += f", skipped {stats['skipped_lines']} line(s)"
            if stats.get("missing_outcomes"):
                line += f", {stats['missing_outcomes']} missing"
            print(line)
        for path in args.prom:
            with open(path) as handle:
                n = store.ingest_prom_text(handle.read(), ts=args.at)
            print(f"{path}: ingested {n} metric sample(s)")
        for path in args.snapshot_file:
            try:
                snapshot = api.read_snapshot(path)
            except SchemaError as exc:
                logger.error("%s", exc)
                return 1
            store.ingest_snapshot(snapshot, ts=args.at)
            print(f"{path}: ingested fleet snapshot #{snapshot.seq}")
    finally:
        store.close()
    return 0


def _store_range(args: argparse.Namespace, query):
    """Resolve --since/--until, defaulting to the store's full span."""
    lo, hi = query.time_bounds()
    since = args.since if args.since is not None else lo
    until = args.until if args.until is not None else (
        hi + 1.0 if hi is not None else None
    )
    return since, until


def _cmd_store_query(args: argparse.Namespace) -> int:
    import json as _json

    from repro.store import StoreQuery

    try:
        store = _open_store(args, create=False)
    except (TelemetryError, SchemaError) as exc:
        logger.error("%s", exc)
        return 1
    try:
        query = StoreQuery(store)
        since, until = _store_range(args, query)
        if args.what != "totals" and since is None:
            print("store is empty")
            return 0
        result: object
        if args.what == "totals":
            result = {
                "rows": store.rows_total(),
                "outcomes": query.outcome_count(since, until),
                "segment_bytes": store.size_bytes(),
            }
        elif args.what == "rollup":
            result = query.rollup_episodes(
                args.kind,
                since=since,
                until=until,
                match=args.match,
                top=args.top,
            )
        elif args.what == "outcomes":
            result = query.rollup_outcomes(
                args.group, since=since, until=until
            )
        elif args.what == "series":
            bucket = args.bucket or max((until - since) / 24.0, 1.0)
            result = [
                {"ts": ts, "episodes_per_min": rate}
                for ts, rate in query.episode_rate_series(
                    args.match or "*",
                    args.kind,
                    bucket_s=bucket,
                    since=since,
                    until=until,
                )
            ]
        elif args.what == "movers":
            if args.split is None:
                args.split = (since + until) / 2.0
            result = query.top_movers(
                args.kind,
                window_a=(since, args.split),
                window_b=(args.split, until),
                k=args.top or 10,
                match=args.match,
            )
        elif args.what == "qoe":
            if not args.metric:
                logger.error("qoe queries need --metric NAME")
                return 2
            bucket = args.bucket or max((until - since) / 24.0, 1.0)
            result = query.qoe_trend(
                args.metric, bucket_s=bucket, since=since, until=until
            )
        else:  # metrics
            result = [
                {"ts": ts, "value": value}
                for ts, value in query.metric_series(
                    args.match or "*", since=since, until=until
                )
            ]
        if args.json:
            print(_json.dumps(result, indent=2, sort_keys=True))
        elif isinstance(result, dict):
            for key, value in result.items():
                print(f"{key}: {value}")
        else:
            for row in result:
                if isinstance(row, dict):
                    print(
                        "  ".join(
                            f"{key}={value}" for key, value in row.items()
                        )
                    )
                else:
                    print(row)
    finally:
        store.close()
    return 0


def _cmd_store_alerts(args: argparse.Namespace) -> int:
    from repro.store import StoreQuery

    try:
        store = _open_store(args, create=False)
    except (TelemetryError, SchemaError) as exc:
        logger.error("%s", exc)
        return 1
    try:
        query = StoreQuery(store)
        if not args.rules:
            # No rule file: list the transitions already on record.
            recorded = query.alerts(
                since=args.since, until=args.until, rule=args.rule
            )
            if not recorded:
                print("no recorded alerts")
                return 0
            for entry in recorded:
                print(
                    f"[{entry['ts']:.0f}] {entry['severity']:<5} "
                    f"{entry['rule']} {entry['state']}: {entry['message']}"
                )
            return 0
        engine = api.store_alerts(
            args.rules, store=store if args.record else None
        )
        since, until = _store_range(args, query)
        if since is None:
            print("store is empty")
            return 0
        events = engine.evaluate_range(
            query, since=since, until=until, step_s=args.step
        )
        for event in events:
            print(
                f"[{event.ts:.0f}] {event.severity:<5} {event.rule} "
                f"{event.state}: {event.message}"
            )
        firing = engine.firing
        print(
            f"{len(events)} transition(s); "
            + (f"firing at end: {', '.join(firing)}" if firing else
               "nothing firing at end")
        )
    except ConfigError as exc:
        logger.error("%s", exc)
        return 1
    finally:
        store.close()
    return 0


def _cmd_store_report(args: argparse.Namespace) -> int:
    from repro.store import AlertEvent, StoreQuery, render_incident_report

    try:
        store = _open_store(args, create=False)
    except (TelemetryError, SchemaError) as exc:
        logger.error("%s", exc)
        return 1
    try:
        query = StoreQuery(store)
        recorded = query.alerts(rule=args.rule, state=args.state)
        if not recorded:
            logger.error(
                "no recorded alert matches"
                + (f" rule {args.rule!r}" if args.rule else "")
                + " — run `repro store alerts --rules FILE --record` first"
            )
            return 1
        entry = recorded[-1]  # newest transition wins
        event = AlertEvent(
            rule=str(entry["rule"]),
            state=str(entry["state"]),
            ts=float(entry["ts"]),
            signal=str(entry["signal"]),
            value=float(entry["value"]),
            threshold=float(entry["threshold"]),
            window_s=float(entry["window_s"]),
            severity=str(entry["severity"]),
            message=str(entry["message"]),
            labels=dict(entry["labels"]),
        )
        report = render_incident_report(event, query)
        if args.out:
            with open(args.out, "w") as handle:
                handle.write(report)
            print(f"wrote {args.out}")
        else:
            print(report)
    finally:
        store.close()
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args, create=False)
    except (TelemetryError, SchemaError) as exc:
        logger.error("%s", exc)
        return 1
    try:
        summary = store.compact(
            max_age_s=args.max_age_s, max_bytes=args.max_bytes
        )
        print(
            f"removed {summary['partitions_removed']} partition(s), "
            f"{summary['bytes_removed']} segment byte(s), "
            f"{summary['rows_deleted']} index row(s)"
        )
    finally:
        store.close()
    return 0


def _cmd_store_reindex(args: argparse.Namespace) -> int:
    try:
        store = _open_store(args, create=False)
    except (TelemetryError, SchemaError) as exc:
        logger.error("%s", exc)
        return 1
    try:
        counts = store.reindex()
        print(
            f"reindexed {counts['outcomes']} outcome(s), "
            f"{counts['snapshots']} snapshot(s), "
            f"{counts['metrics']} metric sample(s), "
            f"{counts['alerts']} alert(s), "
            f"{counts['trace_spans']} trace span(s)"
        )
    except (TelemetryError, SchemaError) as exc:
        logger.error("%s", exc)
        return 1
    finally:
        store.close()
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    with open(args.chains) as handle:
        text = handle.read()
    chains = parse_chains(text)
    print(generate_python_source(chains))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import report_from_files

    try:
        print(report_from_files(args.events))
    except FileNotFoundError as exc:
        logger.error("%s", exc)
        return 1
    except (OSError, ValueError, SchemaError) as exc:
        logger.error(
            "%s: unreadable event log: %s", " ".join(args.events), exc
        )
        return 1
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.api import store_trace
    from repro.obs.trace import render_trace_timeline

    try:
        spans = store_trace(
            args.store,
            campaign_id=args.campaign_id,
            trace_id=args.trace_id,
        )
    except (OSError, ReproError) as exc:
        logger.error("%s: %s", args.store, exc)
        return 1
    if not spans:
        selector = args.campaign_id or args.trace_id or "any"
        print(f"no trace spans in {args.store} for {selector}")
        return 1
    print(render_trace_timeline(spans, width=args.width))
    return 0


def _cmd_causal_bench(args: argparse.Namespace) -> int:
    from repro.causal import render_leaderboard

    matrix = get_preset(args.preset)
    if args.base_seed is not None:
        matrix = matrix.with_base_seed(args.base_seed)
    scenarios = matrix.expand()
    print(
        f"causal bench {matrix.name}: {len(scenarios)} sessions, "
        f"workers={args.workers}"
    )
    report = api.causal_bench(
        scenarios,
        backend=api.ProcessPoolBackend(args.workers),
        cache_dir=args.cache_dir,
        fail_fast=args.fail_fast,
    )
    # score_outcomes labels by what it was handed; restore the preset
    # name the expanded scenario list no longer carries.
    report = replace(report, campaign=matrix.name)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}")
    print()
    print(render_leaderboard(report))
    return 0


def _cmd_causal_score(args: argparse.Namespace) -> int:
    from repro.causal import render_leaderboard, score_outcomes

    try:
        outcomes = list(iter_outcomes(args.outcomes))
    except TelemetryError as exc:
        logger.error("%s", exc)
        return 1
    report = score_outcomes(outcomes, campaign=args.outcomes)
    if not report.n_labeled:
        print(
            f"{args.outcomes}: no outcome carries ground-truth labels "
            "(run an adversarial-preset campaign)"
        )
        return 1
    print(render_leaderboard(report))
    return 0


def _add_cluster_client_args(parser: argparse.ArgumentParser) -> None:
    """Auth/TLS options shared by every cluster-connecting command."""
    parser.add_argument(
        "--auth-token",
        default=None,
        help="shared cluster auth token presented at handshake "
        "(default: $REPRO_CLUSTER_TOKEN)",
    )
    parser.add_argument(
        "--tls",
        action="store_true",
        help="connect over TLS using the system trust store",
    )
    parser.add_argument(
        "--tls-ca",
        default=None,
        metavar="PEM",
        help="connect over TLS, trusting exactly this CA / self-signed "
        "coordinator certificate",
    )


def _add_profile_arg(parser: argparse.ArgumentParser) -> None:
    """`--profile FILE`: sampling wall-clock profiler around the command."""
    parser.add_argument(
        "--profile",
        dest="profile_out",
        default=None,
        metavar="FILE",
        help="write a sampling wall-clock profile of this command as "
        "collapsed stacks (flamegraph.pl / speedscope input)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Domino: cross-layer 5G VCA root-cause analysis",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        dest="log_verbose",
        help="more diagnostics on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        dest="log_quiet",
        help="only errors on stderr",
    )
    parser.add_argument(
        "--metrics-file",
        default=None,
        help="write a Prometheus-text metrics snapshot here when the "
        "command finishes (long-running commands flush periodically)",
    )
    parser.add_argument(
        "--events-file",
        default=None,
        help="append one versioned JSONL span event here per timed "
        "pipeline stage (summarize with `repro obs report`)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run a two-party call and write its telemetry"
    )
    simulate.add_argument(
        "--profile",
        default="tmobile_fdd",
        choices=sorted(CELL_PROFILES) + ["wired", "wifi"],
    )
    simulate.add_argument("--duration", type=float, default=30.0)
    simulate.add_argument("--seed", type=int, default=0)
    simulate.add_argument("--out", required=True)
    simulate.set_defaults(fn=_cmd_simulate)

    analyze = sub.add_parser("analyze", help="run Domino over a trace")
    analyze.add_argument("trace")
    analyze.add_argument("--chains", help="custom chain DSL file")
    analyze.add_argument("--window", type=float, default=5.0)
    analyze.add_argument("--step", type=float, default=0.5)
    analyze.add_argument("--limit", type=int, default=20)
    _add_profile_arg(analyze)
    analyze.set_defaults(fn=_cmd_analyze)

    report = sub.add_parser("report", help="QoE summary of a trace")
    report.add_argument("trace")
    report.set_defaults(fn=_cmd_report)

    codegen = sub.add_parser(
        "codegen", help="print the Python generated from a chain file"
    )
    codegen.add_argument("chains")
    codegen.set_defaults(fn=_cmd_codegen)

    fleet = sub.add_parser(
        "fleet", help="run a multi-session campaign and aggregate RCA"
    )
    fleet.add_argument("--preset", default="smoke", choices=sorted(PRESETS))
    fleet.add_argument("--workers", type=_positive_int, default=1)
    fleet.add_argument("--out", help="write per-session outcomes JSONL here")
    fleet.add_argument(
        "--trace-dir",
        help="also export each session's full telemetry as a JSONL shard",
    )
    fleet.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="override the preset's campaign base seed",
    )
    fleet.add_argument(
        "--cache-dir",
        default=".fleet-cache",
        help="per-scenario outcome cache (keyed on scenario fingerprint "
        "+ detector config hash); repeat runs skip simulation",
    )
    fleet.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the outcome cache",
    )
    fleet.add_argument(
        "--fail-fast",
        action="store_true",
        help="cancel queued scenarios as soon as one errors",
    )
    fleet.add_argument(
        "--dispatch",
        default="local",
        choices=("local", "cluster"),
        help="run scenarios in-process / process-pool (local) or "
        "serve them to connected `repro cluster worker` peers",
    )
    fleet.add_argument(
        "--bind",
        default="127.0.0.1",
        help="cluster coordinator bind address (dispatch=cluster)",
    )
    fleet.add_argument(
        "--port",
        type=int,
        default=0,
        help="cluster coordinator port (0 = ephemeral, printed at start)",
    )
    fleet.add_argument(
        "--min-workers",
        type=_positive_int,
        default=1,
        help="wait for this many workers before dispatching",
    )
    fleet.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write-ahead campaign journal (dispatch=cluster): an "
        "interrupted campaign resumes from its settled outcomes on "
        "the next run instead of starting over",
    )
    fleet.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="also ingest the campaign's outcomes into the historical "
        "store at DIR (created if missing; query with `repro store`); "
        "with --dispatch cluster the campaign's distributed-trace "
        "spans land there too (`repro obs trace`)",
    )
    fleet.add_argument(
        "--store-at",
        type=float,
        default=None,
        metavar="TS",
        help="store ingest timestamp, epoch seconds (default: now)",
    )
    _add_profile_arg(fleet)
    fleet.set_defaults(fn=_cmd_fleet)

    fleet_report = sub.add_parser(
        "fleet-report", help="re-render the rollup from saved outcomes"
    )
    fleet_report.add_argument("outcomes")
    fleet_report.set_defaults(fn=_cmd_fleet_report)

    live = sub.add_parser(
        "live",
        help="run the live RCA service over N concurrent sessions",
    )
    live.add_argument(
        "--sessions", type=_positive_int, default=4, help="concurrent sessions"
    )
    live.add_argument(
        "--duration",
        type=float,
        default=20.0,
        help="telemetry seconds per session",
    )
    live.add_argument(
        "--preset",
        default="smoke",
        choices=sorted(PRESETS),
        help="scenario preset the sessions cycle through",
    )
    live.add_argument(
        "--source",
        default="replay",
        choices=("replay", "sim"),
        help="replay pre-simulated traces, or drive simulators live",
    )
    live.add_argument(
        "--speed",
        type=float,
        default=0.0,
        help="realtime multiplier per feed (0 = as fast as possible)",
    )
    live.add_argument(
        "--backpressure",
        default="block",
        choices=("block", "drop_oldest"),
        help="full-queue policy: pause the feed, or drop oldest "
        "batches and count them as lag",
    )
    live.add_argument(
        "--queue-batches",
        type=_positive_int,
        default=64,
        help="per-session ingest queue bound",
    )
    live.add_argument(
        "--snapshot", help="write each fleet snapshot here (for `watch`)"
    )
    live.add_argument(
        "--snapshot-every", type=float, default=1.0, help="seconds"
    )
    live.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="evict sessions idle longer than this many seconds",
    )
    live.add_argument("--base-seed", type=int, default=None)
    live.add_argument(
        "--quiet", action="store_true", help="suppress per-snapshot lines"
    )
    live.add_argument(
        "--forward",
        type=_parse_address,
        metavar="HOST:PORT",
        help="also ship every detection batch to a cluster "
        "coordinator's live plane (fleet-wide `repro watch`)",
    )
    live.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="tee every fleet snapshot into the historical store at "
        "DIR (created if missing)",
    )
    _add_cluster_client_args(live)
    _add_profile_arg(live)
    live.set_defaults(fn=_cmd_live)

    watch = sub.add_parser(
        "watch", help="render a live-service snapshot as a dashboard"
    )
    watch.add_argument(
        "snapshot",
        nargs="?",
        default=None,
        help="snapshot JSON `repro live` or a coordinator wrote",
    )
    watch.add_argument(
        "--connect",
        type=_parse_address,
        metavar="HOST:PORT",
        help="stream snapshots from a cluster coordinator instead of "
        "reading a file",
    )
    watch.add_argument(
        "--follow",
        action="store_true",
        help="keep re-rendering, with a per-chain trend sparkline over "
        "recent snapshots",
    )
    watch.add_argument("--interval", type=float, default=1.0)
    watch.add_argument(
        "--rules",
        default=None,
        metavar="FILE",
        help="evaluate these alert rules live against each snapshot "
        "and render an Alerts pane (firing/resolved transitions)",
    )
    watch.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="with --rules: also record alert transitions durably in "
        "the store at DIR",
    )
    _add_cluster_client_args(watch)
    watch.set_defaults(fn=_cmd_watch)

    cluster = sub.add_parser(
        "cluster", help="multi-host distributed RCA (coordinator/worker)"
    )
    csub = cluster.add_subparsers(dest="cluster_command", required=True)

    coordinator = csub.add_parser(
        "coordinator",
        help="serve workers and live supervisors; optionally run a "
        "campaign preset",
    )
    coordinator.add_argument("--bind", default="127.0.0.1")
    coordinator.add_argument(
        "--port",
        type=int,
        default=7077,
        help="listen port (0 = ephemeral, printed at start)",
    )
    coordinator.add_argument(
        "--preset",
        default=None,
        choices=sorted(PRESETS),
        help="run this campaign over connected workers, then exit "
        "(omit to serve the live plane until Ctrl-C)",
    )
    coordinator.add_argument("--base-seed", type=int, default=None)
    coordinator.add_argument(
        "--min-workers", type=_positive_int, default=1
    )
    coordinator.add_argument(
        "--out", help="write per-session outcomes JSONL here"
    )
    coordinator.add_argument(
        "--trace-dir",
        help="ask workers to export telemetry shards (worker-local path)",
    )
    coordinator.add_argument(
        "--cache-dir",
        default=".fleet-cache",
        help="ask workers to cache outcomes (worker-local path)",
    )
    coordinator.add_argument("--no-cache", action="store_true")
    coordinator.add_argument("--fail-fast", action="store_true")
    coordinator.add_argument(
        "--heartbeat", type=float, default=2.0, help="seconds"
    )
    coordinator.add_argument(
        "--worker-timeout",
        type=float,
        default=None,
        help="declare a silent worker dead after this many seconds "
        "(default 5x heartbeat) and requeue its scenarios",
    )
    coordinator.add_argument(
        "--backpressure",
        default="block",
        choices=("block", "drop_oldest"),
        help="live-plane ingest policy when the fold queue is full",
    )
    coordinator.add_argument(
        "--snapshot", help="write fleet snapshots here (for `watch`)"
    )
    coordinator.add_argument(
        "--snapshot-every", type=float, default=1.0, help="seconds"
    )
    coordinator.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="tee every fleet snapshot into the historical store at "
        "DIR (created if missing)",
    )
    coordinator.add_argument(
        "--journal",
        default=None,
        metavar="FILE",
        help="write-ahead campaign journal: replayed on start so "
        "campaigns interrupted by a crash resume from their settled "
        "outcomes",
    )
    coordinator.add_argument(
        "--auth-token",
        default=None,
        help="require this token from every connecting peer "
        "(default: $REPRO_CLUSTER_TOKEN)",
    )
    coordinator.add_argument(
        "--tls-cert",
        default=None,
        metavar="PEM",
        help="serve TLS with this certificate (requires --tls-key)",
    )
    coordinator.add_argument(
        "--tls-key",
        default=None,
        metavar="PEM",
        help="private key for --tls-cert",
    )
    coordinator.set_defaults(fn=_cmd_cluster_coordinator)

    worker = csub.add_parser(
        "worker", help="run dispatched scenarios for a coordinator"
    )
    worker.add_argument(
        "--connect",
        required=True,
        type=_parse_address,
        metavar="HOST:PORT",
        help="coordinator address",
    )
    worker.add_argument(
        "--slots",
        type=_positive_int,
        default=1,
        help="concurrent scenarios (process-pool size)",
    )
    worker.add_argument("--name", default=None)
    worker.add_argument(
        "--cache-dir",
        default=None,
        help="override the coordinator's cache dir with a local one",
    )
    worker.add_argument(
        "--trace-dir",
        default=None,
        help="override the coordinator's trace dir with a local one",
    )
    worker.add_argument(
        "--connect-timeout", type=float, default=20.0, help="seconds"
    )
    worker.add_argument(
        "--reconnect",
        action="store_true",
        help="redial a lost coordinator (jittered exponential "
        "backoff) instead of exiting",
    )
    worker.add_argument(
        "--reconnect-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="give up redialing after this long per outage "
        "(default: keep trying until stopped)",
    )
    _add_cluster_client_args(worker)
    worker.set_defaults(fn=_cmd_cluster_worker)

    queue = csub.add_parser(
        "queue",
        help="submit a campaign preset to a standing coordinator's "
        "queue",
    )
    queue.add_argument(
        "--connect",
        required=True,
        type=_parse_address,
        metavar="HOST:PORT",
        help="coordinator address",
    )
    queue.add_argument(
        "--preset", default="smoke", choices=sorted(PRESETS)
    )
    queue.add_argument("--base-seed", type=int, default=None)
    queue.add_argument(
        "--campaign-id",
        default=None,
        help="explicit campaign id (default: deterministic digest of "
        "the scenarios)",
    )
    queue.add_argument(
        "--trace-dir",
        help="ask workers to export telemetry shards (worker-local "
        "path)",
    )
    queue.add_argument(
        "--cache-dir",
        default=".fleet-cache",
        help="ask workers to cache outcomes (worker-local path)",
    )
    queue.add_argument("--no-cache", action="store_true")
    queue.add_argument("--fail-fast", action="store_true")
    queue.add_argument(
        "--wait",
        action="store_true",
        help="stay connected until the campaign finishes, then fetch "
        "and report its outcomes",
    )
    queue.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="progress poll interval with --wait (seconds)",
    )
    queue.add_argument(
        "--out", help="write fetched outcomes JSONL here (--wait only)"
    )
    _add_cluster_client_args(queue)
    queue.set_defaults(fn=_cmd_cluster_queue)

    status = csub.add_parser(
        "status", help="show a coordinator's campaign queue"
    )
    status.add_argument(
        "--connect",
        required=True,
        type=_parse_address,
        metavar="HOST:PORT",
    )
    _add_cluster_client_args(status)
    status.set_defaults(fn=_cmd_cluster_status)

    cancel = csub.add_parser(
        "cancel", help="cancel an active campaign on a coordinator"
    )
    cancel.add_argument("campaign_id")
    cancel.add_argument(
        "--connect",
        required=True,
        type=_parse_address,
        metavar="HOST:PORT",
    )
    _add_cluster_client_args(cancel)
    cancel.set_defaults(fn=_cmd_cluster_cancel)

    obs = sub.add_parser(
        "obs",
        help="observability: summarize span-event traces, render "
        "distributed traces",
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = osub.add_parser(
        "report",
        help="per-stage time breakdown of JSONL span-event logs "
        "(written via --events-file); multiple paths/globs merge",
    )
    obs_report.add_argument(
        "events",
        nargs="+",
        help="JSONL span-event log(s); shell-style globs are expanded",
    )
    obs_report.set_defaults(fn=_cmd_obs_report)

    obs_trace = osub.add_parser(
        "trace",
        help="render a campaign's end-to-end distributed trace from a "
        "historical store (one stitched timeline per scenario)",
    )
    obs_trace.add_argument(
        "campaign_id",
        nargs="?",
        default=None,
        help="campaign id (glob ok; default: every stored trace)",
    )
    obs_trace.add_argument(
        "--store",
        required=True,
        metavar="DIR",
        help="historical store directory holding the trace spans",
    )
    obs_trace.add_argument(
        "--trace-id",
        default=None,
        help="select one trace by id instead of by campaign",
    )
    obs_trace.add_argument(
        "--width",
        type=int,
        default=48,
        help="timeline bar width in characters (default 48)",
    )
    obs_trace.set_defaults(fn=_cmd_obs_trace)

    causal = sub.add_parser(
        "causal",
        help="confounder-aware causal validation: benchmark every "
        "detector against simulator ground truth",
    )
    causal_sub = causal.add_subparsers(dest="causal_command", required=True)
    causal_bench = causal_sub.add_parser(
        "bench",
        help="run a confounder campaign and print the ground-truth "
        "leaderboard (F1 per detector, confusion per axis)",
    )
    causal_bench.add_argument(
        "--preset",
        default="adversarial",
        choices=sorted(PRESETS),
        help="scenario preset (default: adversarial)",
    )
    causal_bench.add_argument(
        "--workers",
        type=_positive_int,
        default=os.cpu_count() or 4,
        help="parallel session workers (default: CPU count)",
    )
    causal_bench.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="re-seed the preset's scenario matrix",
    )
    causal_bench.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="reuse cached per-scenario outcomes from DIR",
    )
    causal_bench.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the scored causal_report artifact as JSON",
    )
    causal_bench.add_argument(
        "--fail-fast",
        action="store_true",
        help="abort the campaign on the first failed scenario",
    )
    causal_bench.set_defaults(fn=_cmd_causal_bench)

    causal_score = causal_sub.add_parser(
        "score",
        help="re-score a saved campaign JSONL (fleet --out) that "
        "carries ground-truth labels",
    )
    causal_score.add_argument("outcomes", help="campaign outcomes JSONL")
    causal_score.set_defaults(fn=_cmd_causal_score)

    store = sub.add_parser(
        "store",
        help="historical RCA store: ingest, query, alerts, reports",
    )
    ssub = store.add_subparsers(dest="store_command", required=True)

    def _store_dir_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("store_dir", help="store directory")

    def _store_range_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--since",
            type=float,
            default=None,
            help="range start, epoch seconds (default: oldest row)",
        )
        p.add_argument(
            "--until",
            type=float,
            default=None,
            help="range end, epoch seconds (default: newest row)",
        )

    ingest = ssub.add_parser(
        "ingest",
        help="ingest campaign outcomes / snapshots / metric snapshots",
    )
    _store_dir_arg(ingest)
    ingest.add_argument(
        "outcomes",
        nargs="*",
        help="fleet outcome JSONL files (`repro fleet --out`)",
    )
    ingest.add_argument(
        "--prom",
        action="append",
        default=[],
        metavar="FILE",
        help="Prometheus-text metrics snapshot (--metrics-file output)",
    )
    ingest.add_argument(
        "--snapshot",
        dest="snapshot_file",
        action="append",
        default=[],
        metavar="FILE",
        help="fleet snapshot artifact (`repro live --snapshot` output)",
    )
    ingest.add_argument(
        "--at",
        type=float,
        default=None,
        help="ingest timestamp, epoch seconds (default: now); pins "
        "partition assignment for reproducible windows",
    )
    ingest.add_argument(
        "--strict",
        action="store_true",
        help="fail on the first undecodable outcome line instead of "
        "skip-and-count (fleet-report tolerant semantics)",
    )
    ingest.set_defaults(fn=_cmd_store_ingest)

    query = ssub.add_parser(
        "query", help="rollups, series, movers, QoE trends"
    )
    _store_dir_arg(query)
    query.add_argument(
        "what",
        choices=(
            "totals",
            "rollup",
            "outcomes",
            "series",
            "movers",
            "qoe",
            "metrics",
        ),
        help="totals: row counts; rollup: per-name episode totals; "
        "outcomes: per-profile/impairment rollup; series: episode "
        "rate over time; movers: top-k rate changes between the two "
        "halves of the range (see --split); qoe: percentile trend; "
        "metrics: stored metric samples",
    )
    _store_range_args(query)
    query.add_argument(
        "--kind",
        default="chain",
        choices=("chain", "cause", "consequence"),
        help="episode kind for rollup/series/movers",
    )
    query.add_argument(
        "--match", default=None, help="glob over chain/metric names"
    )
    query.add_argument(
        "--group",
        default="profile",
        choices=("profile", "impairment", "scenario"),
        help="grouping for `outcomes`",
    )
    query.add_argument(
        "--top", type=int, default=None, help="limit rows (movers: k)"
    )
    query.add_argument(
        "--bucket",
        type=float,
        default=None,
        help="bucket width in seconds for series/qoe "
        "(default: range/24)",
    )
    query.add_argument(
        "--split",
        type=float,
        default=None,
        help="movers: boundary between window A and window B "
        "(default: range midpoint)",
    )
    query.add_argument(
        "--metric", default=None, help="QoE metric name for `qoe`"
    )
    query.add_argument(
        "--json", action="store_true", help="emit JSON instead of text"
    )
    query.set_defaults(fn=_cmd_store_query)

    alerts = ssub.add_parser(
        "alerts",
        help="evaluate alert rules over history, or list recorded "
        "transitions",
    )
    _store_dir_arg(alerts)
    alerts.add_argument(
        "--rules",
        default=None,
        metavar="FILE",
        help="TOML/JSON rule file to evaluate (omit to list recorded "
        "alerts)",
    )
    _store_range_args(alerts)
    alerts.add_argument(
        "--step",
        type=float,
        default=None,
        help="evaluation stride in seconds (default: each rule's "
        "window width)",
    )
    alerts.add_argument(
        "--record",
        action="store_true",
        help="record emitted transitions durably in the store",
    )
    alerts.add_argument(
        "--rule", default=None, help="filter recorded alerts by rule name"
    )
    alerts.set_defaults(fn=_cmd_store_alerts)

    report_cmd = ssub.add_parser(
        "report",
        help="render a Markdown incident report for a recorded alert",
    )
    _store_dir_arg(report_cmd)
    report_cmd.add_argument(
        "--rule", default=None, help="rule name (default: newest alert)"
    )
    report_cmd.add_argument(
        "--state",
        default=None,
        choices=("firing", "resolved"),
        help="pick the newest transition with this state",
    )
    report_cmd.add_argument(
        "--out", default=None, help="write the report here (default: stdout)"
    )
    report_cmd.set_defaults(fn=_cmd_store_report)

    compact = ssub.add_parser(
        "compact", help="retention: drop oldest partitions by age/size"
    )
    _store_dir_arg(compact)
    compact.add_argument(
        "--max-age-s",
        type=float,
        default=None,
        help="drop partitions entirely older than this many seconds",
    )
    compact.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="drop oldest partitions until segments fit this many bytes",
    )
    compact.set_defaults(fn=_cmd_store_compact)

    reindex = ssub.add_parser(
        "reindex", help="rebuild the sqlite index from the JSONL segments"
    )
    _store_dir_arg(reindex)
    reindex.set_defaults(fn=_cmd_store_reindex)
    return parser


def _install_sigterm_exit():
    """Make SIGTERM unwind ``main()``'s finally instead of killing us.

    The default SIGTERM disposition terminates the process without
    running any ``finally`` — so a supervised service (standing
    coordinator, `watch --follow`, a drained worker's parent) would
    lose its ``--metrics-file`` / ``--events-file`` flush.  Raising
    ``SystemExit(143)`` (128 + SIGTERM) preserves the conventional
    exit status while letting the flush path run.  Worker drain is
    unaffected: its asyncio loop installs its own handler while
    running.  Returns the previous handler, or None when signals are
    unavailable (non-main thread, exotic platform).
    """
    import signal

    def _exit(signum, frame):
        raise SystemExit(143)

    try:
        return signal.signal(signal.SIGTERM, _exit)
    except (ValueError, OSError, AttributeError):
        return None


def main(argv: Optional[List[str]] = None) -> int:
    import signal

    from repro import obs

    args = build_parser().parse_args(argv)
    setup_logging(verbose=args.log_verbose, quiet=args.log_quiet)
    previous_sigterm = _install_sigterm_exit()
    sink = None
    previous_sink = None
    if args.events_file:
        sink = obs.JsonlSink(args.events_file)
        previous_sink = obs.set_sink(sink)
    # Long-running service commands also flush periodically (the live
    # service's metrics_path); every command flushes a final snapshot.
    if args.metrics_file and getattr(args, "fn", None) is _cmd_live:
        args.live_metrics_file = args.metrics_file
    try:
        with obs.profile_to_file(getattr(args, "profile_out", None)):
            return args.fn(args)
    finally:
        if sink is not None:
            obs.set_sink(previous_sink)
            sink.close()
        if args.metrics_file:
            obs.write_metrics_file(obs.get_registry(), args.metrics_file)
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)


if __name__ == "__main__":
    sys.exit(main())
