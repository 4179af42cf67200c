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
from repro.errors import ConfigError, ReproError
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


def _cache_dir(args: argparse.Namespace) -> Optional[str]:
    """``--cache-dir`` unless ``--no-cache``."""
    return None if args.no_cache else args.cache_dir


def _preset_scenarios(args: argparse.Namespace):
    """``--preset`` (re-seeded by ``--base-seed``) → (matrix, scenarios)."""
    matrix = get_preset(args.preset)
    if args.base_seed is not None:
        matrix = matrix.with_base_seed(args.base_seed)
    return matrix, matrix.expand()


def _cmd_fleet(args: argparse.Namespace) -> int:
    matrix, scenarios = _preset_scenarios(args)
    if args.out:
        # Fail on an unwritable destination now, not after the campaign.
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        with open(args.out, "a"):
            pass
    cache_dir = _cache_dir(args)
    cluster = args.dispatch == "cluster"
    print(
        f"campaign {matrix.name}: {len(scenarios)} sessions, "
        + (
            f"dispatch=cluster ({args.bind}:{args.port})"
            if cluster
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

    if cluster:
        from repro.cluster.journal import campaign_id_for

        # The id the coordinator journals and traces the campaign
        # under (`repro obs trace <id>`).
        print(f"campaign id {campaign_id_for(scenarios, None)}", flush=True)
        backend = api.ClusterBackend(
            args.bind,
            args.port,
            on_listening=listening,
            journal_path=args.journal,
            auth_token=_cluster_token(args),
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
    # and a count shortfall — report what survived; the tolerant read
    # itself warns and counts what it skipped.
    print(
        render_fleet_report(
            FleetAggregate(iter_outcomes(args.outcomes, tolerant=True))
        )
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
            metrics_path=args.metrics_file,
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
    from repro.fleet.scenarios import derive_seed

    matrix, base = _preset_scenarios(args)
    specs = []
    for index in range(args.sessions):
        spec = base[index % len(base)]
        name = f"live/{index}/{spec.profile}/{spec.impairment.name}"
        specs.append(
            replace(
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
    import asyncio
    import time

    from repro.live.aggregator import FleetSnapshot
    from repro.live.dashboard import SnapshotHistory, render_snapshot, render_trend

    if args.snapshot is None and not args.connect:
        raise ConfigError("need a snapshot file or --connect HOST:PORT")
    history = SnapshotHistory() if args.follow else None
    engine = None
    alert_store = None
    recent_alerts: list = []
    if args.rules:
        if args.store:
            alert_store = api.store_open(args.store)
        engine = api.store_alerts(args.rules, store=alert_store)

    def show(snapshot: FleetSnapshot) -> None:
        print(render_snapshot(snapshot))
        if history is not None:
            history.add(snapshot)
            print()
            print(render_trend(history))
        if engine is not None:
            from repro.store import render_alerts_pane

            recent_alerts.extend(
                engine.observe_snapshot(snapshot, ts=time.time())
            )
            print()
            print(render_alerts_pane(engine.firing, recent_alerts))

    if args.connect:
        # Stream SNAPSHOT frames straight off the coordinator socket —
        # the fleet-wide dashboard with no shared filesystem.
        host, port = args.connect
        waiting = f"coordinator at {host}:{port} unreachable; retrying ..."

        async def attempt():
            async for snapshot in api.watch(
                host,
                port,
                auth_token=_cluster_token(args),
                ssl_context=_client_ssl(args),
            ):
                yield snapshot
            raise ConnectionError(
                f"coordinator at {host}:{port} closed the snapshot stream"
            )

    else:
        waiting = f"waiting for {args.snapshot} ..."

        async def attempt():
            yield api.read_snapshot(args.snapshot)

    async def snapshots():
        """Each snapshot the source gives.  Under --follow, a file not
        written yet (the service writes its first snapshot after one
        interval) or a restarting coordinator is waited out; a one-shot
        watch fails through main()."""
        while True:
            try:
                async for snapshot in attempt():
                    yield snapshot
            except OSError:
                if not args.follow:
                    raise
                print(waiting, file=sys.stderr, flush=True)
            await asyncio.sleep(args.interval)

    async def _watch() -> None:
        async for snapshot in snapshots():
            show(snapshot)
            if not args.follow:
                return
            print()

    # An incompatible coordinator or snapshot (refused handshake,
    # malformed frame, mismatched schema stamp) raises a ReproError
    # that no retry heals: it ends the command through main().
    asyncio.run(_watch())
    return 0


def _cmd_cluster_coordinator(args: argparse.Namespace) -> int:
    """Standing coordinator: the live plane and the campaign queue
    (``repro cluster queue|status|cancel``) until Ctrl-C."""
    import asyncio

    from repro.cluster import ClusterCoordinator

    if bool(args.tls_cert) != bool(args.tls_key):
        logger.error("--tls-cert and --tls-key must be given together")
        return 2
    ssl_context = None
    if args.tls_cert:
        from repro.cluster.protocol import server_ssl_context

        ssl_context = server_ssl_context(args.tls_cert, args.tls_key)

    async def _serve() -> None:
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
            # With a journal, campaigns interrupted by a previous crash
            # pick themselves back up first.
            if args.journal:
                for cid in await coordinator.resume_pending_campaigns():
                    print(f"resuming campaign {cid} from journal", flush=True)
            print(
                "serving live plane and campaign queue (Ctrl-C to stop)",
                flush=True,
            )
            while True:
                await asyncio.sleep(3600)
        finally:
            await coordinator.close()

    try:
        asyncio.run(_serve())
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


def _run_control(args: argparse.Namespace, request) -> int:
    """Run ``await request(control)`` on a control connection to
    ``--connect``."""
    import asyncio

    from repro.cluster import CoordinatorControl

    host, port = args.connect

    async def _go() -> int:
        async with CoordinatorControl(
            host,
            port,
            auth_token=_cluster_token(args),
            ssl_context=_client_ssl(args),
        ) as control:
            return await request(control)

    return asyncio.run(_go())


def _cmd_cluster_queue(args: argparse.Namespace) -> int:
    import asyncio

    _, scenarios = _preset_scenarios(args)

    async def _queue(control) -> int:
        cid = await control.submit(
            scenarios,
            campaign_id=args.campaign_id,
            trace_dir=args.trace_dir,
            cache_dir=_cache_dir(args),
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
        print(render_fleet_report(FleetAggregate.from_outcomes(outcomes)))
        return 0 if result["state"] == "completed" else 1

    return _run_control(args, _queue)


def _cmd_cluster_status(args: argparse.Namespace) -> int:
    async def _status(control) -> int:
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

    return _run_control(args, _status)


def _cmd_cluster_cancel(args: argparse.Namespace) -> int:
    async def _cancel(control) -> int:
        if await control.cancel(args.campaign_id):
            print(f"cancelled campaign {args.campaign_id}")
            return 0
        print(
            f"campaign {args.campaign_id} is not active "
            f"(unknown or already finished)",
            file=sys.stderr,
        )
        return 1

    return _run_control(args, _cancel)


def _cmd_store_ingest(args: argparse.Namespace) -> int:
    if not (args.outcomes or args.prom or args.snapshot_file):
        logger.error(
            "nothing to ingest: give outcome files, --prom, or --snapshot"
        )
        return 2
    with api.store_open(args.store_dir) as store:
        for path in args.outcomes:
            stats = store.ingest_outcomes_file(
                path, ts=args.at, tolerant=not args.strict
            )
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
            snapshot = api.read_snapshot(path)
            store.ingest_snapshot(snapshot, ts=args.at)
            print(f"{path}: ingested fleet snapshot #{snapshot.seq}")
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
    from repro.store import StoreQuery

    with api.store_open(args.store_dir, create=False) as store:
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
        print(json.dumps(result, indent=2, sort_keys=True))
    elif isinstance(result, dict):
        for key, value in result.items():
            print(f"{key}: {value}")
    else:
        for row in result:
            if isinstance(row, dict):
                print("  ".join(f"{key}={value}" for key, value in row.items()))
            else:
                print(row)
    return 0


def _cmd_store_alerts(args: argparse.Namespace) -> int:
    from repro.store import StoreQuery

    engine = None
    with api.store_open(args.store_dir, create=False) as store:
        query = StoreQuery(store)
        if not args.rules:
            # No rule file: list the transitions already on record.
            events = query.alerts(
                since=args.since, until=args.until, rule=args.rule
            )
            if not events:
                print("no recorded alerts")
        else:
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
    if engine is not None:
        firing = engine.firing
        print(
            f"{len(events)} transition(s); "
            + (f"firing at end: {', '.join(firing)}" if firing else
               "nothing firing at end")
        )
    return 0


def _cmd_store_report(args: argparse.Namespace) -> int:
    from repro.store import StoreQuery, render_incident_report

    with api.store_open(args.store_dir, create=False) as store:
        query = StoreQuery(store)
        recorded = query.alerts(rule=args.rule, state=args.state)
        if not recorded:
            logger.error(
                "no recorded alert matches"
                + (f" rule {args.rule!r}" if args.rule else "")
                + " — run `repro store alerts --rules FILE --record` first"
            )
            return 1
        # The newest transition wins.
        report = render_incident_report(recorded[-1], query)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(report)
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_store_compact(args: argparse.Namespace) -> int:
    with api.store_open(args.store_dir, create=False) as store:
        summary = store.compact(
            max_age_s=args.max_age_s, max_bytes=args.max_bytes
        )
    print(
        f"removed {summary['partitions_removed']} partition(s), "
        f"{summary['bytes_removed']} segment byte(s), "
        f"{summary['rows_deleted']} index row(s)"
    )
    return 0


def _cmd_store_reindex(args: argparse.Namespace) -> int:
    with api.store_open(args.store_dir, create=False) as store:
        counts = store.reindex()
    print(
        f"reindexed {counts['outcomes']} outcome(s), "
        f"{counts['snapshots']} snapshot(s), "
        f"{counts['metrics']} metric sample(s), "
        f"{counts['alerts']} alert(s), "
        f"{counts['trace_spans']} trace span(s)"
    )
    return 0


def _cmd_codegen(args: argparse.Namespace) -> int:
    with open(args.chains) as handle:
        text = handle.read()
    chains = parse_chains(text)
    print(generate_python_source(chains))
    return 0


def _cmd_obs_report(args: argparse.Namespace) -> int:
    from repro.obs import report_from_files

    print(report_from_files(args.events))
    return 0


def _cmd_obs_trace(args: argparse.Namespace) -> int:
    from repro.api import store_trace
    from repro.obs.trace import render_trace_timeline

    spans = store_trace(
        args.store, campaign_id=args.campaign_id, trace_id=args.trace_id
    )
    if not spans:
        selector = args.campaign_id or args.trace_id or "any"
        print(f"no trace spans in {args.store} for {selector}")
        return 1
    print(render_trace_timeline(spans, width=args.width))
    return 0


def _cmd_causal_bench(args: argparse.Namespace) -> int:
    from repro.causal import render_leaderboard

    matrix, scenarios = _preset_scenarios(args)
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

    outcomes = list(iter_outcomes(args.outcomes))
    report = score_outcomes(outcomes, campaign=args.outcomes)
    if not report.n_labeled:
        print(
            f"{args.outcomes}: no outcome carries ground-truth labels "
            "(run an adversarial-preset campaign)"
        )
        return 1
    print(render_leaderboard(report))
    return 0


def _add_connect_arg(
    parser: argparse.ArgumentParser,
    *,
    required: bool = True,
    help: str = "coordinator address",
) -> None:
    """``--connect HOST:PORT``: the coordinator a command dials."""
    parser.add_argument(
        "--connect",
        required=required,
        type=_parse_address,
        metavar="HOST:PORT",
        help=help,
    )


def _add_auth_token_arg(parser: argparse.ArgumentParser) -> None:
    """``--auth-token``, read through :func:`_cluster_token`."""
    parser.add_argument(
        "--auth-token",
        default=None,
        help="shared cluster auth token: presented at handshake, or "
        "required of every peer by a coordinator "
        "(default: $REPRO_CLUSTER_TOKEN)",
    )


def _add_cluster_client_args(parser: argparse.ArgumentParser) -> None:
    """Auth/TLS options shared by every cluster-connecting command."""
    _add_auth_token_arg(parser)
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


def _add_preset_args(
    parser: argparse.ArgumentParser, default: str = "smoke"
) -> None:
    """``--preset``/``--base-seed``, read through
    :func:`_preset_scenarios`."""
    parser.add_argument(
        "--preset",
        default=default,
        choices=sorted(PRESETS),
        help=f"scenario preset (default: {default})",
    )
    parser.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="re-seed the preset's scenario matrix",
    )


def _add_campaign_run_args(parser: argparse.ArgumentParser) -> None:
    """Outputs and outcome cache of one campaign run; the cache pair is
    read through :func:`_cache_dir`.  On cluster workers the trace and
    cache directories are worker-local paths."""
    parser.add_argument("--out", help="write per-session outcomes JSONL here")
    parser.add_argument(
        "--trace-dir",
        help="also export each session's full telemetry as a JSONL shard",
    )
    parser.add_argument(
        "--cache-dir",
        default=".fleet-cache",
        help="per-scenario outcome cache (keyed on scenario fingerprint "
        "+ detector config hash); repeat runs skip simulation",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="ignore and do not update the outcome cache",
    )
    parser.add_argument(
        "--fail-fast",
        action="store_true",
        help="cancel queued scenarios as soon as one errors",
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
    _add_preset_args(fleet)
    fleet.add_argument("--workers", type=_positive_int, default=1)
    _add_campaign_run_args(fleet)
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
    _add_preset_args(live)
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
    _add_connect_arg(
        watch,
        required=False,
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
        help="standing server for workers, live supervisors and the "
        "campaign queue (one-shot campaigns: `fleet --dispatch cluster`)",
    )
    coordinator.add_argument("--bind", default="127.0.0.1")
    coordinator.add_argument(
        "--port",
        type=int,
        default=7077,
        help="listen port (0 = ephemeral, printed at start)",
    )
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
    _add_auth_token_arg(coordinator)
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
    _add_connect_arg(worker)
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
        "queue (--trace-dir/--cache-dir are paths on the workers)",
    )
    _add_connect_arg(queue)
    _add_preset_args(queue)
    queue.add_argument(
        "--campaign-id",
        default=None,
        help="explicit campaign id (default: deterministic digest of "
        "the scenarios)",
    )
    _add_campaign_run_args(queue)
    queue.add_argument(
        "--wait",
        action="store_true",
        help="stay connected until the campaign finishes, then fetch "
        "and report its outcomes (and write --out)",
    )
    queue.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="progress poll interval with --wait (seconds)",
    )
    _add_cluster_client_args(queue)
    queue.set_defaults(fn=_cmd_cluster_queue)

    status = csub.add_parser(
        "status", help="show a coordinator's campaign queue"
    )
    _add_connect_arg(status)
    _add_cluster_client_args(status)
    status.set_defaults(fn=_cmd_cluster_status)

    cancel = csub.add_parser(
        "cancel", help="cancel an active campaign on a coordinator"
    )
    cancel.add_argument("campaign_id")
    _add_connect_arg(cancel)
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
    _add_preset_args(causal_bench, default="adversarial")
    causal_bench.add_argument(
        "--workers",
        type=_positive_int,
        default=os.cpu_count() or 4,
        help="parallel session workers (default: CPU count)",
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
    """Run one command; a :class:`ReproError` or :class:`OSError` it
    raises is logged and exits 1."""
    import signal

    from repro import obs

    args = build_parser().parse_args(argv)
    repro_logger = get_logger()
    previous_logging = (
        repro_logger.level,
        repro_logger.propagate,
        list(repro_logger.handlers),
    )
    setup_logging(verbose=args.log_verbose, quiet=args.log_quiet)
    previous_sigterm = _install_sigterm_exit()
    sink = None
    previous_sink = None
    if args.events_file:
        sink = obs.JsonlSink(args.events_file)
        previous_sink = obs.set_sink(sink)
    try:
        with obs.profile_to_file(getattr(args, "profile_out", None)):
            return args.fn(args)
    except (ReproError, OSError) as exc:
        logger.error("%s", exc)
        return 1
    finally:
        if sink is not None:
            obs.set_sink(previous_sink)
            sink.close()
        if args.metrics_file:
            obs.write_metrics_file(obs.get_registry(), args.metrics_file)
        if previous_sigterm is not None:
            signal.signal(signal.SIGTERM, previous_sigterm)
        # Hand the "repro" logger back as found, so an in-process run
        # leaves no handler bound to this call's stderr.
        level, propagate, handlers = previous_logging
        repro_logger.setLevel(level)
        repro_logger.propagate = propagate
        for handler in repro_logger.handlers[:]:
            if handler not in handlers:
                repro_logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
