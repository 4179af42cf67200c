"""The command-line interface."""

import pytest

from repro.cli import main
from repro.telemetry.io import load_bundle, save_bundle


@pytest.fixture()
def trace_path(tmp_path, private_bundle):
    path = str(tmp_path / "trace.jsonl")
    save_bundle(private_bundle, path)
    return path


def test_simulate_writes_trace(tmp_path, capsys):
    out = str(tmp_path / "sim.jsonl")
    code = main(
        [
            "simulate",
            "--profile",
            "wired",
            "--duration",
            "5",
            "--seed",
            "3",
            "--out",
            out,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "wrote" in captured
    bundle = load_bundle(out)
    assert bundle.duration_us == 5_000_000
    assert len(bundle.packets) > 100


def test_simulate_cellular_profile(tmp_path):
    out = str(tmp_path / "cell.jsonl")
    code = main(
        [
            "simulate",
            "--profile",
            "mosolabs",
            "--duration",
            "4",
            "--out",
            out,
        ]
    )
    assert code == 0
    bundle = load_bundle(out)
    assert len(bundle.dci) > 0


def test_analyze_prints_chains(trace_path, capsys):
    code = main(["analyze", trace_path])
    assert code == 0
    captured = capsys.readouterr().out
    assert "windows analysed" in captured
    assert "degradation events/min" in captured


def test_analyze_with_custom_chains(trace_path, tmp_path, capsys):
    chains = tmp_path / "chains.txt"
    chains.write_text(
        "ul_channel_degrades --> ul_delay_up --> remote_jitter_buffer_drain\n"
    )
    code = main(["analyze", trace_path, "--chains", str(chains)])
    assert code == 0


def test_report_prints_summary(trace_path, capsys):
    code = main(["report", trace_path])
    assert code == 0
    captured = capsys.readouterr().out
    assert "one-way delay" in captured
    assert "jitter buffer" in captured


def test_codegen_prints_python(tmp_path, capsys):
    chains = tmp_path / "chains.txt"
    chains.write_text(
        "dl_rlc_retx --> forward_delay_up --> local_jitter_buffer_drain\n"
    )
    code = main(["codegen", str(chains)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "def backward_trace(features):" in captured


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _run_fleet(tmp_path, capsys, workers, out_name, extra_args=()):
    out = str(tmp_path / out_name)
    code = main(
        [
            "fleet",
            "--preset",
            "smoke",
            "--workers",
            str(workers),
            "--out",
            out,
            # Keep campaign runs hermetic (no .fleet-cache in the CWD)
            # and genuinely simulated unless a test opts in to caching.
            "--no-cache",
            *extra_args,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    # Everything after the bookkeeping lines is the aggregate report.
    report = captured.split("\n\n", 1)[1]
    with open(out, "rb") as handle:
        return report, handle.read()


def test_fleet_parallel_output_byte_identical(tmp_path, capsys):
    """--workers 4 must aggregate byte-identically to --workers 1."""
    serial_report, serial_jsonl = _run_fleet(tmp_path, capsys, 1, "w1.jsonl")
    parallel_report, parallel_jsonl = _run_fleet(
        tmp_path, capsys, 4, "w4.jsonl"
    )
    assert serial_jsonl == parallel_jsonl
    assert serial_report == parallel_report
    assert "Top root causes fleet-wide" in serial_report


def test_fleet_report_rerenders_saved_outcomes(tmp_path, capsys):
    report, _ = _run_fleet(tmp_path, capsys, 1, "w1.jsonl")
    code = main(["fleet-report", str(tmp_path / "w1.jsonl")])
    assert code == 0
    assert capsys.readouterr().out.strip() == report.strip()


def test_live_replay_service_and_watch(tmp_path, capsys):
    """`repro live` runs a replay fleet to completion and writes a
    snapshot `repro watch` can render."""
    snap = str(tmp_path / "snap.json")
    code = main(
        [
            "live",
            "--sessions",
            "2",
            "--duration",
            "8",
            "--quiet",
            "--snapshot",
            snap,
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "live fleet" in captured
    assert "rtf" in captured  # per-session realtime factor column
    code = main(["watch", snap])
    assert code == 0
    watched = capsys.readouterr().out
    assert "2 sessions" in watched
    assert "2 done" in watched


def test_live_sim_source(capsys):
    code = main(
        [
            "live",
            "--sessions",
            "1",
            "--duration",
            "6",
            "--source",
            "sim",
            "--quiet",
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "1 done" in captured


def test_fleet_cache_dir_rerun_skips_simulation(tmp_path, capsys, monkeypatch):
    from repro.fleet.scenarios import PRESETS, ScenarioSpec
    from repro.obs.metrics import get_registry

    cache_dir = str(tmp_path / "cache")
    hits = get_registry().counter("repro_fleet_cache_hits_total")

    def run(out_name):
        out = str(tmp_path / out_name)
        code = main(
            [
                "fleet",
                "--preset",
                "smoke",
                "--out",
                out,
                "--cache-dir",
                cache_dir,
            ]
        )
        assert code == 0
        capsys.readouterr()
        with open(out, "rb") as handle:
            return handle.read()

    cold_bytes = run("cold.jsonl")

    def no_simulation(self):
        raise AssertionError(f"{self.name} simulated on a warm cache")

    monkeypatch.setattr(ScenarioSpec, "build_session", no_simulation)
    hits_before = hits.total()
    warm_bytes = run("warm.jsonl")
    assert warm_bytes == cold_bytes
    assert hits.total() - hits_before == len(PRESETS["smoke"].expand())


def test_fleet_cluster_passes_env_token_without_journal(
    capsys, monkeypatch, coordinator_calls
):
    """$REPRO_CLUSTER_TOKEN guards the coordinator whether or not the
    campaign is journaled."""
    calls = coordinator_calls
    monkeypatch.setenv("REPRO_CLUSTER_TOKEN", "s3cret")
    code = main(["fleet", "--preset", "smoke", "--dispatch", "cluster"])
    assert code == 0
    capsys.readouterr()
    assert calls["auth_token"] == "s3cret"
    assert calls["journal_path"] is None


def test_sigterm_graceful_drain_flushes_metrics_file(tmp_path):
    """SIGTERM must unwind main()'s finally and flush --metrics-file.

    Runs the CLI as a real subprocess (signal dispositions are
    per-process state): a follow-mode watch blocked waiting on a
    snapshot that never appears is terminated mid-wait, and must still
    exit 143 (128 + SIGTERM) with its final metrics snapshot on disk.
    """
    import os
    import signal
    import subprocess
    import sys
    import time

    import repro
    from repro.obs import parse_prom

    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    metrics_path = str(tmp_path / "final.prom")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "--metrics-file",
            metrics_path,
            "watch",
            str(tmp_path / "never-written-snap.json"),
            "--follow",
            "--interval",
            "0.2",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        time.sleep(1.5)  # let it start its poll loop
        proc.send_signal(signal.SIGTERM)
        code = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
    assert code == 143
    with open(metrics_path) as handle:
        parse_prom(handle.read())  # flushed snapshot is parseable


def test_causal_score_renders_saved_labeled_campaign(tmp_path, capsys):
    from repro.causal.confounders import GroundTruthLabel
    from repro.fleet.executor import SessionOutcome, save_outcomes

    outcomes = [
        SessionOutcome(
            scenario=f"adv/s{i}",
            profile="amarisoft",
            impairment="ul_fade",
            seed=i,
            duration_s=8.0,
            n_windows=10,
            n_detected_windows=3,
            degradation_events_per_min=1.0,
            ground_truth=GroundTruthLabel(
                cause="Poor Channel",
                impairment="ul_fade",
                axes=("reactive_control",),
                spurious=("Cross Traffic",),
                accepted=("Poor Channel", "HARQ ReTX"),
            ),
            attributions={
                "domino": "Poor Channel",
                "correlation": "Cross Traffic" if i else "Poor Channel",
            },
        )
        for i in range(2)
    ]
    path = str(tmp_path / "labeled.jsonl")
    save_outcomes(outcomes, path)
    assert main(["causal", "score", path]) == 0
    out = capsys.readouterr().out
    assert "| 1 | domino | 1.000 |" in out
    assert "reactive_control" in out


def test_causal_score_rejects_unlabeled_campaign(tmp_path, capsys):
    from repro.fleet.executor import SessionOutcome, save_outcomes

    outcome = SessionOutcome(
        scenario="plain/s0",
        profile="amarisoft",
        impairment="none",
        seed=0,
        duration_s=8.0,
        n_windows=10,
        n_detected_windows=0,
        degradation_events_per_min=0.0,
    )
    path = str(tmp_path / "plain.jsonl")
    save_outcomes([outcome], path)
    assert main(["causal", "score", path]) == 1
    assert "no outcome carries ground-truth labels" in capsys.readouterr().out


# -- error exits ---------------------------------------------------------------


@pytest.fixture()
def cli_stderr(capsys):
    """Everything a CLI run reported as an error: what it printed to
    stderr plus every record the ``repro`` loggers emitted (collected
    by a handler of this fixture's own, whatever stream ``main()``'s
    logging setup is bound to)."""
    import logging

    messages = []

    class _Collect(logging.Handler):
        def emit(self, record):
            messages.append(record.getMessage())

    handler = _Collect(level=logging.DEBUG)
    logger = logging.getLogger("repro")
    logger.addHandler(handler)

    def read():
        return capsys.readouterr().err + "\n".join(messages)

    try:
        yield read
    finally:
        logger.removeHandler(handler)


def _closed_port():
    import socket

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


@pytest.mark.parametrize("command", ["alerts", "report", "compact", "reindex"])
def test_store_command_on_missing_store_exits_1(tmp_path, cli_stderr, command):
    missing = str(tmp_path / "nope")
    assert main(["store", command, missing]) == 1
    assert "not a store" in cli_stderr()


def test_watch_without_snapshot_or_connect_exits_1(cli_stderr):
    assert main(["watch"]) == 1
    assert "need a snapshot file or --connect" in cli_stderr()


def test_watch_foreign_schema_snapshot_exits_1(tmp_path, cli_stderr):
    import json

    path = tmp_path / "snap.json"
    path.write_text(json.dumps({"schema": 42}))
    assert main(["watch", str(path)]) == 1
    assert "schema version 42 vs" in cli_stderr()


def test_fleet_report_on_major_version_file_exits_1(tmp_path, cli_stderr):
    import json

    from repro.fleet.executor import SessionOutcome, save_outcomes

    path = str(tmp_path / "fleet.jsonl")
    save_outcomes(
        [
            SessionOutcome(
                scenario="s0",
                profile="wired",
                impairment="none",
                seed=0,
                duration_s=8.0,
                n_windows=1,
                n_detected_windows=0,
                degradation_events_per_min=0.0,
            )
        ],
        path,
    )
    lines = (tmp_path / "fleet.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    header["version"] = 99
    lines[0] = json.dumps(header)
    (tmp_path / "fleet.jsonl").write_text("\n".join(lines) + "\n")
    assert main(["fleet-report", path]) == 1
    assert "schema version 99 vs" in cli_stderr()


def test_fleet_report_warns_once_per_torn_tail(tmp_path, capsys, caplog):
    """A torn tail is reported by the tolerant read alone: the jsonlog's
    torn-line warning and the per-file summary, nothing from the CLI."""
    import logging

    from repro.fleet.executor import SessionOutcome, save_outcomes

    path = str(tmp_path / "fleet.jsonl")
    outcome = SessionOutcome(
        scenario="s0",
        profile="wired",
        impairment="none",
        seed=0,
        duration_s=8.0,
        n_windows=1,
        n_detected_windows=0,
        degradation_events_per_min=0.0,
    )
    save_outcomes([outcome], path)
    with open(path, "ab") as handle:
        handle.write(b'{"sce')
    # main() stops the "repro" logger propagating; listen on it directly.
    repro_logger = logging.getLogger("repro")
    repro_logger.addHandler(caplog.handler)
    try:
        assert main(["fleet-report", path]) == 0
    finally:
        repro_logger.removeHandler(caplog.handler)
    assert [(r.name, r.levelname) for r in caplog.records] == [
        ("repro.jsonlog", "WARNING"),
        ("repro.fleet.executor", "WARNING"),
    ]
    torn, summary = (record.getMessage() for record in caplog.records)
    assert "skipping torn trailing line (5 byte(s)" in torn
    assert "skipped 1 undecodable line(s), 0 outcome(s)" in summary
    assert "Top root causes fleet-wide" in capsys.readouterr().out


def test_cluster_status_on_closed_port_exits_1(cli_stderr):
    port = _closed_port()
    assert main(["cluster", "status", "--connect", f"127.0.0.1:{port}"]) == 1
    assert str(port) in cli_stderr()


def test_watch_connect_on_closed_port_exits_1(cli_stderr):
    port = _closed_port()
    assert main(["watch", "--connect", f"127.0.0.1:{port}"]) == 1
    assert str(port) in cli_stderr()


def test_obs_report_on_missing_file_exits_1(tmp_path, cli_stderr):
    missing = str(tmp_path / "events.jsonl")
    assert main(["obs", "report", missing]) == 1
    assert missing in cli_stderr()


def test_obs_report_on_garbled_file_exits_1(tmp_path, cli_stderr):
    path = tmp_path / "events.jsonl"
    path.write_text("{not json\n")
    assert main(["obs", "report", str(path)]) == 1
    assert str(path) in cli_stderr()


def test_obs_trace_on_missing_store_exits_1(tmp_path, cli_stderr):
    assert main(["obs", "trace", "--store", str(tmp_path / "nope")]) == 1
    assert "not a store" in cli_stderr()


def test_obs_trace_on_empty_store_exits_1(tmp_path, capsys):
    from repro.store import RcaStore

    store_dir = str(tmp_path / "st")
    RcaStore.open(store_dir).close()
    assert main(["obs", "trace", "--store", store_dir]) == 1
    assert "no trace spans" in capsys.readouterr().out


def test_store_query_qoe_without_metric_exits_2(tmp_path, cli_stderr):
    prom = tmp_path / "m.prom"
    prom.write_text("repro_pin_total 3\n")
    store_dir = str(tmp_path / "st")
    assert main(
        ["store", "ingest", store_dir, "--prom", str(prom), "--at", "1000"]
    ) == 0
    assert main(["store", "query", store_dir, "qoe"]) == 2
    assert "need --metric" in cli_stderr()


def test_coordinator_tls_cert_without_key_exits_2(cli_stderr):
    assert main(["cluster", "coordinator", "--tls-cert", "x"]) == 2
    assert "--tls-cert and --tls-key must be given together" in cli_stderr()


def test_cluster_queue_wait_matches_inline_campaign(tmp_path, capsys):
    """`cluster queue --wait --out` against a standing loopback
    coordinator with one worker writes the outcomes an inline campaign
    of the same preset returns, byte for byte."""
    import asyncio
    import threading

    from repro import api
    from repro.cluster import ClusterCoordinator, ClusterWorker
    from repro.fleet.executor import save_outcomes

    ready = threading.Event()
    state = {}

    def serve():
        async def run():
            coordinator = ClusterCoordinator(port=0)
            await coordinator.start()
            worker = asyncio.ensure_future(
                ClusterWorker(
                    "127.0.0.1", coordinator.port, connect_timeout_s=60
                ).run()
            )
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = stop = asyncio.Event()
            state["port"] = coordinator.port
            ready.set()
            try:
                await stop.wait()
            finally:
                await coordinator.close()
                await asyncio.gather(worker, return_exceptions=True)

        asyncio.run(run())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(timeout=60)
    out = str(tmp_path / "queued.jsonl")
    try:
        code = main(
            [
                "cluster",
                "queue",
                "--connect",
                f"127.0.0.1:{state['port']}",
                "--preset",
                "smoke",
                "--no-cache",
                "--wait",
                "--interval",
                "0.2",
                "--out",
                out,
            ]
        )
    finally:
        state["loop"].call_soon_threadsafe(state["stop"].set)
        thread.join(timeout=60)
    assert code == 0
    assert not thread.is_alive()
    assert "Top root causes fleet-wide" in capsys.readouterr().out
    reference = str(tmp_path / "inline.jsonl")
    save_outcomes(api.campaign("smoke"), reference)
    with open(out, "rb") as got, open(reference, "rb") as want:
        assert got.read() == want.read()


def test_main_hands_the_repro_logger_back(tmp_path, capsys, caplog):
    """An in-process run leaves no handler bound to its own stderr: a
    later ``repro.*`` warning reaches caplog, and nothing writes into
    the run's stderr once that stream is closed."""
    import io
    import logging
    import sys

    repro_logger = logging.getLogger("repro")
    before = (
        repro_logger.level,
        repro_logger.propagate,
        list(repro_logger.handlers),
    )
    run_stderr = io.StringIO()
    real_stderr, sys.stderr = sys.stderr, run_stderr
    try:
        assert main(["obs", "report", str(tmp_path / "none.jsonl")]) == 1
    finally:
        sys.stderr = real_stderr
    assert "none.jsonl" in run_stderr.getvalue()
    run_stderr.close()
    assert (
        repro_logger.level,
        repro_logger.propagate,
        list(repro_logger.handlers),
    ) == before
    with caplog.at_level(logging.WARNING):
        logging.getLogger("repro.cluster.client").warning("after main")
    assert "after main" in caplog.text
    assert "Logging error" not in capsys.readouterr().err
