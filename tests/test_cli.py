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
