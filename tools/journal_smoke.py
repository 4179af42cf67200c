#!/usr/bin/env python3
"""CI gate for the durable control plane (exit 1 on any failure).

The one scenario no unit test can fake: a real one-shot cluster
campaign *process* (``repro fleet --dispatch cluster --journal``) is
SIGKILLed mid-campaign and restarted on the same write-ahead journal,
with a reconnect-enabled worker riding through the outage.
The gate passes only if:

1. **Resume is exact.** The outcomes file written by the restarted
   campaign is byte-identical to a local in-process run of the same
   preset (same specs, same seeds).
2. **No double execution.** The journal settles every
   ``(campaign_id, index)`` pair exactly once across both coordinator
   lifetimes, and closes the campaign ``completed``.
3. **Workers drain politely.** SIGTERM to the worker after the
   campaign finishes in-flight work, sends BYE, and exits 0.

Run from the repository root: ``PYTHONPATH=src python
tools/journal_smoke.py``.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import time

from repro.cli import main as cli_main
from repro.cluster.journal import CAMPAIGN_CLOSED, OUTCOME_SETTLED
from repro.fleet.executor import load_outcomes
from repro.fleet.scenarios import get_preset

PRESET = "smoke"
BASE_SEED = 7

#: Generous per-phase deadlines: CI machines are slow, hangs must fail.
SETTLE_DEADLINE_S = 240.0
FINISH_DEADLINE_S = 240.0
EXIT_DEADLINE_S = 60.0

ENV = {**os.environ, "PYTHONPATH": "src"}


def free_port() -> int:
    """A port we can rebind after the kill (fixed across restarts)."""
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def spawn_coordinator(port: int, journal: str, out: str) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "fleet",
            "--dispatch", "cluster",
            "--port", str(port),
            "--preset", PRESET,
            "--base-seed", str(BASE_SEED),
            "--no-cache",
            "--journal", journal,
            "--out", out,
        ],
        env=ENV,
    )


def spawn_worker(port: int) -> subprocess.Popen:
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "cluster", "worker",
            "--connect", f"127.0.0.1:{port}",
            "--slots", "1",
            "--reconnect",
            "--connect-timeout", "120",
        ],
        env=ENV,
    )


def journal_records(path: str) -> list:
    """Decode journal lines best-effort (a torn tail is expected noise)."""
    records = []
    if not os.path.exists(path):
        return records
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
    return records


def settled_count(path: str) -> int:
    return sum(
        1 for r in journal_records(path) if r.get("type") == OUTCOME_SETTLED
    )


def wait_exit(proc: subprocess.Popen, deadline_s: float, label: str) -> int:
    try:
        return proc.wait(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise SystemExit(f"FAIL: {label} did not exit within {deadline_s}s")


def main() -> int:
    total = len(get_preset(PRESET).expand())
    kill_at = max(1, total // 2)
    failures = []
    with tempfile.TemporaryDirectory(prefix="journal_smoke_") as tmp:
        journal = f"{tmp}/campaigns.journal"
        out = f"{tmp}/outcomes.jsonl"
        ref = f"{tmp}/reference.jsonl"
        port = free_port()

        print(f"journal smoke: {total} scenarios, killing at >= {kill_at}")
        coordinator = spawn_coordinator(port, journal, out)
        worker = spawn_worker(port)
        try:
            deadline = time.monotonic() + SETTLE_DEADLINE_S
            while settled_count(journal) < kill_at:
                if coordinator.poll() is not None:
                    raise SystemExit(
                        "FAIL: coordinator exited "
                        f"{coordinator.returncode} before the kill point"
                    )
                if time.monotonic() > deadline:
                    raise SystemExit(
                        f"FAIL: journal never reached {kill_at} settled "
                        f"outcomes within {SETTLE_DEADLINE_S}s"
                    )
                time.sleep(0.2)

            print(
                f"SIGKILL coordinator at {settled_count(journal)}/{total} "
                "settled"
            )
            coordinator.send_signal(signal.SIGKILL)
            coordinator.wait()

            print("restarting coordinator on the same journal")
            coordinator = spawn_coordinator(port, journal, out)
            code = wait_exit(
                coordinator, FINISH_DEADLINE_S, "restarted coordinator"
            )
            if code != 0:
                failures.append(f"restarted coordinator exited {code}")

            print("SIGTERM worker (graceful drain)")
            worker.send_signal(signal.SIGTERM)
            code = wait_exit(worker, EXIT_DEADLINE_S, "worker")
            if code != 0:
                failures.append(
                    f"worker exited {code} after SIGTERM (want 0)"
                )
        finally:
            for proc in (worker, coordinator):
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()

        # No settled scenario was executed (= settled) twice, and the
        # campaign closed completed.
        records = journal_records(journal)
        pairs = [
            (r["campaign_id"], r["index"])
            for r in records
            if r.get("type") == OUTCOME_SETTLED
        ]
        if len(pairs) != len(set(pairs)):
            failures.append(
                f"journal settled {len(pairs)} outcomes but only "
                f"{len(set(pairs))} unique (campaign, index) pairs — "
                "a scenario settled twice"
            )
        if len(set(pairs)) != total:
            failures.append(
                f"journal settled {len(set(pairs))} unique scenarios, "
                f"campaign has {total}"
            )
        closed = [
            r for r in records if r.get("type") == CAMPAIGN_CLOSED
        ]
        if not any(
            r.get("payload", {}).get("reason") == "completed" for r in closed
        ):
            failures.append("journal holds no completed CAMPAIGN_CLOSED")

        # The resumed run's outcomes must be byte-identical to a local
        # in-process run of the same preset.
        status = cli_main(
            [
                "fleet", "--preset", PRESET, "--base-seed", str(BASE_SEED),
                "--workers", "1", "--no-cache", "--out", ref,
            ]
        )
        if status != 0:
            failures.append(f"local reference campaign exited {status}")
        else:
            got = [o.to_json() for o in load_outcomes(out)]
            want = [o.to_json() for o in load_outcomes(ref)]
            if json.dumps(got, sort_keys=True) != json.dumps(
                want, sort_keys=True
            ):
                failures.append(
                    "resumed cluster outcomes differ from the local "
                    "reference run"
                )

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("journal smoke passed: kill-9 resume byte-identical, "
          "no double execution, worker drained on SIGTERM")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
