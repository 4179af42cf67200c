"""Shared fixtures: simulated sessions are expensive, so the bundles the
integration-level tests share are built once per test session.

Also installs a per-test wall-clock timeout (SIGALRM-based, POSIX only)
so an async hang — a live-service deadlock, a stuck event loop — fails
the one test fast instead of wedging the whole job.  Override with
``REPRO_TEST_TIMEOUT_S`` (0 disables).

The loopback cluster harness (a coordinator with workers, two one-slot
workers, canonical outcome bytes, and a recording stand-in for the
coordinator) is shared here as fixtures."""

from __future__ import annotations

import asyncio
import json
import os
import signal

import pytest

from repro.datasets.cells import (
    AMARISOFT,
    TMOBILE_FDD,
    TMOBILE_TDD,
    get_profile,
)
from repro.datasets.runner import (
    make_cellular_session,
    make_wired_session,
)
from repro.telemetry.io import save_bundle

TEST_TIMEOUT_S = int(os.environ.get("REPRO_TEST_TIMEOUT_S", "300"))


@pytest.fixture(autouse=True)
def _per_test_timeout(request):
    if TEST_TIMEOUT_S <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _on_timeout(signum, frame):
        raise TimeoutError(
            f"test exceeded {TEST_TIMEOUT_S}s wall-clock timeout "
            f"({request.node.nodeid}); likely an async hang"
        )

    previous = signal.signal(signal.SIGALRM, _on_timeout)
    signal.alarm(TEST_TIMEOUT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="session")
def cellular_result():
    """A 20 s call over the commercial FDD profile (rich in events)."""
    session = make_cellular_session(TMOBILE_FDD, seed=42)
    return session.run(20_000_000)


@pytest.fixture(scope="session")
def cellular_bundle(cellular_result):
    return cellular_result.bundle


@pytest.fixture(scope="session")
def private_result():
    """A 20 s call over the Amarisoft private profile (gNB logs on)."""
    session = make_cellular_session(AMARISOFT, seed=42)
    return session.run(20_000_000)


@pytest.fixture(scope="session")
def private_bundle(private_result):
    return private_result.bundle


@pytest.fixture(scope="session")
def wired_result():
    """A 15 s wired↔wired baseline call."""
    session = make_wired_session(seed=42)
    return session.run(15_000_000)


@pytest.fixture(scope="session")
def wired_bundle(wired_result):
    return wired_result.bundle


@pytest.fixture(scope="session")
def tdd_result():
    """A 15 s call over the 100 MHz TDD profile."""
    session = make_cellular_session(TMOBILE_TDD, seed=42)
    return session.run(15_000_000)


#: Every simulated profile, as the JSONL equivalence tests read them.
TRACE_PROFILES = ("amarisoft", "mosolabs", "tmobile_fdd", "tmobile_tdd", "wired")


@pytest.fixture(scope="session", params=TRACE_PROFILES)
def profile_trace(request, tmp_path_factory):
    """An 8 s call of each profile, in memory and saved as JSONL:
    ``(bundle, path)``.  A test using it runs once per profile."""
    name = request.param
    if name == "wired":
        session = make_wired_session(seed=7)
    else:
        session = make_cellular_session(get_profile(name), seed=7)
    bundle = session.run(8_000_000).bundle
    path = str(tmp_path_factory.mktemp("traces") / f"{name}.jsonl")
    save_bundle(bundle, path)
    return bundle, path


# -- loopback cluster harness ----------------------------------------------------


@pytest.fixture(scope="session")
def outcome_bytes():
    """``outcome_bytes(outcomes)``: the canonical bytes two campaigns'
    outcomes must share to count as identical."""

    def encode(outcomes):
        return json.dumps([o.to_json() for o in outcomes], sort_keys=True)

    return encode


@pytest.fixture(scope="session")
def with_cluster():
    """``await with_cluster(workers, run, **coordinator_kwargs)``: start
    a loopback coordinator and the workers ``workers(port)`` returns,
    await ``run(coordinator)``, and tear both down."""
    from repro.cluster import ClusterCoordinator

    async def serve(workers, run, **coordinator_kwargs):
        coordinator = ClusterCoordinator(**coordinator_kwargs)
        await coordinator.start()
        tasks = [
            asyncio.create_task(w.run()) for w in workers(coordinator.port)
        ]
        try:
            await coordinator.wait_for_workers(len(tasks), timeout_s=60)
            return await run(coordinator)
        finally:
            await coordinator.close()
            await asyncio.gather(*tasks, return_exceptions=True)

    return serve


@pytest.fixture(scope="session")
def two_workers():
    """``two_workers(port)``: two one-slot loopback workers, w0 and w1."""
    from repro.cluster import ClusterWorker

    def build(port):
        return [
            ClusterWorker("127.0.0.1", port, slots=1, name=f"w{i}")
            for i in range(2)
        ]

    return build


@pytest.fixture()
def coordinator_calls(monkeypatch):
    """Replace ``ClusterCoordinator`` with a recorder that settles every
    campaign with no outcomes; returns the keyword arguments its
    constructor and ``submit_campaign`` were given (plus ``scenarios``)."""
    import repro.cluster.coordinator as coordinator

    calls = {}

    class Recorder:
        def __init__(self, host="127.0.0.1", port=0, **kwargs):
            calls.update(host=host, port=port, **kwargs)
            self.host, self.port = host, port

        async def start(self):
            pass

        async def submit_campaign(self, scenarios, **kwargs):
            calls.update(scenarios=list(scenarios), **kwargs)
            return "campaign"

        async def wait_campaign(self, campaign_id):
            return []

        async def close(self):
            pass

    monkeypatch.setattr(coordinator, "ClusterCoordinator", Recorder)
    return calls
