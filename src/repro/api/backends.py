"""Pluggable campaign execution behind one :class:`ExecutionBackend` seam.

:func:`repro.api.campaign` hands the expanded scenario list to whatever
backend it is given, and each backend owns exactly one execution
strategy: in this process, on a local process pool, or on remote
cluster workers (optionally journaled).

Every backend runs scenarios through
:func:`repro.fleet.executor.run_scenario`, and scenarios are
deterministic functions of their spec — so all backends produce
byte-identical :class:`~repro.fleet.executor.SessionOutcome` lists, in
scenario order, which the equivalence tests assert.
"""

from __future__ import annotations

from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from typing import Callable, List, Optional, Protocol, Sequence, runtime_checkable

from repro.core.detector import DetectorConfig
from repro.errors import ConfigError
from repro.fleet.executor import SessionOutcome, run_scenario
from repro.fleet.scenarios import ScenarioSpec


@runtime_checkable
class ExecutionBackend(Protocol):
    """Where a campaign's scenarios actually run.

    Implementations must return outcomes in scenario order and raise
    the first failing scenario's error (in scenario order) — the
    contract that keeps every backend interchangeable and
    byte-identical.  *fail_fast* cancels every not-yet-started scenario
    as soon as one raises.
    """

    def run(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        detector_config: Optional[DetectorConfig] = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
    ) -> List[SessionOutcome]:
        """Run every scenario; return outcomes in scenario order."""
        ...


class InlineBackend:
    """Run scenarios serially in this process.

    The determinism/debugging backend: plain stack traces, trivially
    pdb-able, and the reference everything else is compared against.
    """

    def run(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        detector_config: Optional[DetectorConfig] = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
    ) -> List[SessionOutcome]:
        # Serial execution is inherently fail-fast: the first error
        # raises before any later scenario starts.
        return [
            run_scenario(spec, detector_config, trace_dir, cache_dir)
            for spec in scenarios
        ]


class ProcessPoolBackend:
    """Fan scenarios out over a local :class:`ProcessPoolExecutor`.

    Args:
        workers: pool size (>= 1).  One scenario (or ``workers=1``)
            short-circuits to inline execution — same outcomes, no pool
            startup cost.
    """

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigError("workers must be >= 1")
        self.workers = workers

    def run(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        detector_config: Optional[DetectorConfig] = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
    ) -> List[SessionOutcome]:
        if self.workers == 1 or len(scenarios) <= 1:
            return InlineBackend().run(
                scenarios,
                detector_config=detector_config,
                trace_dir=trace_dir,
                cache_dir=cache_dir,
                fail_fast=fail_fast,
            )
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            futures = [
                pool.submit(
                    run_scenario, spec, detector_config, trace_dir, cache_dir
                )
                for spec in scenarios
            ]
            if fail_fast:
                done, _ = wait(futures, return_when=FIRST_EXCEPTION)
                if any(future.exception() for future in done):
                    pool.shutdown(wait=True, cancel_futures=True)
                    for future in futures:  # first failure in scenario order
                        if not future.cancelled() and future.exception():
                            raise future.exception()
            return [future.result() for future in futures]


class ClusterBackend:
    """Serve the campaign to remote ``repro cluster worker`` peers.

    Binds a one-shot :class:`~repro.cluster.coordinator.ClusterCoordinator`,
    dispatches every scenario over TCP to workers as they join, and
    returns outcomes in scenario order as soon as the campaign settles
    — byte-identical to local backends because scenario seeds ride
    inside the specs.

    With *journal_path* set, every campaign transition is journaled
    before it takes effect, so a coordinator killed mid-campaign
    resumes on the next :meth:`run`: settled outcomes replay from the
    journal and only the unsettled remainder is dispatched.  The
    resumed result is byte-identical to an uninterrupted run, and no
    settled scenario is executed twice.

    Args:
        host / port: coordinator bind address (``port=0`` = ephemeral).
        on_listening: called with the bound ``(host, port)`` so callers
            can advertise an ephemeral port to workers.
        journal_path: the write-ahead campaign journal (created on
            first use; replayed when it exists).
        campaign_id: explicit campaign id; defaults to the
            deterministic digest of the scenario specs + detector
            config, which is what matches a rerun against the journal.
        auth_token: require this token from every connecting peer.
        ssl_context: serve the listener over TLS (see
            :func:`repro.cluster.protocol.server_ssl_context`).
        store_dir: land the finished campaign's distributed-trace spans
            (and periodic snapshots) in this historical store.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        on_listening: Optional[Callable[[str, int], None]] = None,
        journal_path: Optional[str] = None,
        campaign_id: Optional[str] = None,
        auth_token: Optional[str] = None,
        ssl_context: Optional[object] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.on_listening = on_listening
        self.journal_path = journal_path
        self.campaign_id = campaign_id
        self.auth_token = auth_token
        self.ssl_context = ssl_context
        self.store_dir = store_dir

    def run(
        self,
        scenarios: Sequence[ScenarioSpec],
        *,
        detector_config: Optional[DetectorConfig] = None,
        trace_dir: Optional[str] = None,
        cache_dir: Optional[str] = None,
        fail_fast: bool = False,
    ) -> List[SessionOutcome]:
        """Bind, submit the campaign (resuming from the journal's
        settled records when it exists), dispatch the remainder to
        workers as they join, and return outcomes in scenario order as
        soon as the campaign settles.  Each scenario runs under its own
        distributed trace."""
        import asyncio

        # Imported lazily: the cluster subsystem pulls in asyncio server
        # machinery that purely local campaigns never need.
        from repro.cluster.coordinator import ClusterCoordinator

        async def serve() -> List[SessionOutcome]:
            coordinator = ClusterCoordinator(
                self.host,
                self.port,
                detector_config=detector_config,
                journal_path=self.journal_path,
                auth_token=self.auth_token,
                ssl_context=self.ssl_context,
                store_dir=self.store_dir,
            )
            await coordinator.start()
            try:
                if self.on_listening is not None:
                    self.on_listening(coordinator.host, coordinator.port)
                if not scenarios:
                    return []
                cid = await coordinator.submit_campaign(
                    scenarios,
                    campaign_id=self.campaign_id,
                    trace_dir=trace_dir,
                    cache_dir=cache_dir,
                    fail_fast=fail_fast,
                )
                return await coordinator.wait_campaign(cid)
            finally:
                await coordinator.close()

        return asyncio.run(serve())

__all__ = [
    "ClusterBackend",
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
]
