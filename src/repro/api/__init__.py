"""``repro.api`` — the one public surface for Domino RCA.

Offline, streaming, campaign, and live analysis through a single
coherent facade, all returning the same canonical result objects and
all serialized through :mod:`repro.schema`:

    import repro.api as api

    report = api.analyze("trace.jsonl")                  # offline
    stream = api.open_stream()                           # incremental
    outcomes = api.campaign("smoke",
                            backend=api.ProcessPoolBackend(8))
    service = api.serve(sources, snapshot_path="snap.json")
    snapshot = api.read_snapshot("snap.json")

Execution is pluggable: :func:`campaign` takes any
:class:`ExecutionBackend` (:class:`InlineBackend`,
:class:`ProcessPoolBackend`, or :class:`ClusterBackend`, journaled when
given a ``journal_path``).  The 2.x entry points this replaced were
removed in 3.0 — see the README's "removed in 3.0" table.
"""

from repro.api.backends import (
    ClusterBackend,
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
)
from repro.api.facade import (
    CampaignLike,
    TraceLike,
    analyze,
    campaign,
    causal_bench,
    expand_campaign,
    open_stream,
    read_snapshot,
    serve,
    store_alerts,
    store_open,
    store_query,
    store_trace,
    watch,
)

# The canonical result/config types every facade call traffics in,
# re-exported so ``repro.api`` is self-sufficient for typical use.
from repro.core.detector import (
    DetectorConfig,
    DominoReport,
    WindowDetection,
)
from repro.core.streaming import StreamingDomino
from repro.errors import ReproError
from repro.fleet.executor import SessionOutcome
from repro.fleet.scenarios import ImpairmentSpec, ScenarioMatrix, ScenarioSpec
from repro.live.aggregator import FleetSnapshot
from repro.live.service import LiveRcaService
from repro.live.sources import ReplaySource, SimSource
from repro.live.supervisor import SessionSnapshot

__all__ = [
    "CampaignLike",
    "ClusterBackend",
    "DetectorConfig",
    "DominoReport",
    "ExecutionBackend",
    "FleetSnapshot",
    "ImpairmentSpec",
    "InlineBackend",
    "LiveRcaService",
    "ProcessPoolBackend",
    "ReplaySource",
    "ReproError",
    "ScenarioMatrix",
    "ScenarioSpec",
    "SessionOutcome",
    "SessionSnapshot",
    "SimSource",
    "StreamingDomino",
    "TraceLike",
    "WindowDetection",
    "analyze",
    "campaign",
    "causal_bench",
    "expand_campaign",
    "open_stream",
    "read_snapshot",
    "serve",
    "store_alerts",
    "store_open",
    "store_query",
    "store_trace",
    "watch",
]
