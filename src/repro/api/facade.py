"""The unified RCA facade: one coherent surface over every entry point.

The paper presents Domino as *one* tool that answers "why did quality
degrade?" regardless of how telemetry arrives.  This module is that
tool's programmatic face:

* :func:`analyze` — offline: a recorded trace (bundle, JSONL path, or
  pre-built timeline) in, a :class:`~repro.core.detector.DominoReport`
  out.
* :func:`open_stream` — near-real-time: an incremental
  :class:`~repro.core.streaming.StreamingDomino` over a live feed.
* :func:`campaign` — many sessions: a scenario matrix (or preset name,
  or explicit spec list) executed on a pluggable
  :class:`~repro.api.backends.ExecutionBackend`.
* :func:`serve` / :func:`watch` / :func:`read_snapshot` — always-on: a
  configured :class:`~repro.live.service.LiveRcaService`, and the
  consumer side of its fleet snapshots (file artifact or coordinator
  stream).

All paths return the same canonical objects
(:class:`~repro.core.detector.DominoReport`,
:class:`~repro.fleet.executor.SessionOutcome`,
:class:`~repro.live.aggregator.FleetSnapshot`) serialized exclusively
through :mod:`repro.schema`, and every facade-raised error derives from
:class:`~repro.errors.ReproError`.
"""

from __future__ import annotations

import os
from typing import (
    AsyncIterator,
    List,
    Optional,
    Sequence,
    Union,
)

from repro.core.detector import DetectorConfig, DominoDetector, DominoReport
from repro.core.streaming import StreamingDomino
from repro.errors import ConfigError
from repro.fleet.executor import SessionOutcome
from repro.fleet.scenarios import ScenarioMatrix, ScenarioSpec, get_preset
from repro.live.aggregator import FleetSnapshot
from repro.live.service import LiveRcaService
from repro.live.sources import TelemetrySource
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.telemetry.records import TelemetryBundle
from repro.telemetry.timeline import Timeline
from repro.api.backends import ExecutionBackend, InlineBackend

#: What :func:`analyze` accepts: an in-memory bundle, a JSONL trace
#: path, or an already-resampled timeline.
TraceLike = Union[TelemetryBundle, Timeline, str, "os.PathLike[str]"]

#: What :func:`campaign` accepts: a matrix, a preset name, or an
#: explicit scenario list.
CampaignLike = Union[ScenarioMatrix, str, Sequence[ScenarioSpec]]


def analyze(
    trace: TraceLike,
    config: Optional[DetectorConfig] = None,
    *,
    session_name: str = "",
) -> DominoReport:
    """Run the full Domino pipeline over one recorded session.

    *trace* may be a :class:`~repro.telemetry.records.TelemetryBundle`,
    a path to a JSONL telemetry trace (anything
    :func:`repro.telemetry.io.load_bundle` reads), or a pre-built
    :class:`~repro.telemetry.timeline.Timeline` (*session_name* labels
    the report in that case).  Detections are byte-identical to
    constructing :class:`~repro.core.detector.DominoDetector` directly —
    this is the same pipeline behind one door.
    """
    detector = DominoDetector(config)
    if isinstance(trace, Timeline):
        return detector.analyze_timeline(trace, session_name=session_name)
    if isinstance(trace, (str, os.PathLike)):
        from repro.telemetry.io import load_bundle

        trace = load_bundle(os.fspath(trace))
    if not isinstance(trace, TelemetryBundle):
        raise ConfigError(
            f"analyze() takes a TelemetryBundle, a Timeline, or a trace "
            f"path, not {type(trace).__name__}"
        )
    return detector.analyze(trace)


def open_stream(
    config: Optional[DetectorConfig] = None,
    *,
    cellular_client: str = "cellular",
    wired_client: str = "wired",
    gnb_log_available: bool = True,
) -> StreamingDomino:
    """Open an incremental detector over a live telemetry feed.

    Feed it with :meth:`~repro.core.streaming.StreamingDomino.feed_batch`
    and call :meth:`~repro.core.streaming.StreamingDomino.advance` with
    the feed's watermark; completed windows come back byte-identical to
    :func:`analyze` over the same records.
    """
    return StreamingDomino(
        config=config or DetectorConfig(),
        cellular_client=cellular_client,
        wired_client=wired_client,
        gnb_log_available=gnb_log_available,
    )


def expand_campaign(scenarios: CampaignLike) -> List[ScenarioSpec]:
    """Normalize any campaign description to an explicit scenario list."""
    if isinstance(scenarios, str):
        try:
            scenarios = get_preset(scenarios)
        except KeyError as exc:
            # Facade contract: every facade-raised error derives from
            # ReproError (get_preset's KeyError is the fleet-level API).
            raise ConfigError(str(exc.args[0]))
    if isinstance(scenarios, ScenarioMatrix):
        return scenarios.expand()
    specs = list(scenarios)
    for spec in specs:
        if not isinstance(spec, ScenarioSpec):
            raise ConfigError(
                f"campaign() takes a ScenarioMatrix, a preset name, or "
                f"ScenarioSpecs, not {type(spec).__name__}"
            )
    return specs


def campaign(
    scenarios: CampaignLike,
    *,
    backend: Optional[ExecutionBackend] = None,
    detector_config: Optional[DetectorConfig] = None,
    trace_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    fail_fast: bool = False,
) -> List[SessionOutcome]:
    """Run a campaign of scenarios; return outcomes in scenario order.

    *scenarios* is a :class:`~repro.fleet.scenarios.ScenarioMatrix`, a
    preset name (``"smoke"``, ``"campus_sweep"``, ...), or an explicit
    spec sequence.  *backend* decides where they run —
    :class:`~repro.api.backends.InlineBackend` (default),
    :class:`~repro.api.backends.ProcessPoolBackend`, or
    :class:`~repro.api.backends.ClusterBackend` — and every backend
    yields byte-identical outcomes because each scenario is a
    deterministic function of its spec.
    """
    specs = expand_campaign(scenarios)
    chosen = backend if backend is not None else InlineBackend()
    if not callable(getattr(chosen, "run", None)):
        raise ConfigError(
            f"backend must implement ExecutionBackend.run(), got "
            f"{type(chosen).__name__}"
        )
    with span(
        "fleet.campaign",
        n_scenarios=len(specs),
        backend=type(chosen).__name__,
    ):
        outcomes = chosen.run(
            specs,
            detector_config=detector_config,
            trace_dir=trace_dir,
            cache_dir=cache_dir,
            fail_fast=fail_fast,
        )
    # Campaign totals are counted here, in the parent process, from the
    # returned outcomes: ProcessPool / cluster workers have their own
    # registries, so this is the one point every backend funnels through
    # — the CI obs smoke asserts these against the outcome file.
    registry = get_registry()
    registry.counter(
        "repro_scenarios_completed_total",
        help="Campaign scenarios completed (counted at collection).",
    ).inc(len(outcomes))
    registry.counter(
        "repro_windows_analyzed_total",
        help="Detector windows across completed campaign scenarios.",
    ).inc(sum(outcome.n_windows for outcome in outcomes))
    return outcomes


def causal_bench(
    scenarios: Union[CampaignLike, Sequence[SessionOutcome]] = "adversarial",
    *,
    backend: Optional[ExecutionBackend] = None,
    detector_config: Optional[DetectorConfig] = None,
    cache_dir: Optional[str] = None,
    fail_fast: bool = False,
):
    """Run a confounder campaign and score every detector's attributions.

    *scenarios* is anything :func:`campaign` accepts (default: the
    ``adversarial`` preset) — or an already-collected sequence of
    :class:`~repro.fleet.executor.SessionOutcome`, in which case no
    simulation runs and the outcomes are just scored.  Returns a
    :class:`repro.causal.score.CausalReport`; render it with
    :func:`repro.causal.score.render_leaderboard`.
    """
    from repro.causal.score import score_outcomes

    if (
        not isinstance(scenarios, str)
        and isinstance(scenarios, Sequence)
        and scenarios
        and isinstance(scenarios[0], SessionOutcome)
    ):
        outcomes = list(scenarios)
        label = "outcomes"
    else:
        label = scenarios if isinstance(scenarios, str) else "campaign"
        outcomes = campaign(
            scenarios,
            backend=backend,
            detector_config=detector_config,
            cache_dir=cache_dir,
            fail_fast=fail_fast,
        )
    with span("causal.bench", n_outcomes=len(outcomes)):
        report = score_outcomes(outcomes, campaign=label)
    # Same collection-point pattern as campaign(): workers have their
    # own registries, so axis totals are counted from returned labels.
    counter = get_registry().counter(
        "repro_causal_scenarios_total",
        help="Labelled causal-validation scenarios scored, per axis.",
    )
    for outcome in outcomes:
        if outcome.ground_truth is not None:
            for axis in outcome.ground_truth.axes or ("unlabelled",):
                counter.inc(axis=axis)
    return report


def serve(
    sources: Sequence[TelemetrySource],
    config: Optional[DetectorConfig] = None,
    **options: object,
) -> LiveRcaService:
    """Build the always-on live RCA service over *sources*.

    A thin, keyword-compatible constructor for
    :class:`~repro.live.service.LiveRcaService`: every option
    (``backpressure``, ``queue_batches``, ``snapshot_every_s``,
    ``snapshot_path``, ...) passes through.  Run it with ``await
    service.run()``.  Each session advances its stream once per ingest
    batch, so a window's detection arrives one batch after its data;
    replayed traces yield detections byte-identical to :func:`analyze`
    by construction (the stream ingests each final bin exactly once).
    """
    return LiveRcaService(sources, config, **options)  # type: ignore[arg-type]


def read_snapshot(path: Union[str, "os.PathLike[str]"]) -> FleetSnapshot:
    """Read one fleet snapshot artifact (schema version checked)."""
    from repro import schema

    return schema.load_snapshot(os.fspath(path))


async def watch(
    host: str,
    port: int,
    *,
    auth_token: Optional[str] = None,
    ssl_context: Optional[object] = None,
) -> AsyncIterator[FleetSnapshot]:
    """Stream fleet snapshots from a cluster coordinator.

    The ``repro watch --connect`` engine: subscribe as a ``watch`` peer
    and yield each pushed snapshot until the coordinator closes the
    connection.  An incompatible coordinator fails with a clear
    diagnostic, not a ``KeyError`` mid-decode: a refused handshake
    raises :class:`~repro.errors.ClusterError` carrying the
    coordinator's "schema/protocol version mismatch" reason, and a
    mismatched snapshot stamp raises
    :class:`~repro.errors.SchemaVersionError` — both under the one
    :class:`~repro.errors.ReproError` base.
    """
    from repro.cluster.client import iter_snapshots

    async for snapshot in iter_snapshots(
        host, port, auth_token=auth_token, ssl_context=ssl_context
    ):
        yield snapshot


def store_open(path: Union[str, "os.PathLike[str]"], *, create: bool = True):
    """Open (by default creating) a historical RCA store directory.

    Returns a :class:`~repro.store.db.RcaStore`; an existing directory
    written by an incompatible layout fails with a versioned
    diagnostic.  Ingest campaign outcomes, fleet snapshots, and metric
    samples through it, then ask questions with :func:`store_query`.
    """
    from repro.store import RcaStore

    return RcaStore.open(os.fspath(path), create=create)


def store_query(store) -> "object":
    """The query plane over an open store (or a store directory path).

    Returns a :class:`~repro.store.query.StoreQuery` — time-range
    rollups, episode-rate series, top-k movers, QoE percentile trends.
    """
    from repro.store import RcaStore, StoreQuery

    if isinstance(store, (str, os.PathLike)):
        store = RcaStore.open(os.fspath(store), create=False)
    if not isinstance(store, RcaStore):
        raise ConfigError(
            f"store_query() takes an RcaStore or a store directory "
            f"path, not {type(store).__name__}"
        )
    return StoreQuery(store)


def store_alerts(rules_path: Union[str, "os.PathLike[str]"], *, store=None):
    """Build an alert engine from a TOML/JSON rule file.

    Returns a :class:`~repro.store.alerts.AlertEngine`; with *store*
    set (an open :class:`~repro.store.db.RcaStore`), every emitted
    transition is also recorded durably.  Evaluate historically with
    :meth:`~repro.store.alerts.AlertEngine.evaluate_range` or live with
    :meth:`~repro.store.alerts.AlertEngine.observe_snapshot`.
    """
    from repro.store import AlertEngine, load_rules

    return AlertEngine(load_rules(os.fspath(rules_path)), store=store)


def store_trace(
    store,
    campaign_id: Optional[str] = None,
    *,
    trace_id: Optional[str] = None,
    render: bool = False,
):
    """A campaign's distributed trace from the historical store.

    *store* is an open :class:`~repro.store.db.RcaStore` or a store
    directory path.  Returns the matching
    :class:`~repro.obs.trace.TraceSpan` list ordered for display, or —
    with ``render=True`` — the ASCII timeline string
    :func:`~repro.obs.trace.render_trace_timeline` produces (one
    stitched tree per scenario trace, abandoned attempts marked).
    """
    query = store_query(store)
    spans = query.trace_spans(campaign_id=campaign_id, trace_id=trace_id)
    if not render:
        return spans
    from repro.obs.trace import render_trace_timeline

    return render_trace_timeline(spans)


__all__ = [
    "CampaignLike",
    "TraceLike",
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
