"""Campaign execution: run many scenarios, keep memory bounded.

:func:`run_scenario` takes one :class:`~repro.fleet.scenarios.ScenarioSpec`
end-to-end — simulate, Domino detect, summarize — and boils the result
down to a compact :class:`SessionOutcome` instead of the full telemetry
bundle, so a campaign of hundreds of sessions fits in memory and
pickles cheaply across process boundaries.

Campaigns run through :func:`repro.api.campaign`, whose
:class:`~repro.api.backends.ExecutionBackend` (inline / process pool /
cluster) calls :func:`run_scenario` once per scenario.  Outcomes come
back in scenario order regardless of completion order, so every backend
aggregates byte-identically.

Scenarios are deterministic given their spec, so outcomes are cacheable:
pass ``cache_dir`` and each (scenario fingerprint, detector-config hash)
pair is persisted as one JSON file; re-running the same campaign — e.g.
to re-aggregate with a tweaked rollup — skips simulation entirely for
cache hits.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from repro.analysis.summarize import summarize_session
from repro.causal.confounders import GroundTruthLabel, ground_truth_label
from repro.core.detector import DetectorConfig, DominoDetector
from repro.core.stats import DominoStats
from repro.errors import SchemaError, TelemetryError
from repro.fleet.scenarios import ScenarioSpec
from repro.jsonlog import JsonLog, atomic_write
from repro.obs.logs import get_logger
from repro.obs.metrics import get_registry
from repro.obs.spans import span
from repro.telemetry.io import save_bundle

CHAIN_SEPARATOR = " --> "

logger = get_logger(__name__)


@dataclass(frozen=True)
class SessionOutcome:
    """Compact, JSON-serializable result of one campaign session.

    Chain keys are rendered ``"cause --> ... --> consequence"`` strings;
    counts are merged episodes (consecutive active windows count once),
    matching :meth:`repro.core.stats.DominoStats.chain_episode_counts`.
    """

    scenario: str
    profile: str
    impairment: str
    seed: int
    duration_s: float
    n_windows: int
    n_detected_windows: int
    degradation_events_per_min: float
    chain_counts: Dict[str, int] = field(default_factory=dict)
    cause_counts: Dict[str, int] = field(default_factory=dict)
    consequence_counts: Dict[str, int] = field(default_factory=dict)
    qoe: Dict[str, float] = field(default_factory=dict)
    event_rates: Dict[str, float] = field(default_factory=dict)
    # Causal-validation payload (repro.causal): the simulator's
    # ground-truth cause label and each detector's attribution.  Both
    # stay at their defaults outside adversarial campaigns, and old
    # wire payloads without them decode unchanged.
    ground_truth: Optional[GroundTruthLabel] = None
    attributions: Dict[str, str] = field(default_factory=dict)

    def to_json(self) -> dict:
        # Canonical serde lives in repro.schema; the import is lazy
        # because schema's registry imports this module's dataclass.
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, data: dict) -> "SessionOutcome":
        from repro import schema

        return schema.from_wire("session_outcome", data)


def _trace_path(trace_dir: str, scenario_name: str) -> str:
    return os.path.join(trace_dir, scenario_name.replace("/", "__") + ".jsonl")


# -- outcome caching -----------------------------------------------------------

#: Bump when SessionOutcome fields or simulation semantics change in a
#: way that invalidates previously cached outcomes wholesale.
CACHE_VERSION = 1


def scenario_fingerprint(spec: ScenarioSpec) -> str:
    """Stable digest of everything that pins down one scenario.

    Axis fields that sit at their empty defaults (``confounders`` today,
    any future scenario axis likewise) are dropped from the digest
    payload, so specs that don't use an axis keep the fingerprint they
    had before the axis existed — cached outcomes and journal ids
    survive scenario-schema growth.
    """
    payload = {
        key: value
        for key, value in asdict(spec).items()
        if not (key == "confounders" and not value)
    }
    encoded = json.dumps(payload, sort_keys=True)
    return hashlib.blake2b(encoded.encode(), digest_size=16).hexdigest()


def detector_config_hash(config: Optional[DetectorConfig]) -> str:
    """Stable digest of the detector settings that affect outcomes."""
    config = config or DetectorConfig()
    payload = json.dumps(
        {
            "window_us": config.window_us,
            "step_us": config.step_us,
            "dt_us": config.dt_us,
            "events": asdict(config.events),
            "chains_text": config.chains_text,
        },
        sort_keys=True,
    )
    return hashlib.blake2b(payload.encode(), digest_size=16).hexdigest()


def _cache_path(
    cache_dir: str, spec: ScenarioSpec, config: Optional[DetectorConfig]
) -> str:
    return os.path.join(
        cache_dir,
        f"v{CACHE_VERSION}",
        detector_config_hash(config),
        scenario_fingerprint(spec) + ".json",
    )


def _cache_load(path: str) -> Optional[SessionOutcome]:
    try:
        with open(path) as handle:
            return SessionOutcome.from_json(json.load(handle))
    except (OSError, ValueError, TypeError, SchemaError):
        return None  # miss, or corrupt/stale entry: just re-simulate


def _cache_store(path: str, outcome: SessionOutcome) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    # Atomic: concurrent workers can't tear it.
    atomic_write(path, json.dumps(outcome.to_json(), sort_keys=True))


def run_scenario(
    spec: ScenarioSpec,
    detector_config: Optional[DetectorConfig] = None,
    trace_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
) -> SessionOutcome:
    """Simulate, analyze, and summarize one scenario.

    Module-level (picklable) so ProcessPoolExecutor workers can import
    and run it.  When *trace_dir* is set, the session's full telemetry
    bundle is exported as one JSONL shard per scenario.  When
    *cache_dir* is set, a previously computed outcome for the same
    (scenario fingerprint, detector-config hash) is returned without
    simulating — unless a trace export was requested, which needs the
    full bundle anyway.
    """
    cache_path = None
    if cache_dir is not None and trace_dir is None:
        cache_path = _cache_path(cache_dir, spec, detector_config)
        cached = _cache_load(cache_path)
        if cached is not None:
            get_registry().counter(
                "repro_fleet_cache_hits_total",
                help="Scenario outcomes served from the outcome cache.",
            ).inc()
            return cached
    with span("fleet.scenario", scenario=spec.name):
        session = spec.build_session()
        result = session.run(spec.duration_us)
        bundle = result.bundle
        if trace_dir is not None:
            os.makedirs(trace_dir, exist_ok=True)
            save_bundle(bundle, _trace_path(trace_dir, spec.name))
        detector = DominoDetector(detector_config)
        report = detector.analyze(bundle)
        stats = DominoStats.from_report(report)
        ground_truth = None
        attributions: Dict[str, str] = {}
        if spec.confounders:
            # Lazy: the scoring harness pulls in every baseline, which
            # ordinary (non-adversarial) campaigns never need.  Runs
            # inside the worker, so process-pool and cluster backends
            # carry attributions home in the picklable outcome.
            from repro.causal.score import attribute_detectors

            ground_truth = ground_truth_label(
                spec.impairment, spec.confounders
            )
            attributions = attribute_detectors(bundle, stats)
        summary = summarize_session(bundle)
        qoe = {
            "ul_delay_p50_ms": summary.ul_delay.median,
            "ul_delay_p99_ms": summary.ul_delay.percentile(99),
            "dl_delay_p50_ms": summary.dl_delay.median,
            "dl_delay_p99_ms": summary.dl_delay.percentile(99),
            "ul_target_bitrate_p50_bps": summary.ul_target_bitrate.median,
            "dl_target_bitrate_p50_bps": summary.dl_target_bitrate.median,
            "ul_freeze_fraction": summary.ul_freeze_fraction,
            "dl_freeze_fraction": summary.dl_freeze_fraction,
            "ul_concealed_fraction": summary.ul_concealed_fraction,
            "dl_concealed_fraction": summary.dl_concealed_fraction,
        }
        outcome = SessionOutcome(
            scenario=spec.name,
            profile=spec.profile,
            impairment=spec.impairment.name,
            seed=spec.seed,
            duration_s=spec.duration_s,
            n_windows=report.n_windows,
            n_detected_windows=len(report.windows_with_detections()),
            degradation_events_per_min=stats.degradation_events_per_min(),
            chain_counts={
                CHAIN_SEPARATOR.join(chain): count
                for chain, count in sorted(stats.chain_episode_counts().items())
            },
            cause_counts={
                kind.value: count
                for kind, count in stats.cause_episode_counts().items()
            },
            consequence_counts={
                kind.value: count
                for kind, count in stats.consequence_episode_counts().items()
            },
            qoe=qoe,
            event_rates=bundle.event_rates_per_minute(),
            ground_truth=ground_truth,
            attributions=attributions,
        )
        if cache_path is not None:
            _cache_store(cache_path, outcome)
        return outcome


def run_scenario_traced(
    spec: ScenarioSpec,
    detector_config: Optional[DetectorConfig] = None,
    trace_dir: Optional[str] = None,
    cache_dir: Optional[str] = None,
    trace: Optional[dict] = None,
    service: str = "worker",
):
    """:func:`run_scenario` under a propagated distributed-trace context.

    The executor seam tracing rides into process-pool children: spawn-
    context workers inherit nothing, so the trace context travels as the
    *trace* wire dict (see
    :meth:`repro.obs.trace.TraceContext.to_wire`) pickled with the call.
    Installs the context plus a :class:`~repro.obs.trace.TraceCollector`
    (teeing to any sink already present) for the scenario's duration and
    returns ``(outcome, spans)`` where *spans* is the list of collected
    span wire dicts — the payload the cluster worker attaches to its
    OUTCOME frame.  With *trace* None this is exactly
    :func:`run_scenario` plus an empty span list, so detections stay
    byte-identical either way.
    """
    from repro.obs.spans import set_sink
    from repro.obs.trace import TraceCollector, TraceContext, trace_scope

    ctx = TraceContext.from_wire(trace)
    if ctx is None:
        return run_scenario(spec, detector_config, trace_dir, cache_dir), []
    collector = TraceCollector(
        service=service,
        campaign_id=ctx.campaign_id,
        scenario=ctx.scenario or spec.name,
        tee=None,
    )
    collector.tee = set_sink(collector)
    try:
        with trace_scope(ctx):
            outcome = run_scenario(
                spec, detector_config, trace_dir, cache_dir
            )
    finally:
        set_sink(collector.tee)
    return outcome, [item.to_json() for item in collector.spans]


# -- outcome persistence -------------------------------------------------------
# Fleet outcome files are versioned by the canonical
# repro.schema.SCHEMA_VERSION.


def save_outcomes(outcomes: Sequence[SessionOutcome], path: str) -> None:
    """Write outcomes as JSONL: a header line, then one object each.

    The file is replaced atomically, so a crash mid-save leaves the
    previous file (or none), never a torn one.
    """
    from repro.schema import SCHEMA_VERSION

    header = {
        "type": "fleet_header",
        "version": SCHEMA_VERSION,
        "n_outcomes": len(outcomes),
    }
    records = [header] + [outcome.to_json() for outcome in outcomes]
    atomic_write(
        path,
        "".join(json.dumps(data, sort_keys=True) + "\n" for data in records),
    )


def iter_outcomes(
    path: str,
    *,
    tolerant: bool = False,
    stats: Optional[Dict[str, int]] = None,
) -> Iterator[SessionOutcome]:
    """Stream a :func:`save_outcomes` file one outcome at a time.

    The generator validates exactly what :func:`load_outcomes` does —
    format version per header, and at exhaustion that the file holds as
    many outcomes as its headers promise (a truncated save would
    otherwise silently bias every fleet rollup derived from it) — but
    never materializes the whole campaign, so sharded JSONL files far
    larger than memory aggregate fine.  Concatenated saves — shards
    joined with ``cat a.jsonl b.jsonl`` — stream as one campaign; each
    header's count is added to the expectation.

    The file is read as a :class:`~repro.jsonlog.JsonLog`: a torn
    trailing line (a crash mid-save) is skipped, and the count check
    then fails a strict read.  ``tolerant=True`` is the crash-recovery
    mode: damaged lines are skipped and counted in
    ``stats["skipped_lines"]`` (a torn tail included) and a count
    shortfall lands in ``stats["missing_outcomes"]``, so every intact
    outcome still streams and the caller decides how loudly to warn.
    A missing/foreign header still raises either way (that is a
    wrong-file error, not truncation).
    """
    from repro.schema import check_schema_version

    if stats is None:
        stats = {}
    stats.setdefault("skipped_lines", 0)
    stats.setdefault("missing_outcomes", 0)
    yielded = 0
    expected: Optional[int] = None
    log = JsonLog(path, strict=not tolerant)
    for lineno, data in log.replay():
        if isinstance(data, dict) and data.get("type") == "fleet_header":
            # Fleet headers have carried a version since format v1,
            # so a version-less header is corruption, not an old
            # writer; a mismatched one fails with a "schema version
            # X vs Y" diagnostic, never a KeyError mid-decode.
            if data.get("version") is None:
                raise TelemetryError(
                    f"{path}: fleet header carries no version "
                    f"(corrupt header?)"
                )
            check_schema_version(
                data["version"], where=f"{path} (fleet header)"
            )
            expected = (expected or 0) + data.get("n_outcomes", 0)
            continue
        try:
            outcome = SessionOutcome.from_json(data)
        except SchemaError as exc:
            log.skip(lineno, f"not a fleet outcomes file: {exc}")
            continue
        yielded += 1
        yield outcome
    if expected is None:
        raise TelemetryError(
            f"{path}: missing fleet header (not a fleet outcomes file, "
            f"or its head was lost?)"
        )
    if not tolerant:
        if yielded != expected:
            raise TelemetryError(
                f"{path}: header promises {expected} outcomes but file "
                f"holds {yielded} (truncated save?)"
            )
        return
    # Surface silent data loss at the read site itself, not just in the
    # callers that happen to print `stats`: every tolerant read counts
    # its skips fleet-wide and warns once per file.
    stats["skipped_lines"] += log.skipped
    stats["missing_outcomes"] = missing = max(expected - yielded, 0)
    skipped = stats["skipped_lines"]
    if skipped or missing:
        registry = get_registry()
        registry.counter(
            "repro_fleet_skipped_lines_total",
            help="Undecodable outcome lines skipped by tolerant reads.",
        ).inc(skipped)
        registry.counter(
            "repro_fleet_missing_outcomes_total",
            help="Outcomes promised by fleet headers but absent.",
        ).inc(missing)
        logger.warning(
            "%s: tolerant read skipped %d undecodable line(s), "
            "%d outcome(s) promised by the header are missing",
            path,
            skipped,
            missing,
        )


def load_outcomes(path: str) -> List[SessionOutcome]:
    """Read back a :func:`save_outcomes` file (see :func:`iter_outcomes`
    for the streaming variant and the validation both share)."""
    return list(iter_outcomes(path))


__all__ = [
    "CACHE_VERSION",
    "CHAIN_SEPARATOR",
    "SessionOutcome",
    "detector_config_hash",
    "iter_outcomes",
    "load_outcomes",
    "run_scenario",
    "run_scenario_traced",
    "save_outcomes",
    "scenario_fingerprint",
]
