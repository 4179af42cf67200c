"""Incremental fleet rollups over live per-session detections.

:class:`LiveAggregator` folds each session's completed
:class:`~repro.core.detector.WindowDetection` batches into running
episode counts — the same rising-edge episode semantics
:class:`~repro.core.stats.DominoStats` applies offline (consecutive
active windows count once), maintained window by window so a thousand
snapshots never re-scan history.  Each session's running tally renders
as a live :class:`~repro.fleet.executor.SessionOutcome`, and fleet-wide
tables come from the same incremental
:class:`~repro.fleet.aggregate.FleetAggregate` the offline campaign
tooling uses — so live and offline rollups agree by construction, which
the equivalence tests assert.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.chains import CauseKind, ConsequenceKind
from repro.core.detector import WindowDetection
from repro.core.stats import active_cause_kinds, active_consequence_kinds
from repro.fleet.aggregate import FleetAggregate
from repro.fleet.executor import CHAIN_SEPARATOR, SessionOutcome
from repro.live.supervisor import (
    DONE,
    EVICTED,
    FAILED,
    RUNNING,
    SessionSnapshot,
)


class _SessionTally:
    """Running episode counters for one session's window stream."""

    def __init__(self, profile: str, impairment: str) -> None:
        self.profile = profile
        self.impairment = impairment
        self.chain_counts: Counter = Counter()
        self.cause_counts: Counter = Counter()
        self.consequence_counts: Counter = Counter()
        self.degradation_episodes = 0
        self.n_windows = 0
        self.n_detected_windows = 0
        self.duration_us = 0
        self._prev_chains: Set[Tuple[str, ...]] = set()
        self._prev_causes: Set[CauseKind] = set()
        self._prev_consequences: Set[ConsequenceKind] = set()
        self._prev_degraded = False

    def fold(
        self,
        detections: Sequence[WindowDetection],
        chains: Sequence[Tuple[str, ...]],
    ) -> None:
        """Fold the next completed windows (in window order) in."""
        for window in detections:
            self.n_windows += 1
            if window.chain_ids:
                self.n_detected_windows += 1
            # Chain ids resolving to the same tuple are OR-ed before
            # edge detection, matching DominoStats.chain_episode_counts.
            active_chains = {chains[i] for i in window.chain_ids}
            for chain in active_chains - self._prev_chains:
                self.chain_counts[CHAIN_SEPARATOR.join(chain)] += 1
            self._prev_chains = active_chains

            causes = active_cause_kinds(window)
            for kind in causes - self._prev_causes:
                self.cause_counts[kind.value] += 1
            self._prev_causes = causes

            consequences = active_consequence_kinds(window)
            for kind in consequences - self._prev_consequences:
                self.consequence_counts[kind.value] += 1
            self._prev_consequences = consequences

            degraded = bool(consequences)
            if degraded and not self._prev_degraded:
                self.degradation_episodes += 1
            self._prev_degraded = degraded

    def outcome(self, session_id: str) -> SessionOutcome:
        """Render the tally as a live (partial) SessionOutcome."""
        duration_s = self.duration_us / 1e6
        minutes = max(duration_s / 60.0, 1e-9)
        return SessionOutcome(
            scenario=session_id,
            profile=self.profile,
            impairment=self.impairment,
            seed=0,
            duration_s=duration_s,
            n_windows=self.n_windows,
            n_detected_windows=self.n_detected_windows,
            degradation_events_per_min=self.degradation_episodes / minutes,
            chain_counts={
                chain: count
                for chain, count in sorted(self.chain_counts.items())
            },
            cause_counts=dict(self.cause_counts),
            consequence_counts=dict(self.consequence_counts),
        )


@dataclass
class FleetSnapshot:
    """One periodic rollup of the whole live fleet (JSON-serializable)."""

    seq: int
    wall_s: float
    n_sessions: int
    n_running: int
    n_done: int
    n_evicted: int
    n_failed: int
    total_minutes: float  # telemetry minutes processed fleet-wide
    windows: int
    detected_windows: int
    lag_events: int
    degradation_events_per_min: float
    top_chains: List[Tuple[str, float]] = field(default_factory=list)
    cause_rates: Dict[str, float] = field(default_factory=dict)
    consequence_rates: Dict[str, float] = field(default_factory=dict)
    #: chain → fleet-wide merged episode count; raw totals so two
    #: consecutive snapshots difference into per-interval deltas (the
    #: `repro watch --follow` trend view).
    chain_totals: Dict[str, int] = field(default_factory=dict)
    #: pipeline-health metrics piggybacked on the snapshot (sessions
    #: lagging, queue depths, worker liveness, advance p50/p99 ms, ...)
    #: so `repro watch` renders a fleet-health pane from the same frame.
    #: Defaulted: pre-obs snapshots decode with an empty pane.
    health: Dict[str, float] = field(default_factory=dict)
    sessions: List[SessionSnapshot] = field(default_factory=list)

    def to_json(self) -> dict:
        # Canonical serde lives in repro.schema; the import is lazy
        # because schema's registry imports this module's dataclass.
        # The wire dict carries a schema-version stamp for artifacts.
        from repro import schema

        return schema.to_wire(self)

    @classmethod
    def from_json(cls, data: dict) -> "FleetSnapshot":
        from repro import schema

        return schema.from_wire("fleet_snapshot", data)


class LiveAggregator:
    """Fold per-session detections into incremental fleet rollups."""

    def __init__(self) -> None:
        self._tallies: Dict[str, _SessionTally] = {}

    def register(
        self, session_id: str, profile: str = "", impairment: str = "none"
    ) -> None:
        """Announce a session so it appears in rollups from the start."""
        self._tallies.setdefault(
            session_id, _SessionTally(profile, impairment)
        )

    def update(
        self,
        session_id: str,
        detections: Sequence[WindowDetection],
        chains: Sequence[Tuple[str, ...]],
        watermark_us: Optional[int] = None,
    ) -> None:
        """Fold one session's newly completed windows into the rollups.

        Matches the :data:`~repro.live.supervisor.DetectionSink`
        signature, so a supervisor can call it directly.
        """
        tally = self._tallies.get(session_id)
        if tally is None:
            tally = self._tallies[session_id] = _SessionTally("", "none")
        tally.fold(detections, chains)
        if watermark_us is not None:
            tally.duration_us = max(tally.duration_us, watermark_us)

    def note_watermark(self, session_id: str, watermark_us: int) -> None:
        """Advance a session's processed-duration clock (no windows)."""
        tally = self._tallies.get(session_id)
        if tally is not None:
            tally.duration_us = max(tally.duration_us, watermark_us)

    # -- rollups ----------------------------------------------------------------

    def snapshot(
        self,
        *,
        seq: int,
        wall_s: float,
        sessions: List[SessionSnapshot],
        lag_events: int,
        health: Dict[str, float],
    ) -> FleetSnapshot:
        """The fleet rollup over *sessions*' lines (incremental, O(N)).

        The caller owns what only it knows: the sequence number, its
        wall clock, the per-session lines, the lag it shed and its
        pipeline-health pane.
        """
        fleet = self.fleet()
        states = Counter(s.state for s in sessions)
        return FleetSnapshot(
            seq=seq,
            wall_s=wall_s,
            n_sessions=len(sessions),
            n_running=states[RUNNING],
            n_done=states[DONE],
            n_evicted=states[EVICTED],
            n_failed=states[FAILED],
            total_minutes=self.total_minutes,
            windows=sum(s.windows for s in sessions),
            detected_windows=sum(s.detected_windows for s in sessions),
            lag_events=lag_events,
            degradation_events_per_min=self.degradation_events_per_min,
            top_chains=fleet.top_chains(),
            cause_rates=fleet.fleet_cause_rates(),
            consequence_rates=fleet.fleet_consequence_rates(),
            chain_totals=fleet.fleet_chain_totals(),
            health=health,
            sessions=sessions,
        )

    def session_outcomes(self) -> List[SessionOutcome]:
        """Live partial outcomes, in registration order."""
        return [
            tally.outcome(session_id)
            for session_id, tally in self._tallies.items()
        ]

    def fleet(self) -> FleetAggregate:
        """A FleetAggregate over the current live outcomes.

        Built by incremental ``update()`` — one fold per session, so a
        snapshot over N sessions costs O(N), independent of how many
        windows each session has streamed.
        """
        aggregate = FleetAggregate()
        for outcome in self.session_outcomes():
            aggregate.update(outcome)
        return aggregate

    @property
    def total_minutes(self) -> float:
        return sum(t.duration_us for t in self._tallies.values()) / 60e6

    @property
    def degradation_events_per_min(self) -> float:
        episodes = sum(
            t.degradation_episodes for t in self._tallies.values()
        )
        return episodes / max(self.total_minutes, 1e-9)


__all__ = ["FleetSnapshot", "LiveAggregator"]
