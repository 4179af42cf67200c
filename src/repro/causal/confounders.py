"""Adversarial confounder axes and ground-truth cause labels.

Each axis deliberately manufactures a *spurious* statistical association
between DL cross traffic and the app-layer symptom while the true cause
lives elsewhere (the SNIPPETS.md network-rca-causality design):

- ``correlated_cross`` — a modest DL cross-traffic burst fired at the
  exact onset of every true-cause event (common-cause / coincidence
  confound: the burst co-occurs with the symptom but does not drive it).
- ``lagged_mimic`` — the same burst delayed by ``lag_s``, so naive
  lagged-correlation scans still find a high peak at some lag.
- ``recovery_surge`` — the burst fires when each true-cause event *ends*
  (queued traffic flushing after an outage), i.e. the "cause" series
  rises exactly when the symptom is resolving.
- ``reactive_control`` — an *intervention* confound: a runtime hook
  watches client A's congestion-controller target and injects cross
  traffic whenever the target collapses, so cross traffic is a
  consequence of the symptom, not a cause (reverse causation).
- ``control`` — no injection; marks a scenario for ground-truth
  labelling so clean runs enter the same scored campaign.

This module is a leaf: it must not import ``repro.fleet`` (the scenario
layer imports *us*).  Impairment specs are therefore duck-typed — any
object with ``name`` / ``ul_fades`` / ``dl_bursts`` / ``rrc_releases_s``
attributes works.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

#: Valid values for :attr:`ConfounderSpec.axis`.
CONFOUNDER_AXES: Tuple[str, ...] = (
    "control",
    "correlated_cross",
    "lagged_mimic",
    "recovery_surge",
    "reactive_control",
)

#: Axes whose bursts are derived from the impairment schedule up front.
SCHEDULED_AXES: Tuple[str, ...] = (
    "correlated_cross",
    "lagged_mimic",
    "recovery_surge",
)

#: Cause label a correlation-fooled detector reports under every
#: cross-traffic confounder axis.
SPURIOUS_CAUSE = "Cross Traffic"

#: RNTI of the dedicated confounder UE (distinct from the scripted
#: impairment UE at 49_999 and organic cross traffic at 40_000+).
CONFOUNDER_RNTI = 49_998

#: Nominal RRC outage used to place recovery surges after a scripted
#: release (matches the calibrated commercial-cell ``rrc_outage_us``).
RRC_NOMINAL_OUTAGE_S = 0.3


@dataclass(frozen=True)
class ConfounderSpec:
    """One declarative confounder axis on a scenario.

    Attributes:
        axis: one of :data:`CONFOUNDER_AXES`.
        lag_s: delay between the true-cause anchor and the burst onset.
        duration_s: scheduled burst length.
        prbs: PRB demand of each burst — sized to dominate the
            ``other_prbs`` telemetry series without starving the
            experiment UE (the burst must not *actually* degrade DL).
        trigger_fraction: reactive axis — intervene when client A's GCC
            target drops below this fraction of its running peak.
        hold_s: reactive axis — length of each injected burst.
        warmup_s: reactive axis — ignore the ramp-up phase.
    """

    axis: str
    lag_s: float = 0.0
    duration_s: float = 2.5
    prbs: int = 40
    trigger_fraction: float = 0.8
    hold_s: float = 0.5
    warmup_s: float = 3.0

    def __post_init__(self) -> None:
        if self.axis not in CONFOUNDER_AXES:
            raise ValueError(
                f"unknown confounder axis {self.axis!r}; "
                f"expected one of {CONFOUNDER_AXES}"
            )

    @property
    def needs_ran(self) -> bool:
        """Whether this axis injects RAN-level cross traffic."""
        return self.axis != "control"


#: Cause families on the true causal pathway of each root cause — the
#: Fig. 9 domino structure: a UL fade *causes* aggressive MCS, HARQ and
#: RLC retransmissions, and scheduling backlog; an RRC release freezes
#: the grant loop and builds UL backlog.  A detector attributing to any
#: of these named a mechanism the true cause drives; only an
#: off-pathway family (the injected confounder above all) is wrong.
ACCEPTED_PATHWAYS: dict = {
    "Poor Channel": (
        "Poor Channel",
        "HARQ ReTX",
        "RLC ReTX",
        "UL Scheduling",
    ),
    "RRC State": ("RRC State", "UL Scheduling", "RLC ReTX"),
    "Cross Traffic": ("Cross Traffic", "UL Scheduling"),
    "UL Scheduling": ("UL Scheduling",),
    "HARQ ReTX": ("HARQ ReTX", "RLC ReTX"),
    "RLC ReTX": ("RLC ReTX",),
}


@dataclass(frozen=True)
class GroundTruthLabel:
    """Machine-readable truth the simulator knows about a scenario.

    Attributes:
        cause: true root-cause family (a ``CauseKind`` value, or
            ``"none"`` for clean runs).
        impairment: name of the injected impairment.
        axes: confounder axes active on the scenario.
        spurious: cause labels that are *wrong* but statistically
            tempting under the active axes.
        accepted: cause families on the true causal pathway — an
            attribution to any of these is credited to ``cause`` (see
            :data:`ACCEPTED_PATHWAYS`); ``cause`` itself is always
            included.
        onsets_s: start times of the true-cause events.
    """

    cause: str
    impairment: str
    axes: Tuple[str, ...] = ()
    spurious: Tuple[str, ...] = ()
    accepted: Tuple[str, ...] = ()
    onsets_s: Tuple[float, ...] = ()


def true_cause(impairment) -> Optional[str]:
    """Map an impairment spec to the CauseKind family it exercises."""
    if getattr(impairment, "ul_fades", ()):
        return "Poor Channel"
    if getattr(impairment, "rrc_releases_s", ()):
        return "RRC State"
    if getattr(impairment, "dl_bursts", ()):
        return "Cross Traffic"
    return None


def cause_events_s(impairment) -> Tuple[Tuple[float, float], ...]:
    """(start_s, duration_s) of every true-cause event, sorted."""
    events: List[Tuple[float, float]] = []
    for start, duration, _depth in getattr(impairment, "ul_fades", ()):
        events.append((float(start), float(duration)))
    for release in getattr(impairment, "rrc_releases_s", ()):
        events.append((float(release), RRC_NOMINAL_OUTAGE_S))
    for start, duration, _prbs in getattr(impairment, "dl_bursts", ()):
        events.append((float(start), float(duration)))
    return tuple(sorted(events))


def scheduled_bursts(
    conf: ConfounderSpec, impairment
) -> Tuple[Tuple[int, int, int], ...]:
    """Derive ``(start_us, duration_us, prbs)`` bursts for a scheduled axis."""
    if conf.axis not in SCHEDULED_AXES:
        return ()
    bursts: List[Tuple[int, int, int]] = []
    for start_s, event_dur_s in cause_events_s(impairment):
        anchor = start_s + conf.lag_s
        if conf.axis == "recovery_surge":
            anchor = start_s + event_dur_s + conf.lag_s
        bursts.append(
            (
                int(anchor * 1e6),
                int(conf.duration_s * 1e6),
                int(conf.prbs),
            )
        )
    return tuple(bursts)


def ground_truth_label(impairment, confounders) -> GroundTruthLabel:
    """Build the label ``run_scenario`` stamps onto a SessionOutcome."""
    confounders = tuple(confounders)
    injecting = tuple(c.axis for c in confounders if c.axis != "control")
    cause = true_cause(impairment) or "none"
    return GroundTruthLabel(
        cause=cause,
        impairment=getattr(impairment, "name", "none"),
        axes=tuple(c.axis for c in confounders),
        spurious=(SPURIOUS_CAUSE,) if injecting else (),
        accepted=ACCEPTED_PATHWAYS.get(cause, (cause,)),
        onsets_s=tuple(start for start, _ in cause_events_s(impairment)),
    )


class ReactiveCrossTraffic:
    """Tick hook implementing the ``reactive_control`` axis.

    Watches client A's congestion-controller target each ~100 ms of
    simulated time and, whenever it collapses below
    ``trigger_fraction`` of its running peak, scripts a cross-traffic
    burst onto a dedicated UE.  The injected traffic is therefore a
    *response* to the app-layer symptom — any detector that reads the
    resulting correlation as causal has the arrow backwards.

    Purely deterministic: driven only by simulated state.
    """

    CHECK_INTERVAL_US = 100_000

    def __init__(self, ue, spec: ConfounderSpec) -> None:
        self.ue = ue
        self.spec = spec
        self._next_check_us = int(spec.warmup_s * 1e6)
        self._active_until_us = 0
        self._peak_bps = 0.0
        self.interventions = 0

    def __call__(self, session, now_us: int) -> None:
        if now_us < self._next_check_us:
            return
        self._next_check_us = now_us + self.CHECK_INTERVAL_US
        target = session.client_a.current_target_bps
        if target <= 0.0:
            return
        if target > self._peak_bps:
            self._peak_bps = target
        if now_us < self._active_until_us:
            return
        if target < self.spec.trigger_fraction * self._peak_bps:
            hold_us = int(self.spec.hold_s * 1e6)
            self.ue.add_burst(now_us, hold_us, int(self.spec.prbs))
            self._active_until_us = now_us + hold_us
            self.interventions += 1


def attach_reactive_hook(session, conf: ConfounderSpec, seed: int):
    """Wire a :class:`ReactiveCrossTraffic` hook into a cellular session.

    Appends a silent scripted-only UE to the DL cross-traffic population
    and registers the hook on the session's tick loop.  Returns the hook
    (exposed for tests).
    """
    from repro.mac.crosstraffic import CrossTrafficUe

    ue = CrossTrafficUe(
        rnti=CONFOUNDER_RNTI,
        mean_on_ms=0.0,  # purely scripted
        mean_prb_demand=0.0,
        seed=seed,
    )
    session.access_a.ran.dl.cross.add_ue(ue)
    hook = ReactiveCrossTraffic(ue, conf)
    session.tick_hooks.append(hook)
    return hook
