"""Single-layer alerting baseline: every event is its own alert.

Without causal chaining, each of the 36 Table 5 conditions is an
independent alarm.  This measures the operator-facing alert volume an
uncorrelated monitoring system produces, versus Domino's consolidated
chain detections — the practical value of tracing alarms to shared root
causes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.detector import DominoReport
from repro.core.events import EventConfig
from repro.core.features import FEATURE_NAMES, BatchFeatureExtractor
from repro.telemetry.records import TelemetryBundle
from repro.telemetry.timeline import Timeline


@dataclass
class AlertReport:
    """Raw per-event alert counts over a session."""

    alert_counts: Dict[str, int] = field(default_factory=dict)
    n_windows: int = 0

    @property
    def total_alerts(self) -> int:
        return sum(self.alert_counts.values())

    def reduction_vs(self, report: DominoReport) -> float:
        """Alert-volume ratio: raw alerts per Domino chain detection."""
        domino_detections = sum(len(w.chain_ids) for w in report.windows)
        if domino_detections == 0:
            return float("inf") if self.total_alerts else 1.0
        return self.total_alerts / domino_detections


class SingleLayerAlerts:
    """Counts raw event firings without any chaining."""

    def __init__(
        self,
        window_us: int = 5_000_000,
        step_us: int = 500_000,
        events: EventConfig = EventConfig(),
    ) -> None:
        self.extractor = BatchFeatureExtractor(
            window_us=window_us, step_us=step_us, config=events
        )

    def analyze(self, bundle: TelemetryBundle, dt_us: int = 50_000) -> AlertReport:
        timeline = Timeline.from_bundle(bundle, dt_us=dt_us)
        report = AlertReport(
            alert_counts={name: 0 for name in FEATURE_NAMES}
        )
        for window in self.extractor.extract(timeline):
            report.n_windows += 1
            for name, value in window.features.items():
                if value:
                    report.alert_counts[name] += 1
        return report
